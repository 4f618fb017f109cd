"""Center data: curvature, normals, mixed derivative, aligning rotation."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from scherk import (aligning_rotation, center_mixed_derivative,
                    center_normal, center_report, curvature_bound, fd_mixed,
                    gauss_curvature, gauss_map_q, graph_normal, h_prime,
                    height_T, hyperbolic_coordinates, newton_invert,
                    normalize, rotated_mixed_derivative, scherk_data,
                    validate_quadrilateral)
from scherk.checks import CHECKS, run_checks
from scherk.cli import build_report
from conftest import build_case, graph_height_function

ALPHA_CASE1 = 0.872912527382856086086229999113
ALPHA_CASE2 = 0.837238183568728665209007018006
K0_CASE1 = -9.01951992280497374806876992357
K0_CASE2 = -5.4195538599624670943431846549


def closed_curvature(c):
    return -(math.pi ** 2 / 4.0) * math.cos(c.m) ** 2 \
        / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4)


def _center_data(c):
    """Reference copy of the closed forms of (q(0), q'(0), h'(0)), kept
    apart from params so that the record's fields are checked bitwise."""
    half = (c.k - 1j * c.m) / 2.0
    q0 = -1j * cmath.sinh((c.k + 1j * c.m) / 2.0) / cmath.cosh(half)
    ej = math.exp(c.j)
    q0p = -(1.0 + 1j * ej) * math.cos(c.m) / ((1j + ej) * cmath.cosh(half) ** 2)
    h0p = 2j * (math.exp(2.0 * c.j) - 1.0) * (1.0 + cmath.cosh(c.k - 1j * c.m)) \
        / ((1j + ej) ** 2 * math.pi)
    return q0, q0p, h0p


def test_center_constants_on_record_are_bitwise_the_closed_forms(
        case1, case2, sweep_cases):
    for _, _, c, d in [case1, case2] + sweep_cases:
        assert (d.q0, d.q0_prime, d.h0_prime) == _center_data(c)


def test_center_data_closed_forms_match_direct_evaluation(sweep_cases):
    for _, _, c, d in sweep_cases:
        q0, q0p, h0p = d.q0, d.q0_prime, d.h0_prime
        assert abs(q0 - gauss_map_q(0.0 + 0.0j, d)) < 1e-13
        direct_q0p = d.sqrtX * (1.0 - abs(d.z0) ** 2)
        assert abs(q0p - direct_q0p) < 1e-13
        assert abs(h0p - h_prime(0.0 + 0.0j, d)) < 1e-13


def test_center_curvature_closed_form(sweep_cases):
    for _, _, c, d in sweep_cases:
        want = closed_curvature(c)
        assert abs(gauss_curvature(0.0 + 0.0j, d) - want) < 1e-12 * abs(want)


# Near |k| = 8, 1 - |z0|^2 computed from z0 lost up to three digits and
# these surfaces failed both curvature rows at err 1.8e-12 to 3.1e-12.
LARGE_K_PARAMS = ((1.3310895653591717, 7.8739001972487195, 7.274288713826383),
                  (1.4404645653591717, 7.315722958976075, 5.78446595209903),
                  (1.3693708153591715, 8.036090585012234, 7.931298326062872))
CURVATURE_ROWS = ("center_curvature_closed_form", "curvature_bound_attained")


def _curvature_rows(d, frame):
    return [row for row in run_checks(d, frame) if row[0] in CURVATURE_ROWS]


@pytest.mark.parametrize("params", LARGE_K_PARAMS)
def test_curvature_rows_pass_at_large_k(params):
    _, frame, _, d = build_case(*params)
    for name, err, tol, ok in _curvature_rows(d, frame):
        assert tol == 1e-12 and err <= tol and ok, name


def test_curvature_rows_pass_strict_at_small_j():
    # j = 0.024: the residue sum for h'(0) is off by 9.4e-14 relative there,
    # which failed both rows of the strict profile at err 1.9e-13
    _, frame, _, d = build_case(1.2381208153591716, 0.3275948943101834,
                                0.2797940167649149)
    rows = [row for row in run_checks(d, frame, "strict")
            if row[0] in CURVATURE_ROWS]
    for name, err, tol, ok in rows:
        assert tol == 1e-13 and err <= tol and ok, name


def test_curvature_rows_reject_a_perturbed_moebius_center(case1, case2):
    # q(0) = -sqrt(X) z0 still carries z0 into the curvature
    for _, frame, _, d in (case1, case2, build_case(0.7, 7.5, 6.5)):
        wrong = dataclasses.replace(d, z0=d.z0 * 1.0001)
        rows = _curvature_rows(wrong, frame)
        assert len(rows) == 2 and not any(ok for *_, ok in rows)


def _wrong_constants(d):
    """The record with each known wrong constant: K's residues (so the
    height) over sin p, halved as by 4 pi in place of 2 pi, times -1/2, and
    z0 * 1.0001 carried into K's residues q(pole) h_res."""
    def kres(scale=1.0, z0=d.z0):
        return tuple(scale * d.sqrtX * (zk - z0) / (1.0 - zk * z0.conjugate())
                     * r for zk, r in zip(d.poles, d.h_residues))

    return {"1/sin p": dataclasses.replace(d, k_residues=kres(1 / math.sin(d.p))),
            "4 pi": dataclasses.replace(d, k_residues=kres(0.5)),
            "height * -1/2": dataclasses.replace(d, k_residues=kres(-0.5)),
            "z0 * 1.0001": dataclasses.replace(d, z0=d.z0 * 1.0001,
                                               k_residues=kres(z0=d.z0 * 1.0001))}


# What the finite-difference rows over Newton-inverted heights rejected: per
# case and profile (0 default, 1 strict), each (row, wrong constant) that
# failed where the same row passed on the right record.  The harmonicity row
# rejected none; at (0.7, 7.5, 6.5) the mixed rows failed the strict profile
# already on the right record.
_SCALED = {(row, wrong) for row in ("graph_normal_vs_fd", "mixed_derivative_vs_fd")
           for wrong in ("1/sin p", "4 pi", "height * -1/2")}
_Z0 = {("graph_normal_vs_fd", "z0 * 1.0001")}
FD_ROWS_REJECTED = {
    ("case1", 0): _SCALED | _Z0, ("case1", 1): _SCALED | _Z0,
    ("case2", 0): _SCALED | _Z0, ("case2", 1): _SCALED | _Z0,
    ("k7", 0): _SCALED | {("aligned_mixed_derivative_zero", "1/sin p")},
    ("k7", 1): {pair for pair in _SCALED if pair[0] == "graph_normal_vs_fd"},
}


def test_graph_rows_reject_what_the_fd_rows_rejected(case1, case2):
    rows = {name: (tols, err_of) for name, tols, err_of in CHECKS}
    cases = {"case1": case1, "case2": case2, "k7": build_case(0.7, 7.5, 6.5)}
    for (label, pick), rejected in FD_ROWS_REJECTED.items():
        _, frame, _, d = cases[label]
        wrong = _wrong_constants(d)
        for row, constant in sorted(rejected):
            tols, err_of = rows[row]
            err = err_of(wrong[constant], frame, 0)
            if (label, row, constant) == ("k7", "aligned_mixed_derivative_zero",
                                          "1/sin p"):
                # a height scale keeps the aligned mixed derivative zero; the
                # FD row's err, 9.3e-4 of its 1e-3 from step size, crossed
                # the tolerance only because the scale 1/sin p = 1.22
                # magnified it.  The jet row stays at rounding.
                assert err < 1e-8, err
                continue
            assert err > tols[pick], (label, pick, row, constant, err)


def test_center_curvature_frozen(case1, case2):
    for (_, _, _, d), want in ((case1, K0_CASE1), (case2, K0_CASE2)):
        assert abs(gauss_curvature(0.0 + 0.0j, d) - want) < 1e-12


def test_curvature_negative_everywhere(case1, rng):
    _, _, _, d = case1
    r = 0.95 * np.sqrt(rng.uniform(0, 1, 100))
    zs = r * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    for z in zs:
        assert gauss_curvature(complex(z), d) < 0.0


def test_curvature_vs_graph_finite_differences(case1, case2):
    # second fundamental form of the height graph by finite differences
    for _, _, _, d in (case1, case2):
        F = graph_height_function(d)
        c0 = d.h0
        h = 1e-3
        fu = (F(c0 + h) - F(c0 - h)) / (2 * h)
        fv = (F(c0 + 1j * h) - F(c0 - 1j * h)) / (2 * h)
        fuu = (F(c0 + h) - 2 * F(c0) + F(c0 - h)) / h ** 2
        fvv = (F(c0 + 1j * h) - 2 * F(c0) + F(c0 - 1j * h)) / h ** 2
        fuv = fd_mixed(F, c0, h=h)
        k_fd = (fuu * fvv - fuv ** 2) / (1 + fu ** 2 + fv ** 2) ** 2
        k0 = gauss_curvature(0.0 + 0.0j, d)
        assert abs(k_fd - k0) < 1e-4 * abs(k0)


def test_curvature_bound_attained_and_covariant(sweep_cases):
    for q, frame, c, d in sweep_cases[:50]:
        bound = curvature_bound(d, frame)
        attained = abs(gauss_curvature(0.0 + 0.0j, d)) * abs(frame.scale) ** 2
        assert abs(attained - bound) < 1e-12 * bound


def test_curvature_bound_scales_like_inverse_area():
    q, frame, _, d = build_case(0.4, 1.1, -0.2)
    bound = curvature_bound(d, frame)
    bigger = validate_quadrilateral([3.0 * v for v in q.vertices])
    fb, _, _ = normalize(bigger)
    db = scherk_data(hyperbolic_coordinates(fb.z, fb.w))
    assert abs(curvature_bound(db, fb) - bound / 9.0) < 1e-12 * bound


def test_center_normal_closed_form(sweep_cases):
    for _, _, c, d in sweep_cases:
        want = (math.sin(c.m), -math.cos(c.m) * math.tanh(c.k),
                math.cos(c.m) / math.cosh(c.k))
        got = center_normal(d)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-13


def test_graph_normal_closed_form(sweep_cases):
    for _, _, c, d in sweep_cases:
        want = (math.cos(c.m) * math.tanh(c.k), -math.sin(c.m),
                math.cos(c.m) / math.cosh(c.k))
        got = graph_normal(d)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-13


def test_normal_pair_reflection_relation(sweep_cases):
    # the two unit vectors differ by swapping and negating the horizontals
    for _, _, _, d in sweep_cases[:50]:
        n = center_normal(d)
        g = graph_normal(d)
        assert abs(g[0] + n[1]) < 1e-15
        assert abs(g[1] + n[0]) < 1e-15
        assert abs(g[2] - n[2]) < 1e-15


def test_normals_are_unit_and_upward(sweep_cases):
    for _, _, _, d in sweep_cases:
        for vec in (center_normal(d), graph_normal(d)):
            assert abs(sum(x * x for x in vec) - 1.0) < 1e-13
            assert vec[2] > 0.0


def test_graph_normal_matches_graph_gradient(case1, case2):
    for _, _, _, d in (case1, case2):
        F = graph_height_function(d)
        c0 = d.h0
        h = 1e-5
        fu = (F(c0 + h) - F(c0 - h)) / (2 * h)
        fv = (F(c0 + 1j * h) - F(c0 - 1j * h)) / (2 * h)
        scale = math.sqrt(1 + fu ** 2 + fv ** 2)
        want = (-fu / scale, -fv / scale, 1 / scale)
        got = graph_normal(d)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-6


def test_mixed_derivative_closed_form(sweep_cases):
    for _, _, c, d in sweep_cases:
        want = -(math.pi / 2.0) / (math.tanh(c.j) * math.cos(c.m))
        got = center_mixed_derivative(d)
        assert abs(got - want) < 1e-11 * abs(want)


def test_mixed_derivative_matches_fd(case1, case2):
    for _, _, _, d in (case1, case2):
        F = graph_height_function(d)
        fuv = fd_mixed(F, d.h0, h=1e-4)
        assert abs(fuv - center_mixed_derivative(d)) < 1e-4


def test_rotated_mixed_derivative_vs_fd(case1):
    _, _, _, d = case1
    c0 = d.h0
    for alpha in (0.4, 1.1):
        rot = cmath.exp(1j * alpha)

        def F_rot(wp):
            return height_T(newton_invert(d, wp / rot), d)

        fd = fd_mixed(F_rot, rot * c0, h=1e-4)
        assert abs(fd - rotated_mixed_derivative(d, alpha)) < 1e-4


def test_rotation_group_structure(sweep_cases):
    # quarter turn flips the sign; half turn is the identity
    for _, _, _, d in sweep_cases[:30]:
        f0 = rotated_mixed_derivative(d, 0.0)
        assert abs(rotated_mixed_derivative(d, math.pi / 2) + f0) < 1e-10
        assert abs(rotated_mixed_derivative(d, math.pi) - f0) < 1e-10


def test_aligning_rotation_zeroes_the_cross_term(sweep_cases):
    for _, _, _, d in sweep_cases:
        alpha = aligning_rotation(d)
        assert 0.0 <= alpha < math.pi / 2 + 1e-12
        assert abs(rotated_mixed_derivative(d, alpha)) < 1e-8


def _paper_alpha(c):
    """The paper's arccos form of the aligning rotation, kept as a reference."""
    inner = (math.sin(c.m) * math.sinh(c.k)
             / (math.sqrt(2.0) * math.sqrt(math.cos(2 * c.m) + math.cosh(2 * c.k))))
    return math.acos(math.sqrt(0.5 - inner))


def test_aligning_rotation_closed_root(sweep_cases):
    for _, _, c, d in sweep_cases:
        assert abs(aligning_rotation(d) - _paper_alpha(c)) < 1e-13


def test_aligning_rotation_near_right_angle(near_edge_cases):
    # off the sampling box M(alpha) grows like sec m, so the root is judged
    # against the size of M over a quarter turn
    assert len(near_edge_cases) >= 35
    for _, _, c, d in near_edge_cases:
        alpha = aligning_rotation(d)
        assert 0.0 <= alpha < math.pi / 2
        scale = max(abs(rotated_mixed_derivative(d, b * math.pi / 8))
                    for b in range(4))
        assert abs(rotated_mixed_derivative(d, alpha)) <= 1e-12 * scale


def test_aligning_rotation_symmetric_case_is_quarter_pi():
    _, _, _, d = build_case(0.4, 0.8, -0.8)   # k = 0
    assert abs(aligning_rotation(d) - math.pi / 4) < 1e-12


def test_aligning_rotation_frozen(case1, case2):
    _, _, _, d1 = case1
    _, _, _, d2 = case2
    assert abs(aligning_rotation(d1) - ALPHA_CASE1) < 1e-12
    assert abs(aligning_rotation(d2) - ALPHA_CASE2) < 1e-12


def test_aligning_rotation_zeroes_fd(case1):
    _, _, _, d = case1
    alpha = aligning_rotation(d)
    rot = cmath.exp(1j * alpha)

    def F_rot(wp):
        return height_T(newton_invert(d, wp / rot), d)

    assert abs(fd_mixed(F_rot, rot * d.h0, h=1e-4)) < 1e-3


def test_center_report_assembly(case1):
    q, frame, c, d = case1
    rep = center_report(d, frame)
    assert abs(rep["c0"] - frame.invert(d.h0)) < 1e-15
    assert rep["c0_normalized"] == d.h0
    assert abs(rep["curvature_normalized"] - gauss_curvature(0j, d)) < 1e-15
    assert abs(rep["curvature"]
               - rep["curvature_normalized"] * abs(frame.scale) ** 2) < 1e-12
    assert abs(abs(rep["curvature"]) - rep["curvature_bound"]) < 1e-10
    assert rep["normal"] == list(center_normal(d))
    assert rep["graph_normal"] == list(graph_normal(d))
    assert abs(rep["mixed_derivative"] - center_mixed_derivative(d)) == 0.0
    assert abs(rep["alpha"] - aligning_rotation(d)) == 0.0
    assert (rep["q0"], rep["q0_prime"], rep["h0_prime"]) == (
        d.q0, d.q0_prime, d.h0_prime)
    # analyze prints exactly this object under "center"
    assert build_report(q)["center"] == rep
