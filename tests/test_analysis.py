"""Center data: curvature, normals, mixed derivative, aligning rotation."""

import cmath
import math

import numpy as np
import pytest

from scherk import (aligning_rotation, center_mixed_derivative,
                    center_normal, center_report, curvature_bound, fd_mixed,
                    gauss_curvature, gauss_map_q, graph_height_function,
                    graph_normal, h_prime, height_T, hyperbolic_coordinates,
                    newton_invert, normalize, rotated_mixed_derivative,
                    scherk_data, validate_quadrilateral)
from scherk.cli import build_report
from conftest import build_case

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
