"""Center data: curvature, normals, mixed derivative, aligning rotation."""

import cmath
import math

import numpy as np

from scherk import (aligning_rotation, center_mixed_derivative,
                    center_normal, gauss_curvature, gauss_map_q, graph_normal,
                    h_prime, hyperbolic_coordinates, normalize,
                    rotated_mixed_derivative, scherk_data,
                    validate_quadrilateral)
from scherk.cli import build_report
from scherk.geometry import HyperbolicCoords
from conftest import (LARGE_K_PARAMS, build_case, graph_derivatives,
                      stereographic)

ALPHA_CASE1 = 0.872912527382856086086229999113
ALPHA_CASE2 = 0.837238183568728665209007018006
K0_CASE1 = -9.01951992280497374806876992357
K0_CASE2 = -5.4195538599624670943431846549


def closed_curvature(c):
    return -(math.pi ** 2 / 4.0) * math.cos(c.m) ** 2 \
        / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4)


def _center_data(c):
    """(q(0), q'(0), h'(0)) in exponential forms of j, kept apart from
    params' half-angle forms e^{ip/2} = tanh j + i sech j as a second route."""
    half = (c.k - 1j * c.m) / 2.0
    q0 = -1j * cmath.sinh((c.k + 1j * c.m) / 2.0) / cmath.cosh(half)
    ej = math.exp(c.j)
    q0p = -(1.0 + 1j * ej) * math.cos(c.m) / ((1j + ej) * cmath.cosh(half) ** 2)
    h0p = 2j * (math.exp(2.0 * c.j) - 1.0) * (1.0 + cmath.cosh(c.k - 1j * c.m)) \
        / ((1j + ej) ** 2 * math.pi)
    return q0, q0p, h0p


def test_center_constants_on_record_match_the_exponential_forms(
        case1, case2, sweep_cases):
    # worst 1.3e-15 relative (h'(0)); e^{2j} - 1 in the exponential h'(0)
    # cancels as j -> 0, but the sampler keeps j >= 0.025
    for _, _, c, d in [case1, case2] + sweep_cases:
        got_all = (gauss_map_q(0j, d), d.q0_prime, d.h0_prime)
        for got, want in zip(got_all, _center_data(c)):
            assert abs(got - want) <= 1e-14 * abs(want), c


def test_center_curvature_reads_the_record_at_every_scalar_zero():
    # at j = 1e-3 the residue sum for h'(0) is off by about 3e-11 relative,
    # so a zero that took that route would miss the closed form by 6e-11
    c = HyperbolicCoords(0.7, 1e-3, -1e-3, 1e-3, 0.0)
    d = scherk_data(c)
    values = [gauss_curvature(z, d) for z in (0, 0.0, 0j, np.complex128(0))]
    assert len({float(v).hex() for v in values}) == 1
    want = closed_curvature(c)
    assert abs(values[0] - want) <= 1e-13 * abs(want)


def test_center_data_closed_forms_match_direct_evaluation(sweep_cases):
    for _, _, c, d in sweep_cases:
        q0p, h0p = d.q0_prime, d.h0_prime
        direct_q0p = d.sqrtX * (1.0 - abs(d.z0) ** 2)
        assert abs(q0p - direct_q0p) < 1e-13
        assert abs(h0p - h_prime(0.0 + 0.0j, d)) < 1e-13


def test_center_curvature_frozen(case1, case2):
    for (_, _, _, d), want in ((case1, K0_CASE1), (case2, K0_CASE2)):
        assert abs(gauss_curvature(0.0 + 0.0j, d) - want) < 1e-12


def test_curvature_negative_everywhere(case1, rng):
    _, _, _, d = case1
    r = 0.95 * np.sqrt(rng.uniform(0, 1, 100))
    zs = r * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    assert np.all(gauss_curvature(zs, d) < 0.0)


def test_curvature_vs_graph_finite_differences(case1, case2):
    # second fundamental form of the height graph by finite differences
    for _, _, _, d in (case1, case2):
        fu, fv, fuu, fvv, fuv = graph_derivatives(d, d.h0, 1e-3)
        k_fd = (fuu * fvv - fuv ** 2) / (1 + fu ** 2 + fv ** 2) ** 2
        k0 = gauss_curvature(0.0 + 0.0j, d)
        assert abs(k_fd - k0) < 1e-4 * abs(k0)


def test_curvature_bound_scales_like_inverse_area():
    q, frame, _, d = build_case(0.4, 1.1, -0.2)
    bound = build_report(q, frame, d)["center"]["curvature_bound"]
    bigger = validate_quadrilateral([3.0 * v for v in q.vertices])
    fb, _, _ = normalize(bigger)
    db = scherk_data(hyperbolic_coordinates(fb.z, fb.w))
    got = build_report(bigger, fb, db)["center"]["curvature_bound"]
    assert abs(got - bound / 9.0) < 1e-12 * bound


def test_center_normal_closed_form(sweep_cases):
    # against the stereographic image of q(0)
    for _, _, _, d in sweep_cases:
        want = stereographic(gauss_map_q(0j, d))
        got = center_normal(d)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-13


def test_graph_normal_closed_form(sweep_cases):
    # against the stereographic image of -i conj(q(0))
    for _, _, _, d in sweep_cases:
        want = stereographic(-1j * gauss_map_q(0j, d).conjugate())
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


def test_graph_normal_matches_graph_gradient(sweep_cases):
    # criterion 9's finite difference of T o f^-1, on other surfaces
    for _, _, _, d in sweep_cases[:30]:
        fu, fv, _, _, _ = graph_derivatives(d, d.h0, 1e-5)
        want = np.array((-fu, -fv, 1.0)) / math.sqrt(1.0 + fu * fu + fv * fv)
        assert np.max(np.abs(np.array(graph_normal(d)) - want)) < 1e-6


def _mixed_derivative_from_center_data(d, alpha):
    """2 Re(e^{i alpha} h'(0) (1 - (q(0) e^{-i alpha})^4) conj(q'(0) e^{-i
    alpha})) / (|h'(0)|^2 |q'(0)|^3 (1 + |q(0)|^2)): the rotated mixed
    derivative through q(0), q'(0) and h'(0), a route apart from the closed
    form in (m, j, k); 1 - |q(0)|^2 = |q'(0)|."""
    q0, q0p, h0p = gauss_map_q(0j, d), d.q0_prime, d.h0_prime
    den = abs(h0p) ** 2 * abs(q0p) ** 3 * (1.0 + abs(q0) ** 2)
    ea = cmath.exp(1j * alpha)
    num = (ea * h0p) * (1.0 - (q0 / ea) ** 4) * ((q0p / ea).conjugate())
    return 2.0 * num.real / den


def test_mixed_derivative_closed_form(sweep_cases):
    for _, _, _, d in sweep_cases:
        want = _mixed_derivative_from_center_data(d, 0.0)
        got = center_mixed_derivative(d)
        assert abs(got - want) < 1e-11 * abs(want)


def test_mixed_derivative_matches_fd(sweep_cases):
    # criterion 9's finite difference of T o f^-1, on other surfaces, where
    # sec m takes the derivative up to 35
    for _, _, _, d in sweep_cases[:30]:
        want = center_mixed_derivative(d)
        fuv = graph_derivatives(d, d.h0, 1e-4)[4]
        assert abs(fuv - want) < 1e-4 * abs(want)


def test_rotated_mixed_derivative_vs_fd(case1):
    _, _, _, d = case1
    for alpha in (0.4, 1.1):
        fd = graph_derivatives(d, d.h0, 1e-4, alpha)[4]
        assert abs(fd - rotated_mixed_derivative(d, alpha)) < 1e-4, alpha


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
    # at large |k| the route through q(0), where 1 - (q(0) e^{-i alpha})^4
    # cancels as |q(0)| -> 1, left 7.4e-13 of the center value
    for params in LARGE_K_PARAMS + ((0.7, 7.5, 6.5),):
        _, _, _, d = build_case(*params)
        aligned = rotated_mixed_derivative(d, aligning_rotation(d))
        assert abs(aligned) <= 1e-14 * abs(center_mixed_derivative(d)), params


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
    assert abs(graph_derivatives(d, d.h0, 1e-4, aligning_rotation(d))[4]) < 1e-4


def test_center_report_assembly(case1):
    # case1 is its own normalized frame; the moved copy a v + b maps back
    # through a frame of scale 1/|a|
    q1 = case1[0]
    for a, b in ((1.0, 0.0), (1.5 - 0.5j, 2.0 + 1.0j)):
        q = validate_quadrilateral([a * v + b for v in q1.vertices])
        frame, _, _ = normalize(q)
        d = scherk_data(hyperbolic_coordinates(frame.z, frame.w))
        rep = build_report(q, frame, d)["center"]
        assert abs(rep["c0"] - frame.invert(d.h0)) < 1e-15
        assert rep["c0_normalized"] == d.h0
        assert abs(rep["curvature_normalized"]
                   - gauss_curvature(0j, d)) < 1e-15
        assert abs(rep["curvature"]
                   - rep["curvature_normalized"] * abs(frame.scale) ** 2) < 1e-12
        assert abs(abs(rep["curvature"]) - rep["curvature_bound"]) < 1e-10
        assert rep["normal"] == list(center_normal(d))
        assert rep["graph_normal"] == list(graph_normal(d))
        assert abs(rep["mixed_derivative"] - center_mixed_derivative(d)) == 0.0
        assert abs(rep["alpha"] - aligning_rotation(d)) == 0.0
        assert (rep["q0"], rep["q0_prime"], rep["h0_prime"]) == (
            gauss_map_q(0j, d), d.q0_prime, d.h0_prime)
