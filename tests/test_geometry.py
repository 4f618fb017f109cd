"""Validation, canonicalization, and the hyperbola coordinates."""

import math

import numpy as np
import pytest

from conftest import build_case, sample_triples
from scherk import (construct_quad, gauss_curvature, hyperbola_point,
                    hyperbolic_coordinates, normalize, scherk_data, taylor,
                    validate_quadrilateral)
from scherk.cli import build_report

ZV = 0.30891865372641847 + 0.29091934800929248j   # hyperbola_point(0.3, 0.3)
WV = 0.45601150809571184 + 1.1227125823518906j    # hyperbola_point(0.3, 1.0)


def test_construct_recover_round_trip(rng):
    for m, s, t in sample_triples(rng, 300):
        _, frame, coords, _ = build_case(m, s, t)
        lo, hi = sorted((s, t))
        assert abs(coords.m - m) < 1e-10
        # counterclockwise order puts the larger rapidity on w
        assert abs(coords.s - hi) < 1e-9 * (1 + abs(hi))
        assert abs(coords.t - lo) < 1e-9 * (1 + abs(lo))
        assert coords.j > 0.0
        assert abs(coords.j - (coords.s - coords.t) / 2) < 1e-15
        assert abs(coords.k - (coords.s + coords.t) / 2) < 1e-15


def test_constructed_quads_are_pitot(rng):
    for m, s, t in sample_triples(rng, 300):
        q = construct_quad(m, s, t)
        assert abs(q.pitot_residual) <= 1e-11 * q.perimeter()


def test_similarity_invariance_of_coordinates(rng):
    q = construct_quad(0.7, 1.3, -0.4)
    _, frame0, c0, _ = build_case(0.7, 1.3, -0.4)
    for _ in range(20):
        a = rng.normal() + 1j * rng.normal()
        if abs(a) < 0.1:
            continue
        b = 3.0 * (rng.normal() + 1j * rng.normal())
        moved = validate_quadrilateral([a * v + b for v in q.vertices])
        frame, _, _ = normalize(moved)
        c = hyperbolic_coordinates(frame.z, frame.w)
        assert abs(c.m - c0.m) < 1e-10
        assert abs(c.s - c0.s) < 1e-9
        assert abs(c.t - c0.t) < 1e-9


def test_clockwise_input_is_reversed():
    q = validate_quadrilateral([-1, WV, 1, ZV])  # clockwise order
    assert q.reversed_input
    assert q.vertices == (-1, ZV, 1, WV)
    frame, _, _ = normalize(q)
    assert not frame.relabeled


def test_swapped_diagonal_relabels():
    # b1 and b3 exchanged: the image of b2 lands on the sin(m) < 0 branch
    q = validate_quadrilateral([1, WV, -1, ZV])
    frame, _, _ = normalize(q)
    assert frame.relabeled
    c = hyperbolic_coordinates(frame.z, frame.w)
    assert abs(c.m - 0.3) < 1e-12
    assert abs(c.s - 1.0) < 1e-12
    assert abs(c.t - 0.3) < 1e-12


def test_normalize_frame_maps_diagonal():
    q = validate_quadrilateral([v + (2 - 1j) for v in (-1, ZV, 1, WV)])
    frame, forward, inverse = normalize(q)
    assert abs(forward(q.b1) + 1) < 1e-14
    assert abs(forward(q.b3) - 1) < 1e-14
    assert abs(inverse(forward(q.b2)) - q.b2) < 1e-14
    assert abs(frame.z - forward(q.b2)) < 1e-14
    assert abs(frame.w - forward(q.b4)) < 1e-14


SQUARE = [(-1, 0), (0, -1), (1, 0), (0, 1)]   # Scherk's square, m = 0


def _setup(vertices):
    frame, _, _ = normalize(validate_quadrilateral(vertices))
    c = hyperbolic_coordinates(frame.z, frame.w)
    return frame, c, scherk_data(c)


def test_rhombus_curvature_times_inradius_squared():
    # a rhombus (-1, -i sinh j, 1, i sinh j) is m = 0, k = 0, with inradius
    # r_in = tanh j; |K(c0)| r_in^2 = pi^2/4, K read off the Taylor jet,
    # (u_xx u_yy - u_xy^2)/(1 + |grad u|^2)^2 = 4 (V^2 - |U|^2)/(1 + 4|P|^2)^2
    for j in (0.1, 0.5, 1.0, 2.0):
        frame, c, d = _setup([-1, -1j * math.sinh(j), 1, 1j * math.sinh(j)])
        assert (c.m, c.k, frame.relabeled) == (0.0, 0.0, False)
        assert abs(c.j - j) < 1e-15
        t = taylor(d)
        curv = 4.0 * (t.V ** 2 - abs(t.U) ** 2) / (1.0 + 4.0 * abs(t.P) ** 2) ** 2
        for k0 in (curv, gauss_curvature(0.0 + 0.0j, d)):
            assert abs(abs(k0) * math.tanh(j) ** 2 - math.pi ** 2 / 4) \
                < 1e-12 * math.pi ** 2 / 4, j
    # the axis-parallel square, diagonal b1b3 from (-1,-1) to (1,1): the same
    # surface at scale sqrt(2), r_in = 1
    square = validate_quadrilateral([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    frame, c, d = _setup(square.vertices)
    bound = build_report(square, frame, d)["center"]["curvature_bound"]
    assert c.m == 0.0 and abs(bound - math.pi ** 2 / 4) < 1e-13


def test_square_coordinates_do_not_depend_on_its_placement(rng):
    # rotations, a scale, a shift, reversed order and labels rotated by two:
    # kappa is rounding noise about 0 each time, which is m = 0 and no relabel
    base_frame, base, d = _setup(SQUARE)
    assert (base.m, base.k, base_frame.relabeled) == (0.0, 0.0, False)
    k_base = gauss_curvature(0.0 + 0.0j, d) * abs(base_frame.scale) ** 2
    pts = [complex(*v) for v in SQUARE]
    for theta in np.linspace(0.1, 2.0 * math.pi, 13):
        a = 3.7 * complex(math.cos(theta), math.sin(theta))
        b = complex(*rng.normal(size=2)) * 10.0
        moved = [a * v + b for v in pts]
        for order in (moved, moved[::-1], moved[2:] + moved[:2]):
            frame, c, d = _setup(order)
            assert c.m == 0.0 and not frame.relabeled, (theta, order)
            assert abs(c.k) < 1e-12 and abs(c.j - base.j) < 1e-12
            # the curvature in the input's frame, times the scale squared
            curv = gauss_curvature(0.0 + 0.0j, d) * abs(frame.scale) ** 2
            assert abs(curv * abs(a) ** 2 - k_base) < 1e-12 * abs(k_base)


def test_square_validation_does_not_depend_on_its_scale():
    # the area, crossing and side-sum tests run at unit diameter; at 8e307
    # the side sums overflow, and the residual is the unit one times 1.6e308
    for s in (1e-200, 1e-150, 1e150, 1e200, 8e307):
        q = validate_quadrilateral([(s * x, s * y) for x, y in SQUARE])
        assert (q.vertices, q.pitot_residual) == (tuple(s * complex(*v) for v in SQUARE), 0)
    assert validate_quadrilateral(SQUARE, tol_pitot=0.0).pitot_residual == 0.0


def test_wide_draws_are_recovered_not_refused():
    # m in [0, 1.5), j log-uniform in [0.02, 14], k in [-14, 14]: vertices
    # up to e^28 from the origin, where (|z+1| - |z-1|)/2 cancels (the two
    # listed triples put a vertex 6.2e9 and 1.8e9 away).  Every draw passes
    # the side-sum test and recovers (m, s, t) to rounding
    gen = np.random.default_rng(2020)
    draws = [(1.3346163029070726, -2.6588020611235557, -23.23535187162935),
             (0.3857, 22.0, -1.72)]
    for _ in range(200):
        m, k = gen.uniform(0.0, 1.5), gen.uniform(-14.0, 14.0)
        j = math.exp(gen.uniform(math.log(0.02), math.log(14.0)))
        draws.append((m, k + j, k - j))
    for m, s, t in draws:
        _, _, c, _ = build_case(m, s, t)
        for got, want in ((c.m, m), (c.s, max(s, t)), (c.t, min(s, t))):
            assert abs(got - want) <= 1e-13 * abs(want), ((m, s, t), c)


def test_hyperbola_point_domain():
    # m = 0 is the imaginary axis (m < 0 and m >= pi/2: tests/test_refusals.py)
    assert hyperbola_point(0.0, 1.0) == 1j * math.sinh(1.0)
    pt = hyperbola_point(0.3, -0.7)
    assert pt.real > 0  # sin(m) > 0 branch
    # focal-distance difference is 2 sin m for every rapidity
    assert abs((abs(pt + 1) - abs(pt - 1)) - 2 * math.sin(0.3)) < 1e-14


def test_input_accepts_pairs_and_complex():
    qa = validate_quadrilateral([-1 + 0j, ZV, 1 + 0j, WV])
    pairs = [(-1, 0), (ZV.real, ZV.imag), (1, 0), (WV.real, WV.imag)]
    qb = validate_quadrilateral(pairs)
    # the rows of a (4, 2) array, and a list of them, are pairs too
    for rows in (np.array(pairs), list(np.array(pairs))):
        assert validate_quadrilateral(rows).vertices == qa.vertices
    assert qa.vertices == qb.vertices
    assert qa.perimeter() == pytest.approx(qb.perimeter())
