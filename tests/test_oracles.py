"""The numeric oracles, checked on problems with known answers."""

import math

import numpy as np
import pytest

from scherk import (NewtonDiverged, ToleranceNotMet, adaptive_quad,
                    fd_laplacian, fd_mixed, harmonic_map, kernel_K,
                    newton_invert, numeric_residue, poisson_extension,
                    step_boundary)
from scherk import oracles
from scherk.analysis import gauss_curvature
from scherk.checks import CHECKS
from scherk.oracles import (ABS_TOL, MAX_DEPTH, N_NODES, TAYLOR_ORDER,
                            kernel_contour_height, taylor)


def test_adaptive_quad_polynomial():
    assert abs(adaptive_quad(lambda x: x ** 5, 0.0, 1.0) - 1 / 6) < 1e-14


def test_adaptive_quad_complex_integrand():
    val = adaptive_quad(lambda t: np.exp(1j * t), 0.0, math.pi)
    assert abs(val - 2j) < 1e-12


def test_adaptive_quad_needle():
    # narrow Lorentzian forces subdivision
    val = adaptive_quad(lambda x: 1.0 / (1.0 + 2500.0 * (x - 0.3) ** 2),
                        0.0, 1.0)
    want = (math.atan(50 * 0.7) + math.atan(50 * 0.3)) / 50.0
    assert abs(val - want) < 1e-9


def test_adaptive_quad_depth_limit():
    # the integrable x^-0.9 spike at 1e-300 outlasts the halving depth
    with pytest.raises(ToleranceNotMet):
        adaptive_quad(lambda x: x ** -0.9, 1e-300, 1.0)


def test_poisson_extension_of_constant_boundary():
    sb = (((0.0, 2.0), 3.0 - 1.0j),
          ((2.0, 4.0), 3.0 - 1.0j),
          ((4.0, 2 * math.pi), 3.0 - 1.0j))
    for z in (0.0, 0.3 + 0.4j, -0.7j):
        assert abs(poisson_extension(z, sb) - (3.0 - 1.0j)) < 1e-10


def test_poisson_extension_mean_value_at_origin():
    sb = (((0.0, math.pi), 2.0), ((math.pi, 2 * math.pi), -1.0j))
    want = (math.pi * 2.0 + math.pi * -1.0j) / (2 * math.pi)
    assert abs(poisson_extension(0.0, sb) - want) < 1e-10


def test_numeric_residue_simple_poles():
    fn = lambda z: 2.0 / (z - 1j) + 1.0 / (z + 2.0)
    assert abs(numeric_residue(fn, 1j) - 2.0) < 1e-10
    assert abs(numeric_residue(fn, -2.0) - 1.0) < 1e-10


def test_numeric_residue_with_analytic_part():
    fn = lambda z: -3.5j / (z - 0.5) + np.exp(z) * z ** 2
    assert abs(numeric_residue(fn, 0.5) + 3.5j) < 1e-9


class _Recorder:
    """Integrand wrapper that records the argument of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.args = []

    def __call__(self, x):
        self.args.append(x)
        return self.fn(x)


def test_quadrature_calls_fn_on_node_arrays():
    # each call gets the nodes of whole panels, one column per panel
    rec = _Recorder(np.cos)
    assert abs(adaptive_quad(rec, 0.0, 1.0) - math.sin(1.0)) < 1e-14
    assert rec.args
    for x in rec.args:
        assert isinstance(x, np.ndarray) and x.ndim == 2
        assert x.shape[0] == N_NODES and x.shape[1] >= 1


def test_adaptive_quad_evaluates_each_panel_once():
    # a degree-5 polynomial is exact on every panel: whole, then left and
    # right in one call
    rec = _Recorder(lambda x: x ** 5)
    adaptive_quad(rec, 0.0, 1.0)
    assert len(rec.args) == 2
    panels = [tuple(col) for x in rec.args for col in x.T]
    assert len(panels) == 3 and len(set(panels)) == 3


def _recursive_quad(fn, a, b):
    """Depth-first reference: adaptive_quad as it was before it refined
    level by level, one fn call per panel on that panel's nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(N_NODES)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(w * v for w, v in zip(weights, fn(mid + half * nodes)))

    def refine(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        if abs(whole - (left + right)) < ABS_TOL:
            return left + right
        if depth >= MAX_DEPTH:
            raise ToleranceNotMet(
                f"quadrature stalled on [{a}, {b}] at depth {depth}")
        return (refine(a, mid, left, depth + 1)
                + refine(mid, b, right, depth + 1))

    return refine(a, b, panel(a, b), 0)


def _poisson_reference(z, arcs):
    """poisson_extension at one point, on the depth-first reference."""
    z = complex(z)
    r2 = abs(z) ** 2
    total = 0.0 + 0.0j
    for (lo, hi), value in arcs:
        total += value * _recursive_quad(
            lambda t: (1.0 - r2) / abs(np.exp(1j * t) - z) ** 2, lo, hi)
    return total / (2.0 * math.pi)


def test_level_wise_quad_is_bitwise_the_recursion():
    needle = lambda x: 1.0 / (1.0 + 2500.0 * (x - 0.3) ** 2)
    wave = lambda x: np.exp(40j * x) * needle(x)
    for fn in (needle, wave):
        rec = _Recorder(fn)
        got = adaptive_quad(rec, 0.0, 1.0)
        assert len(rec.args) >= 4   # the whole panel and three levels
        assert got == _recursive_quad(fn, 0.0, 1.0)


def test_quad_depth_limit_matches_recursion():
    fn = lambda x: x ** -0.9
    with pytest.raises(ToleranceNotMet) as level_wise:
        adaptive_quad(fn, 1e-300, 1.0)
    with pytest.raises(ToleranceNotMet) as recursive:
        _recursive_quad(fn, 1e-300, 1.0)
    assert str(level_wise.value) == str(recursive.value)
    assert str(level_wise.value).endswith(f"at depth {MAX_DEPTH}")


def test_poisson_extension_points_are_bitwise_the_recursion(case1, case2):
    # the three points of the verify check and one near the boundary
    pts = np.array([0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j,
                    0.95 * np.exp(2.1j)])
    for _, _, _, d in (case1, case2):
        sb = step_boundary(d)
        got = poisson_extension(pts, sb)
        assert got.shape == pts.shape
        for z, value in zip(pts, got):
            assert value == _poisson_reference(z, sb)
            assert poisson_extension(z, sb) == value


def test_contour_height_array_is_bitwise_per_point(case1, rng):
    _, _, _, d = case1
    pts = 0.85 * np.sqrt(rng.uniform(size=6)) * np.exp(
        2j * math.pi * rng.uniform(size=6))
    got = kernel_contour_height(pts.reshape(2, 3), d)
    assert got.shape == (2, 3)
    for z, h in zip(pts, got.ravel()):
        assert h == kernel_contour_height(z, d)
        assert h == 2.0 * _recursive_quad(
            lambda tau: kernel_K(tau * z, d) * z, 0.0, 1.0).imag


def test_scalar_points_give_scalars(case1):
    _, _, _, d = case1
    value = poisson_extension(0.3 + 0.2j, step_boundary(d))
    height = kernel_contour_height(0.3 + 0.2j, d)
    assert isinstance(value, complex) and np.ndim(value) == 0
    assert isinstance(height, float) and np.ndim(height) == 0


def test_numeric_residue_one_call_per_radius():
    rec = _Recorder(lambda z: 2.0 / (z - 1j))
    numeric_residue(rec, 1j)
    assert len(rec.args) == 2
    assert all(isinstance(z, np.ndarray) and z.shape == (64,)
               for z in rec.args)


def _one_pole_residue(fn, pole, n_angles=64, eps=(1e-4, 1e-5)):
    """numeric_residue as it was before it took arrays of poles."""
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles

    def mean(radius):
        zs = pole + radius * np.exp(1j * angles)
        return ((zs - pole) * fn(zs)).mean()

    e1, e2 = eps
    return (e1 * mean(e2) - e2 * mean(e1)) / (e1 - e2)


def test_numeric_residue_pole_array_is_bitwise_per_pole(sweep_cases):
    for _, _, _, d in sweep_cases[:40]:
        rec = _Recorder(lambda z: kernel_K(z, d))
        got = numeric_residue(rec, np.array(d.poles))
        assert len(rec.args) == 2
        assert all(z.shape == (4, 64) for z in rec.args)
        for pole, res in zip(d.poles, got):
            assert res == numeric_residue(lambda z: kernel_K(z, d), pole)
            assert res == _one_pole_residue(lambda z: kernel_K(z, d), pole)


def test_numeric_residue_matches_scalar_loop(case1):
    # reference: the same Richardson circle mean, one scalar call per point
    _, _, _, d = case1

    def scalar_residue(pole, n_angles=64, eps=(1e-4, 1e-5)):
        def mean(radius):
            vals = []
            for k in range(n_angles):
                z = pole + radius * complex(math.cos(2 * math.pi * k / n_angles),
                                            math.sin(2 * math.pi * k / n_angles))
                vals.append((z - pole) * complex(kernel_K(z, d)))
            return sum(vals) / n_angles

        e1, e2 = eps
        return (e1 * mean(e2) - e2 * mean(e1)) / (e1 - e2)

    for pole in d.poles:
        got = numeric_residue(lambda z: kernel_K(z, d), pole)
        assert abs(got - scalar_residue(pole)) < 1e-12


def test_fd_laplacian_known_fields():
    assert abs(fd_laplacian(lambda z: (z ** 2).real, 0.3 + 0.1j)) < 1e-9
    assert abs(fd_laplacian(lambda z: abs(z) ** 2, 0.3 + 0.1j) - 4.0) < 1e-8


def test_fd_laplacian_one_call_on_stencil_array():
    rec = _Recorder(lambda z: abs(z) ** 2)
    fd_laplacian(rec, 0.3 + 0.1j)
    assert len(rec.args) == 1
    assert isinstance(rec.args[0], np.ndarray) and rec.args[0].shape == (5,)


def test_fd_mixed_known_fields():
    # the cross stencil is exact for these polynomials; the bound below is
    # the rounding-noise floor of the O(h^2)-scaled cancellation
    assert abs(fd_mixed(lambda z: z.real * z.imag, 0.2 + 0.7j) - 1.0) < 1e-8
    got = fd_mixed(lambda z: (z.real * z.imag) ** 2, 0.5 + 0.5j)
    assert abs(got - 4 * 0.5 * 0.5) < 1e-6


def test_newton_inverts_harmonic_map(case1, rng):
    _, _, _, d = case1
    for _ in range(10):
        z = 0.8 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = complex(z)
        w = harmonic_map(z, d)
        z_back = newton_invert(d, w)
        assert abs(z_back - z) < 1e-10


def test_newton_diverges_outside_target(case1):
    _, _, _, d = case1
    with pytest.raises(NewtonDiverged):
        newton_invert(d, 50.0 + 50.0j)


def test_batched_newton_is_bitwise_the_scalar_newton(case1, case2, rng):
    for _, _, _, d in (case1, case2):
        zs = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 12)) \
            * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 12))
        targets = harmonic_map(zs, d)
        roots = newton_invert(d, targets)
        assert roots.shape == targets.shape
        for target, root in zip(targets, roots):
            alone = newton_invert(d, target)
            assert type(alone) is complex
            assert np.array(alone).tobytes() == np.array(root).tobytes()
        grid = newton_invert(d, targets.reshape(3, 4))
        assert grid.tobytes() == roots.tobytes() and grid.shape == (3, 4)


def test_batched_newton_names_each_diverged_point(case1):
    _, _, _, d = case1
    targets = np.array([harmonic_map(0.3 + 0.1j, d), 50.0 + 50.0j,
                        harmonic_map(-0.2j, d)])
    with pytest.raises(NewtonDiverged) as alone:
        newton_invert(d, 50.0 + 50.0j)
    with pytest.raises(NewtonDiverged) as batch:
        newton_invert(d, targets)
    assert str(batch.value) == str(alone.value)
    assert batch.value.notes == [None, str(alone.value), None]
    for i in (0, 2):
        assert batch.value.roots[i] == newton_invert(d, targets[i])


def _center_jet(d):
    """h'(0), g'(0), K(0), K'(0) and h''(0) read off taylor's outer circle."""
    f, T = taylor(d).coeffs[1]
    n0 = TAYLOR_ORDER
    return (f[n0 + 1], f[n0 - 1].conjugate(), 1j * T[n0 + 1], 2j * T[n0 + 2],
            2.0 * f[n0 + 2])


def test_taylor_jet_matches_the_center_closed_forms(sweep_cases,
                                                    near_edge_cases):
    # h'(0), q(0) = K(0)/h'(0), q'(0) from K' = h'' q + h' q' and g'/h' = q^2
    # at 0, against the record's closed forms; and the Gauss curvature of the
    # graph's 2-jet, (u_xx u_yy - u_xy^2)/(1 + |grad u|^2)^2 = 4 (V^2 - |U|^2)
    # /(1 + 4|P|^2)^2, against the Weierstrass form.  q'(0) and the curvature
    # vanish like cos m and cos^2 m as m -> pi/2 while the jet's terms do
    # not, so near the edge their relative error grows by about those factors.
    for cases, qp_rel in ((sweep_cases, 1e-11), (near_edge_cases, 1e-7)):
        for _, _, c, d in cases:
            hp, gp, K, Kp, hpp = _center_jet(d)
            q = K / hp
            assert abs(hp - d.h0_prime) <= 1e-12 * abs(d.h0_prime), c
            assert abs(q - d.q0) <= 1e-12, c
            assert abs((Kp - hpp * q) / hp - d.q0_prime) \
                <= qp_rel * abs(d.q0_prime), c
            assert abs(gp / hp - d.q0 ** 2) <= 1e-12, c
            t = taylor(d)
            curv = (4.0 * (t.V ** 2 - abs(t.U) ** 2)
                    / (1.0 + 4.0 * abs(t.P) ** 2) ** 2)
            k0 = gauss_curvature(0.0 + 0.0j, d)
            assert abs(curv - k0) <= 1e-12 * abs(k0) / math.cos(c.m) ** 2, c


def test_taylor_is_one_evaluation_per_surface(case1, monkeypatch):
    calls = []
    exact = oracles.map_and_height

    def counted(z, d):
        calls.append(np.shape(z))
        return exact(z, d)

    monkeypatch.setattr(oracles, "map_and_height", counted)
    oracles.taylor.cache_clear()
    try:
        for _ in range(3):
            taylor(case1[3])
    finally:
        oracles.taylor.cache_clear()
    assert calls == [(2, oracles.TAYLOR_POINTS)]


def test_harmonicity_row_rejects_a_non_harmonic_term(case1, case2,
                                                     monkeypatch):
    # f + eps |z|^2 or T + eps |z|^2 has Laplacian 4 eps; the mean over
    # |z| = rho moves by eps rho^2, so the two circles disagree by about
    # 0.27 eps, which the row must see at eps = 1e-6
    _, tols, err_of = next(row for row in CHECKS
                           if row[0] == "laplacian_defect_fd")
    exact = oracles.map_and_height
    eps = [0.0, 0.0]

    def perturbed(z, d):
        f, T = exact(z, d)
        return f + eps[0] * abs(z) ** 2, T + eps[1] * abs(z) ** 2

    inner, outer = oracles.TAYLOR_RADII
    monkeypatch.setattr(oracles, "map_and_height", perturbed)
    try:
        for _, frame, _, d in (case1, case2):
            for field in (0, 1):
                eps[:] = [0.0, 0.0]
                eps[field] = 1e-6
                oracles.taylor.cache_clear()
                err = err_of(d, frame, 0)
                assert err > max(tols), (field, err)
                assert abs(err - 1e-6 * (outer ** 2 - inner ** 2)) < 1e-12
    finally:
        oracles.taylor.cache_clear()
