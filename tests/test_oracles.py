"""The numeric oracles, checked on problems with known answers."""

import math

import numpy as np
import pytest

from scherk import (NewtonDiverged, QuadratureConfig, StencilOutOfDomain,
                    ToleranceNotMet, adaptive_quad, composite_quad,
                    fd_laplacian, fd_mixed, harmonic_map, kernel_K,
                    newton_invert, numeric_residue, poisson_extension,
                    step_boundary)
from scherk.oracles import kernel_contour_height


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
    cfg = QuadratureConfig(abs_tol=1e-14, max_depth=6)
    with pytest.raises(ToleranceNotMet):
        adaptive_quad(lambda x: x ** -0.9, 1e-300, 1.0, cfg)


def test_composite_quad_converges_under_halving():
    fn = lambda x: 1.0 / (1.0 + 100.0 * x * x)
    want = math.atan(10.0) / 10.0
    err1 = abs(composite_quad(fn, 0.0, 1.0, 1) - want)
    err2 = abs(composite_quad(fn, 0.0, 1.0, 2) - want)
    err4 = abs(composite_quad(fn, 0.0, 1.0, 4) - want)
    assert err2 < err1 / 4.0
    assert err4 < err2 / 4.0


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
    cfg = QuadratureConfig(n_nodes=7)
    for quad in (lambda fn: adaptive_quad(fn, 0.0, 1.0, cfg),
                 lambda fn: composite_quad(fn, 0.0, 1.0, 3, cfg)):
        rec = _Recorder(np.cos)
        assert abs(quad(rec) - math.sin(1.0)) < 1e-14
        assert rec.args
        for x in rec.args:
            assert isinstance(x, np.ndarray) and x.ndim == 2
            assert x.shape[0] == 7 and x.shape[1] >= 1
    assert [x.shape for x in rec.args] == [(7, 3)]   # composite: one call


def test_adaptive_quad_evaluates_each_panel_once():
    # a degree-5 polynomial is exact on every panel: whole, then left and
    # right in one call
    rec = _Recorder(lambda x: x ** 5)
    adaptive_quad(rec, 0.0, 1.0)
    assert len(rec.args) == 2
    panels = [tuple(col) for x in rec.args for col in x.T]
    assert len(panels) == 3 and len(set(panels)) == 3


def _recursive_quad(fn, a, b, cfg=QuadratureConfig()):
    """Depth-first reference: adaptive_quad as it was before it refined
    level by level, one fn call per panel on that panel's nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(cfg.n_nodes)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(w * v for w, v in zip(weights, fn(mid + half * nodes)))

    def refine(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        if abs(whole - (left + right)) < cfg.abs_tol:
            return left + right
        if depth >= cfg.max_depth:
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
    cfg = QuadratureConfig(abs_tol=1e-14, max_depth=6)
    fn = lambda x: x ** -0.9
    with pytest.raises(ToleranceNotMet) as level_wise:
        adaptive_quad(fn, 1e-300, 1.0, cfg)
    with pytest.raises(ToleranceNotMet) as recursive:
        _recursive_quad(fn, 1e-300, 1.0, cfg)
    assert str(level_wise.value) == str(recursive.value)
    assert str(level_wise.value).endswith("at depth 6")


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
    numeric_residue(rec, 1j, n_angles=64)
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


def test_fd_laplacian_stencil_guard():
    with pytest.raises(StencilOutOfDomain):
        fd_laplacian(lambda z: abs(z) ** 2, 0.9995, h=1e-3, domain_radius=1.0)


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
