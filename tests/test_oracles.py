"""The numeric oracles, checked on problems with known answers."""

import math

import numpy as np
import pytest

from scherk import (NewtonDiverged, ToleranceNotMet, adaptive_quad,
                    dilatation, fd_laplacian, fd_mixed, gauss_map_q,
                    harmonic_map, height_T, hyperbolic_coordinates, jacobian,
                    kernel_K, newton_invert, normalize, numeric_residue,
                    poisson_extension, scherk_data, step_boundary,
                    validate_quadrilateral)
from scherk import oracles
from scherk.analysis import gauss_curvature
from scherk.checks import CHECKS, evaluate, growth_fit, run_checks
from scherk.oracles import (ABS_TOL, MAX_DEPTH, N_NODES, TAYLOR_ORDER,
                            kernel_contour_height, taylor)
from conftest import Spy, assert_same_bits


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
    assert abs(numeric_residue(fn, 1j) - 2.0) < 1e-15
    assert abs(numeric_residue(fn, -2.0) - 1.0) < 1e-15


def test_numeric_residue_with_analytic_part():
    fn = lambda z: -3.5j / (z - 0.5) + np.exp(z) * z ** 2
    assert abs(numeric_residue(fn, 0.5) + 3.5j) < 1e-15


def test_quadrature_calls_fn_on_node_arrays():
    # each call gets the nodes of whole panels, one column per panel
    rec = Spy(np.cos)
    assert abs(adaptive_quad(rec, 0.0, 1.0) - math.sin(1.0)) < 1e-14
    assert rec.calls
    for (x,) in rec.calls:
        assert isinstance(x, np.ndarray) and x.ndim == 2
        assert x.shape[0] == N_NODES and x.shape[1] >= 1


def test_adaptive_quad_evaluates_each_panel_once():
    # a degree-5 polynomial is exact on every panel: the whole, its left
    # and its right half, all in one call
    rec = Spy(lambda x: x ** 5)
    adaptive_quad(rec, 0.0, 1.0)
    assert len(rec.calls) == 1
    panels = [tuple(col) for col in rec.calls[0][0].T]
    assert len(panels) == 3 and len(set(panels)) == 3


def test_gauss_legendre_constants_are_bitwise_leggauss():
    nodes, weights = oracles._GL
    want = np.polynomial.legendre.leggauss(N_NODES)
    assert_same_bits(nodes, want[0])
    assert_same_bits(weights, want[1])


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
        rec = Spy(fn)
        got = adaptive_quad(rec, 0.0, 1.0)
        assert len(rec.calls) >= 4   # the root and its halves, three levels
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


def test_contour_height_array_is_bitwise_per_point(case1, rng):
    _, _, _, d = case1
    pts = 0.85 * np.sqrt(rng.uniform(size=6)) * np.exp(
        2j * math.pi * rng.uniform(size=6))
    got = kernel_contour_height(pts.reshape(2, 3), d)
    assert got.shape == (2, 3)
    for z, h in zip(pts, got.ravel()):
        assert h == 2.0 * _recursive_quad(
            lambda tau: kernel_K(tau * z, d) * z, 0.0, 1.0).imag


def test_numeric_residue_one_call_on_circle_points():
    # one pole's 64 circle points in one call
    rec = Spy(lambda z: 2.0 / (z - 1j))
    numeric_residue(rec, 1j)
    assert len(rec.calls) == 1
    assert isinstance(rec.calls[0][0], np.ndarray)
    assert rec.calls[0][0].shape == (64,)


def _one_pole_residue(fn, pole, n_angles=64, radius=1e-4):
    """numeric_residue as it was before it took arrays of poles."""
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    zs = pole + radius * np.exp(1j * angles)
    return ((zs - pole) * fn(zs)).mean()


def test_numeric_residue_pole_array_is_bitwise_per_pole(sweep_cases):
    for _, _, _, d in sweep_cases[:40]:
        rec = Spy(lambda z: kernel_K(z, d))
        got = numeric_residue(rec, np.array(d.poles))
        assert len(rec.calls) == 1 and rec.calls[0][0].shape == (4, 64)
        for pole, res in zip(d.poles, got):
            assert res == _one_pole_residue(lambda z: kernel_K(z, d), pole)
        # one circle leaves only its rounding; a second, smaller circle's
        # rounding, amplified by extrapolation, reached 8.6e-13 of max cj
        assert max(abs(got - d.k_residues)) <= 2e-13 * max(d.cj)


def test_numeric_residue_matches_scalar_loop(case1):
    # reference: the same circle mean, one scalar call per point
    _, _, _, d = case1

    def scalar_residue(pole, n_angles=64, radius=1e-4):
        vals = []
        for k in range(n_angles):
            z = pole + radius * complex(math.cos(2 * math.pi * k / n_angles),
                                        math.sin(2 * math.pi * k / n_angles))
            vals.append((z - pole) * complex(kernel_K(z, d)))
        return sum(vals) / n_angles

    for pole in d.poles:
        got = numeric_residue(lambda z: kernel_K(z, d), pole)
        assert abs(got - scalar_residue(pole)) < 1e-12


def test_fd_laplacian_known_fields():
    assert abs(fd_laplacian(lambda z: (z ** 2).real, 0.3 + 0.1j)) < 1e-9
    assert abs(fd_laplacian(lambda z: abs(z) ** 2, 0.3 + 0.1j) - 4.0) < 1e-8


def test_fd_laplacian_one_call_on_stencil_array():
    rec = Spy(lambda z: abs(z) ** 2)
    fd_laplacian(rec, 0.3 + 0.1j)
    assert len(rec.calls) == 1
    assert isinstance(rec.calls[0][0], np.ndarray) and rec.calls[0][0].shape == (5,)


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
    # at 0, against the record's closed forms and gauss_map_q(0); and the
    # Gauss curvature of the graph's 2-jet, (u_xx u_yy - u_xy^2)/(1 +
    # |grad u|^2)^2 = 4 (V^2 - |U|^2)/(1 + 4|P|^2)^2, against the Weierstrass
    # form.  q'(0) and the curvature vanish like cos m and cos^2 m as
    # m -> pi/2 while the jet's terms do not, so near the edge their relative
    # error grows by about those factors.
    for cases, qp_rel in ((sweep_cases, 1e-11), (near_edge_cases, 1e-7)):
        for _, _, c, d in cases:
            hp, gp, K, Kp, hpp = _center_jet(d)
            q, q0 = K / hp, gauss_map_q(0j, d)
            assert abs(hp - d.h0_prime) <= 1e-12 * abs(d.h0_prime), c
            assert abs(q - q0) <= 1e-12, c
            assert abs((Kp - hpp * q) / hp - d.q0_prime) \
                <= qp_rel * abs(d.q0_prime), c
            assert abs(gp / hp - q0 ** 2) <= 1e-12, c
            t = taylor(d)
            curv = (4.0 * (t.V ** 2 - abs(t.U) ** 2)
                    / (1.0 + 4.0 * abs(t.P) ** 2) ** 2)
            k0 = gauss_curvature(0.0 + 0.0j, d)
            assert abs(curv - k0) <= 1e-12 * abs(k0) / math.cos(c.m) ** 2, c


def _per_row_errs(d):
    """The shared-pass rows' errs, the growth fit and the Jacobian on the
    spiral, each row evaluating its own points with the public harmonic_map,
    height_T, dilatation and jacobian, one call per row."""
    # the Vogel spiral r = 0.9 sqrt((i + 1/2)/40), theta = i pi (3 - sqrt 5)
    i = np.arange(40)
    zs = 0.9 * np.sqrt((i + 0.5) / 40) * np.exp(
        1j * np.pi * (3.0 - np.sqrt(5.0)) * i)
    points = np.array([0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j])
    circle = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
    vals = harmonic_map(circle, d) - d.h0
    arcs = step_boundary(d)
    mids = np.array([0.5 * (lo + hi) for (lo, hi), _ in arcs])
    limits = harmonic_map((1.0 - 1e-6) * np.exp(1j * mids), d)
    rs = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])
    slopes = np.polyfit(np.log(1.0 - rs),
                        height_T(np.outer(rs, d.poles), d), 1)[0]
    jac = jacobian(zs, d)
    errs = {
        "dilatation_is_moebius_square": np.max(np.abs(
            dilatation(zs, d) - gauss_map_q(zs, d) ** 2)),
        "height_vs_contour_quadrature": np.max(np.abs(
            height_T(points, d) - kernel_contour_height(points, d))),
        "radial_growth_slopes": max(
            abs(slope - sg * 2.0 * cjv) / abs(2.0 * cjv) for slope, sg, cjv
            in zip(slopes, (1.0, -1.0, 1.0, -1.0), d.cj)),
        "jacobian_positive_on_grid": max(0.0, -float(np.min(jac))),
        "boundary_winding_number": abs(float(np.sum(np.angle(
            vals[1:] / vals[:-1]))) / (2.0 * np.pi) - 1.0),
        "poisson_extension_agreement": np.max(np.abs(
            harmonic_map(points, d) - poisson_extension(points, arcs))),
        "boundary_step_values": max(
            abs(limit - value) for (_, value), limit in zip(arcs, limits))
        / max(abs(value) for _, value in arcs),
    }
    return errs, slopes, jac


def _square():
    q = validate_quadrilateral([-1.0, -1j, 1.0, 1j])
    frame, _, _ = normalize(q)
    return scherk_data(hyperbolic_coordinates(frame.z, frame.w))


@pytest.mark.parametrize("seed", [0, 5])
def test_shared_pass_rows_are_bitwise_the_per_row_route(case1, case2, seed):
    from conftest import build_case, sample_triples
    # the verify points are fixed; the seed draws one more surface
    m, s, t = sample_triples(np.random.default_rng(seed), 1)[0]
    surfaces = [case1[3], case2[3], _square(),
                build_case(0.7, 7.5, 6.5)[3],   # Scherk's square, k = 7
                build_case(m, s, t)[3]]
    for d in surfaces:
        errs, slopes, jac = _per_row_errs(d)
        rows = {name: err_of for name, _, err_of in CHECKS}
        ev = evaluate(d)
        for name, want in errs.items():
            got = rows[name](d, ev)
            assert float(got) == float(want), (name, d.coords, got, want)
        # the Jacobian row's err is 0.0 on both routes; the values it reads are
        # jacobian's bits on the same 40 points
        assert np.array_equal(np.abs(ev["hp"]) ** 2 - np.abs(ev["gp"]) ** 2,
                              jac), d.coords
        fit = growth_fit(d, ev["rays"][1])
        assert np.array_equal([s for s, *_ in fit], slopes), d.coords


def test_verify_rows_keep_nothing_between_records(case1, case2):
    # back to back, each record gets its own evaluation
    d1, d2 = case1[3], case2[3]
    first, second, again = run_checks(d1), run_checks(d2), run_checks(d1)
    assert again == first != second
