"""Acceptance suite: one test per numbered criterion, at fixed tolerances.

Each criterion test checks its closed form against a route that does not
use the constant under test: a numeric oracle, or the Weierstrass factors
h' and q evaluated directly.  Criteria 4, 5 and 9 are each followed by
companion tests that check the same closed forms against the package's
stored constants and its own evaluators; for criteria 3 and 7 those are
verify's center_modulus_squared_law and radial_growth_slopes rows.  The
last test checks that the height over the quadrilateral solves the
minimal-surface equation, and that a rescaled height does not; that is
what fixes the scale and sign of the height-related constants in criteria
4, 5, 7 and 9.
"""

import math
import time

import numpy as np

from conftest import (SEED, build_case, disk_points, graph_height_function,
                      sample_triples, stereographic)
from scherk import (center_mixed_derivative, center_normal,
                    construct_quad, contour_height, dilatation, fd_laplacian,
                    fd_mixed, g_prime, gauss_map_q, graph_normal, h_prime,
                    harmonic_map, height_T, hyperbolic_coordinates, jacobian,
                    kernel_K,
                    normalize, numeric_residue, poisson_extension, residues,
                    scherk_data, step_boundary, validate_quadrilateral)
from scherk.checks import GROWTH_RADII
from scherk.cli import build_report

TWO_PI = 2.0 * math.pi


def _sweep(seed, n):
    """n ScherkData instances from sampled (m, s, t) triples, via the full
    construct/normalize pipeline so orientation and labeling are canonical."""
    gen = np.random.default_rng(seed)
    return [build_case(m, s, t)[3] for m, s, t in sample_triples(gen, n)]


def _hq(d):
    """The height kernel h'(z) q(z) from its two Weierstrass factors.

    Goes through neither the kernel constant C nor the residue table, so
    it is an independent route to kernel_K.
    """
    return lambda z: h_prime(z, d) * gauss_map_q(z, d)


# --------------------------------------------------------------------------
# 1. Harmonic-center reproduction.


def test_criterion_01_harmonic_center_values():
    targets = [
        ((0.3, 1.0, 0.3), 0.299 + 0.552j),
        ((0.3, 1.0, -0.3), 0.234 + 0.255j),
    ]

    def center(m, s, t):
        q = construct_quad(m, s, t)
        frame, _, _ = normalize(q)
        coords = hyperbolic_coordinates(frame.z, frame.w)
        return scherk_data(coords).h0

    center(0.3, 1.0, 0.3)  # warm-up so timing measures steady-state cost
    for (m, s, t), want in targets:
        best = math.inf
        for _ in range(5):
            tic = time.perf_counter()
            c0 = center(m, s, t)
            best = min(best, time.perf_counter() - tic)
        assert abs(c0 - want) < 1e-3, f"c0({m},{s},{t}) = {c0}, want {want}"
        assert best < 0.010, f"center pipeline took {best * 1e3:.2f} ms"


# --------------------------------------------------------------------------
# 2. Dilatation is the square of a unimodular disk automorphism.


def test_criterion_02_dilatation_identity_on_random_quads():
    gen = np.random.default_rng(SEED + 2)
    triples = sample_triples(gen, 20)
    tic = time.perf_counter()
    worst = 0.0
    for m, s, t in triples:
        base = construct_quad(m, s, t).vertices
        a = gen.uniform(0.5, 2.0) * np.exp(1j * gen.uniform(0.0, TWO_PI))
        b = complex(gen.uniform(-3, 3), gen.uniform(-3, 3))
        q = validate_quadrilateral([a * v + b for v in base])
        frame, _, _ = normalize(q)
        d = scherk_data(hyperbolic_coordinates(frame.z, frame.w))
        zs = disk_points(gen, 200, 0.95)
        phi = (zs - d.z0) / (1.0 - zs * np.conj(d.z0))
        target = d.X * phi * phi
        rel = np.abs(dilatation(zs, d) - target) / np.abs(target)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - tic
    assert worst < 1e-10, f"max relative deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


# --------------------------------------------------------------------------
# 3. Unimodularity of X and the closed form for the center modulus.
#
# z0 = -u tanh((k + i m)/2) with |u| = 1, so the ratio
# (cosh k - cos m)/(cosh k + cos m) is |z0|^2 (not |z0|).  The test also
# asserts that z0 is the zero of g' (the double zero of the dilatation), so
# the modulus law is checked at the Moebius center itself and not only on
# the stored constant.


def test_criterion_03_unimodularity_and_center_modulus():
    worst_x = worst_z = worst_g = 0.0
    for d in _sweep(SEED + 3, 1000):
        c = d.coords
        worst_x = max(worst_x, abs(abs(d.X) - 1.0))
        ratio = (math.cosh(c.k) - math.cos(c.m)) / (math.cosh(c.k) + math.cos(c.m))
        worst_z = max(worst_z, abs(abs(d.z0) ** 2 - ratio))
        worst_g = max(worst_g, abs(g_prime(d.z0, d)))
    assert worst_x < 1e-12, f"max ||X|-1| = {worst_x:.3e}"
    assert worst_z < 1e-12, f"max ||z0|^2 - ratio| = {worst_z:.3e}"
    assert worst_g < 1e-12, f"max |g'(z0)| = {worst_g:.3e}"


# --------------------------------------------------------------------------
# 4. Scale identity for the height kernel constant C.
#
# C/(e^{2ip} - 1) = -i cosh j (cos m + cosh k)/(2 pi).  The kernel
# h'q = C (z - z0)(1 - z conj(z0))/((1 - z^2)(e^{2ip} - z^2)) gives
# C = -e^{2ip} h'(0) q(0)/z0, so C is taken from the two Weierstrass
# factors rather than from the stored constant (the companion checks
# that).  A 4 pi denominator would halve the height, which then fails the
# minimal-surface equation (last test).


def test_criterion_04_kernel_scale_identity():
    worst = 0.0
    for d in _sweep(SEED + 4, 1000):
        c = d.coords
        scale = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k))
        C = -d.e_2ip * _hq(d)(0.0) / d.z0
        resid = abs(C / (d.e_2ip - 1.0) + 1j * scale / (2.0 * math.pi))
        worst = max(worst, resid)
    assert worst < 1e-12, f"max residual {worst:.3e}"


def test_criterion_04_companion_kernel_scale_identity_two_pi():
    worst = 0.0
    for d in _sweep(SEED + 4, 1000):
        c = d.coords
        scale = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k))
        resid = abs(d.C / (d.e_2ip - 1.0) + 1j * scale / (2.0 * math.pi))
        worst = max(worst, resid)
    assert worst < 1e-12, f"max residual {worst:.3e}"


# --------------------------------------------------------------------------
# 5. Closed-form kernel residues against the circle-average oracle.
#
# The residues at (1, e^{ip}, -1, -e^{ip}) are +i lam |1 - z0|^2,
# -i lam |1 - z0 e^{-ip}|^2, +i lam |1 + z0|^2 and -i lam |1 + z0 e^{-ip}|^2,
# with lam = cosh j (cos m + cosh k)/(4 pi), not divided by sin p.  The oracle
# averages h'q over circles about each pole, so neither C nor the residue
# table enters; the companion averages kernel_K instead.


def _residue_errors(d, lam, integrand=None):
    integrand = integrand or (lambda z: kernel_K(z, d))
    signs = (1.0, -1.0, 1.0, -1.0)
    mods = (abs(1.0 - d.z0) ** 2, abs(1.0 - d.z0 / d.e_ip) ** 2,
            abs(1.0 + d.z0) ** 2, abs(1.0 + d.z0 / d.e_ip) ** 2)
    closed = [sg * 1j * lam * mm for sg, mm in zip(signs, mods)]
    worst = 0.0
    for pole, want in zip(d.poles, closed):
        got = numeric_residue(integrand, pole)
        worst = max(worst, abs(want - got))
    return worst, abs(sum(closed))


def test_criterion_05_residue_closed_forms_vs_circle_oracle():
    worst = worst_sum = 0.0
    for d in _sweep(SEED + 5, 20):
        err, s = _residue_errors(d, residues(d).lam, _hq(d))
        worst = max(worst, err)
        worst_sum = max(worst_sum, s)
    assert worst_sum < 1e-13, f"max |residue sum| = {worst_sum:.3e}"
    assert worst < 1e-8, f"max pole-wise deviation {worst:.3e}"


def test_criterion_05_companion_residues_without_sin_p_factor():
    worst = worst_sum = 0.0
    for d in _sweep(SEED + 5, 20):
        err, s = _residue_errors(d, residues(d).lam)
        worst = max(worst, err)
        worst_sum = max(worst_sum, s)
    assert worst < 1e-8, f"max pole-wise deviation {worst:.3e}"
    assert worst_sum < 1e-13, f"max |residue sum| = {worst_sum:.3e}"


# --------------------------------------------------------------------------
# 6. Height function against contour quadrature.


def test_criterion_06_height_vs_contour_quadrature(case1, case2):
    gen = np.random.default_rng(SEED + 6)
    for _, _, _, d in (case1, case2):
        for z in disk_points(gen, 50, 0.95):
            closed = height_T(z, d)
            quad = contour_height(z, lambda u: kernel_K(u, d))
            assert abs(closed - quad) < 1e-8, f"z={z}: {closed} vs {quad}"
        assert height_T(0.0, d) == 0.0


# --------------------------------------------------------------------------
# 7. Logarithmic growth slopes at the four boundary poles.
#
# The fitted slopes equal +-2 cj, where cj is the modulus of the residue
# at pole j (criterion 5).  Here the heights come from contour quadrature
# of h'q, so neither C nor the residue table enters; verify's
# radial_growth_slopes row fits height_T on the same radii.
# Measured: within ~0.03% on both cases.  The constants divided by sin p
# miss the same fitted slopes by 1 - sin p (36.6% on case1, 6.2% on
# case2), which the last clause confirms.


def _fitted_slopes(d):
    logs, hq = np.log(1.0 - GROWTH_RADII), _hq(d)
    slopes = []
    for pole in d.poles:
        ts = [contour_height(r * pole, hq) for r in GROWTH_RADII]
        slopes.append(float(np.polyfit(logs, ts, 1)[0]))
    return slopes


def _slope_errors(case, divide_by_sin_p):
    _, _, _, d = case
    tic = time.perf_counter()
    hk = residues(d)
    cs = [c / math.sin(d.p) for c in hk.cj] if divide_by_sin_p else list(hk.cj)
    signs = (1.0, -1.0, 1.0, -1.0)
    fitted = _fitted_slopes(d)
    elapsed = time.perf_counter() - tic
    rels = [abs(got - 2.0 * sg * c) / abs(2.0 * c)
            for got, sg, c in zip(fitted, signs, cs)]
    return max(rels), elapsed


def test_criterion_07_scherk_asymptotic_slopes(case1, case2):
    worst = 0.0
    for case in (case1, case2):
        rel, elapsed = _slope_errors(case, False)
        assert elapsed < 1.0, f"slope fit took {elapsed:.2f} s"
        worst = max(worst, rel)
        rel_sin_p, _ = _slope_errors(case, True)
        assert rel_sin_p > 0.01, (
            f"constants divided by sin p fit within {rel_sin_p:.3e}")
    assert worst < 0.01, f"max relative slope error {worst:.3e}"


# --------------------------------------------------------------------------
# 8. Center curvature closed form and the sharp bound, before and after
#    de-normalization.


def test_criterion_08_center_curvature_and_bound(case1, case2):
    quads = []
    for q, _, _, _ in (case1, case2):
        quads.append(q)
        moved = [(1.5 - 0.5j) * v + (2.0 + 1.0j) for v in q.vertices]
        quads.append(validate_quadrilateral(moved))
    for q in quads:
        frame, _, _ = normalize(q)
        c = hyperbolic_coordinates(frame.z, frame.w)
        rep = build_report(q, frame, scherk_data(c))["center"]
        coth_j = math.cosh(c.j) / math.sinh(c.j)
        closed = (-(math.pi ** 2 / 4.0) * math.cos(c.m) ** 2
                  * coth_j ** 2 / math.cosh(c.k) ** 4)
        assert abs(rep["curvature_normalized"] - closed) < 1e-10, (
            f"normalized curvature {rep['curvature_normalized']} vs {closed}")
        b = q.vertices
        bound = (math.pi ** 2 * math.cos(c.m) ** 2 * coth_j ** 2
                 / (math.cosh(c.k) ** 4 * abs(b[0] - b[2]) ** 2))
        assert abs(rep["curvature_bound"] - bound) < 1e-10
        assert abs(abs(rep["curvature"]) - bound) < 1e-10, (
            f"|K| = {abs(rep['curvature'])} vs bound {bound}")


# --------------------------------------------------------------------------
# 9. Center normal and mixed height derivative, closed forms vs the
#    stereographic route and the finite-difference oracle on T o f^{-1}.
#
# (a) center_normal, the stereographic image of q(0), is
#     (sin m, -cos m tanh k, cos m sech k).
# (b), (d) The mixed derivative d2/du dv of the height over the
#     quadrilateral at the center is -(pi/2) coth j sec m, by the analytic
#     route and by finite differences of T o f^{-1}.  (+(pi/4) coth j sec m
#     is Im d2T/dw2 = -(1/2) d2T/du dv, a different quantity; the height
#     scaled by -1/2 fails the minimal-surface equation, last test.)
# (c) The upward normal of the height graph is
#     (cos m tanh k, -sin m, cos m sech k), against finite differences.


def _fd_graph_frame(d, h=1e-5):
    F = graph_height_function(d)
    w0 = d.h0
    fu = (F(w0 + h) - F(w0 - h)) / (2.0 * h)
    fv = (F(w0 + 1j * h) - F(w0 - 1j * h)) / (2.0 * h)
    norm = math.sqrt(1.0 + fu * fu + fv * fv)
    return F, w0, np.array([-fu / norm, -fv / norm, 1.0 / norm])


def test_criterion_09_center_normal_and_mixed_derivative(case1, case2):
    failures = []
    for label, case in (("case1", case1), ("case2", case2)):
        _, _, c, d = case
        reference_normal = np.array([
            math.sin(c.m),
            -math.cos(c.m) * math.tanh(c.k),
            math.cos(c.m) / math.cosh(c.k),
        ])
        reference_graph_normal = np.array([
            math.cos(c.m) * math.tanh(c.k),
            -math.sin(c.m),
            math.cos(c.m) / math.cosh(c.k),
        ])
        reference_mixed = -(math.pi / 2.0) * (math.cosh(c.j) / math.sinh(c.j)
                                              / math.cos(c.m))
        stereo = np.array(center_normal(d))
        err_a = float(np.max(np.abs(reference_normal - stereo)))
        if err_a >= 1e-10:
            failures.append(f"{label}: normal vs stereographic route {err_a:.3e}")
        route = center_mixed_derivative(d)
        err_b = abs(reference_mixed - route)
        if err_b >= 1e-10:
            failures.append(
                f"{label}: mixed derivative {reference_mixed:.6f} vs "
                f"analytic route {route:.6f} (err {err_b:.3e})")
        F, w0, fd_normal = _fd_graph_frame(d)
        err_c = float(np.max(np.abs(reference_graph_normal - fd_normal)))
        if err_c >= 1e-4:
            failures.append(
                f"{label}: graph normal {np.round(reference_graph_normal, 6)} vs FD "
                f"{np.round(fd_normal, 6)} (err {err_c:.3e})")
        err_d = abs(reference_mixed - fd_mixed(F, w0))
        if err_d >= 1e-4:
            failures.append(
                f"{label}: mixed derivative vs FD oracle err {err_d:.3e}")
    assert not failures, "\n".join(failures)


def test_criterion_09_companion_stereographic_normal(case1, case2):
    # the closed form against the stereographic image of q(0)
    for _, _, _, d in (case1, case2):
        stereo = np.array(stereographic(gauss_map_q(0j, d)))
        assert np.max(np.abs(stereo - np.array(center_normal(d)))) < 1e-10


def test_criterion_09_companion_graph_normal_matches_fd(case1, case2):
    for _, _, _, d in (case1, case2):
        _, _, fd_normal = _fd_graph_frame(d)
        assert np.max(np.abs(np.array(graph_normal(d)) - fd_normal)) < 1e-4


def test_criterion_09_companion_mixed_derivative_route_and_fd(case1, case2):
    for _, _, c, d in (case1, case2):
        closed = -(math.pi / 2.0) * (math.cosh(c.j) / math.sinh(c.j)
                                     / math.cos(c.m))
        route = center_mixed_derivative(d)
        assert abs(route - closed) < 1e-10
        F = graph_height_function(d)
        w0 = d.h0
        assert abs(route - fd_mixed(F, w0)) < 1e-4


# --------------------------------------------------------------------------
# 10. Diffeomorphism evidence: positive Jacobian, unit winding about
#     interior image points, Poisson-extension agreement.


def _winding_about(curve, target):
    rel = curve - target
    dphi = np.angle(rel[1:] / rel[:-1])
    return int(round(float(np.sum(dphi)) / TWO_PI))


def test_criterion_10_diffeomorphism_evidence(case1, case2):
    gen = np.random.default_rng(SEED + 10)
    for _, _, _, d in (case1, case2):
        rr = 0.999 * np.sqrt(np.linspace(1.0 / 100, 1.0, 100))
        th = np.linspace(0.0, TWO_PI, 100, endpoint=False)
        grid = (rr[:, None] * np.exp(1j * th)[None, :]).ravel()
        jac = jacobian(grid, d)
        assert float(np.min(jac)) > 0.0, f"min Jacobian {np.min(jac):.3e}"

        angles = np.linspace(0.0, TWO_PI, 4001)
        curve = harmonic_map((1.0 - 1e-4) * np.exp(1j * angles), d)
        for z in disk_points(gen, 20, 0.9):
            target = harmonic_map(z, d)
            assert _winding_about(curve, target) == 1, f"winding at {z}"

        sb = step_boundary(d)
        for z in disk_points(gen, 5, 0.7):
            err = abs(poisson_extension(z, sb) - harmonic_map(z, d))
            assert err < 1e-6, f"Poisson disagreement {err:.3e} at {z}"


# --------------------------------------------------------------------------
# 11. Harmonicity of the disk map via the finite-difference Laplacian.


def test_criterion_11_harmonicity_fd_laplacian(case1, case2):
    gen = np.random.default_rng(SEED + 11)
    for _, _, _, d in (case1, case2):
        for z in disk_points(gen, 100, 0.7):
            lap_re = fd_laplacian(lambda u: harmonic_map(u, d).real, z, h=1e-3)
            lap_im = fd_laplacian(lambda u: harmonic_map(u, d).imag, z, h=1e-3)
            assert abs(lap_re) < 1e-4, f"Re defect {lap_re:.3e} at {z}"
            assert abs(lap_im) < 1e-4, f"Im defect {lap_im:.3e} at {z}"


# --------------------------------------------------------------------------
# Minimal-surface equation for the height over the quadrilateral, by finite
# differences of T o f^{-1}: the evidence for the scale and sign of the
# height constants above.  A multiple a F of a minimal graph F leaves the
# residual a (a^2 - 1)(F_v^2 F_uu - 2 F_u F_v F_uv + F_u^2 F_vv), which
# vanishes wherever that form does; both points below (the center and
# f(0.3)) are away from such a curve in both cases.


def _mse_residual(F, w, h=1e-3):
    """Relative residual of (1 + F_v^2) F_uu - 2 F_u F_v F_uv + (1 + F_u^2) F_vv
    at w, from a nine-point stencil of half-width h."""
    f = {(i, k): F(w + i * h + 1j * k * h) for i in (-1, 0, 1) for k in (-1, 0, 1)}
    fu = (f[1, 0] - f[-1, 0]) / (2.0 * h)
    fv = (f[0, 1] - f[0, -1]) / (2.0 * h)
    fuu = (f[1, 0] - 2.0 * f[0, 0] + f[-1, 0]) / h ** 2
    fvv = (f[0, 1] - 2.0 * f[0, 0] + f[0, -1]) / h ** 2
    fuv = (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / (4.0 * h ** 2)
    terms = ((1.0 + fv * fv) * fuu, -2.0 * fu * fv * fuv, (1.0 + fu * fu) * fvv)
    return abs(sum(terms)) / sum(abs(t) for t in terms)


def test_minimal_surface_equation_fixes_height_scale(case1, case2):
    for label, case in (("case1", case1), ("case2", case2)):
        _, _, _, d = case
        F = graph_height_function(d)
        for w in (d.h0, complex(harmonic_map(0.3, d))):
            minimal = _mse_residual(F, w)
            assert minimal < 1e-4, f"{label} at {w}: residual {minimal:.3e}"
            scaled = _mse_residual(lambda u: -0.5 * F(u), w)
            assert scaled > 1e-2, (
                f"{label} at {w}: height scaled by -1/2 has residual {scaled:.3e}")


def test_graph_over_the_square_is_scherks_surface():
    # over the square (-1, -i, 1, i) the construction gives Scherk's 1835
    # surface u = (sqrt 2/pi) log(cos Y / cos X), X = (pi/2)(x - y), Y =
    # (pi/2)(x + y); checked on the grid points with |x| + |y| < 0.95 of the
    # square itself and of a rotated, scaled and shifted copy, whose graph is
    # a u((v - b)/a) for v = a w + b
    g = np.linspace(-0.95, 0.95, 21)
    w = (g[:, None] + 1j * g[None, :]).ravel()
    w = w[np.abs(w.real) + np.abs(w.imag) < 0.95]
    X = 0.5 * math.pi * (w.real - w.imag)
    Y = 0.5 * math.pi * (w.real + w.imag)
    scherk = math.sqrt(2.0) / math.pi * np.log(np.cos(Y) / np.cos(X))
    for a, b in ((1.0, 0.0), (2.5 * np.exp(0.7j), 1.0 - 3.0j)):
        q = validate_quadrilateral([a * v + b for v in (-1, -1j, 1, 1j)])
        frame, forward, _ = normalize(q)
        c = hyperbolic_coordinates(frame.z, frame.w)
        assert c.m == 0.0 and abs(c.k) < 1e-14
        d = scherk_data(c)
        heights = graph_height_function(d)(forward(a * w + b)) / abs(frame.scale)
        assert np.max(np.abs(heights - abs(a) * scherk)) <= 1e-10 * abs(a)
