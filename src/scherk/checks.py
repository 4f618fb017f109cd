"""The self-check suite behind `scherk verify`.

Every check compares a formula of this package against a route that does
not share code with it (quadrature, Taylor coefficients off two circles,
small-circle residues, Moebius/vertex identities).  CHECKS holds one row
per check, (name, (default_tol, strict_tol), err), in the order verify
prints them; err(d, frame, seed) returns the check's error on the surface
record d built in the normalized frame.  A new check is one more row.
"""

import cmath
import math
import sys

import numpy as np

from .analysis import (aligning_rotation, center_mixed_derivative,
                       curvature_bound, gauss_curvature, graph_normal)
from .errors import ScherkError
from .harmonic import dilatation, harmonic_map, jacobian, step_boundary
from .oracles import (TAYLOR_ORDER, TAYLOR_RADII, kernel_contour_height,
                      numeric_residue, poisson_extension, taylor)
from .weierstrass import gauss_map_q, height_T, kernel_K

# Interior points of the contour and Poisson checks.
_POINTS = np.array([0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j])


def _dilatation(d, frame, seed):
    # dilatation is exactly the square of the Moebius Gauss-map factor
    rng = np.random.default_rng(seed)
    r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 40))
    th = rng.uniform(0.0, 2.0 * np.pi, 40)
    zs = r * np.exp(1j * th)
    return np.max(np.abs(dilatation(zs, d) - gauss_map_q(zs, d) ** 2))


def _center_modulus(d, frame, seed):
    c = d.coords
    law = (math.cosh(c.k) - math.cos(c.m)) / (math.cosh(c.k) + math.cos(c.m))
    return abs(abs(d.z0) ** 2 - law)


def _kernel_scale(d, frame, seed):
    # C/(e^{2ip} - 1) collapses to a purely imaginary closed form
    c = d.coords
    key = d.C / (d.e_2ip - 1.0)
    target = -1j * math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (2 * math.pi)
    return abs(key - target)


def _circle_residues(d, frame, seed):
    # the residues from the vertex jumps vs C's rational form on small circles
    circle = numeric_residue(lambda u: kernel_K(u, d), np.array(d.poles))
    return max(abs(r - rc) for r, rc in zip(d.k_residues, circle))


def _split_moduli(c):
    """|1 -+ z0|^2, |1 -+ z0 e^{-ip}|^2 = 2 (cosh s -+ sin m), 2 (cosh t +- sin m)
    / (cosh j (cosh k + cos m)); cosh x - sin m as 2 sinh^2(x/2) + 2 sin^2(pi/4
    - m/2) does not cancel as |z0| -> 1."""
    sin_m, den = math.sin(c.m), math.cosh(c.j) * (math.cosh(c.k) + math.cos(c.m))
    rest = math.sin(math.pi / 4.0 - c.m / 2.0) ** 2
    return (4.0 * (math.sinh(c.s / 2.0) ** 2 + rest) / den,
            2.0 * (math.cosh(c.s) + sin_m) / den,
            2.0 * (math.cosh(c.t) + sin_m) / den,
            4.0 * (math.sinh(c.t / 2.0) ** 2 + rest) / den)


def _sign_split(d, frame, seed):
    # the residues from the vertex jumps, of modulus side/(2 pi), vs the
    # growth-scale closed form +-i lam |...|^2
    return max(abs(r - sg * d.lam * mm) for r, sg, mm in
               zip(d.k_residues, (1j, -1j, 1j, -1j), _split_moduli(d.coords)))


def _height_contour(d, frame, seed):
    return np.max(np.abs(height_T(_POINTS, d)
                         - kernel_contour_height(_POINTS, d)))


def _growth_slopes(d, frame, seed):
    # fitted log slopes toward each pole vs +-2 cj
    rs = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])
    slopes = np.polyfit(np.log(1.0 - rs), height_T(np.outer(rs, d.poles), d), 1)[0]
    return max(abs(slope - sg * 2.0 * cjv) / abs(2.0 * cjv)
               for slope, sg, cjv in zip(slopes, (1.0, -1.0, 1.0, -1.0), d.cj))


def _center_curvature(d, frame, seed):
    c = d.coords
    k0 = gauss_curvature(0.0 + 0.0j, d)
    closed = -(math.pi ** 2 / 4.0) * math.cos(c.m) ** 2 \
        / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4)
    return abs(k0 - closed) / abs(closed)


def _bound_attained(d, frame, seed):
    bound = curvature_bound(d, frame)
    attained = abs(gauss_curvature(0.0 + 0.0j, d)) * abs(frame.scale) ** 2
    return abs(attained - bound) / bound


def _graph_normal(d, frame, seed):
    # center normal of the graph vs its gradient (2 Re u_w, -2 Im u_w)
    P = taylor(d).P
    nvec = np.array((-2.0 * P.real, 2.0 * P.imag, 1.0)) / math.sqrt(
        4.0 * abs(P) ** 2 + 1.0)
    return np.max(np.abs(nvec - np.array(graph_normal(d))))


def _jacobian(d, frame, seed):
    # the harmonic map is sense-preserving
    rr = np.linspace(0.03, 0.999, 30)
    th = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    grid = np.outer(rr, np.exp(1j * th)).ravel()
    return max(0.0, -float(np.min(jacobian(grid, d))))


def _winding(d, frame, seed):
    # the boundary curve winds once around the center
    circle = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
    vals = harmonic_map(circle, d) - d.h0
    winding = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * np.pi)
    return abs(winding - 1.0)


def _poisson(d, frame, seed):
    # the harmonic map vs the Poisson integral of its boundary step
    return np.max(np.abs(harmonic_map(_POINTS, d)
                         - poisson_extension(_POINTS, step_boundary(d))))


def _harmonicity(d, frame, seed):
    # f and T harmonic: both circles give the same Taylor coefficients; their
    # difference is weighted by the inner circle's rho^|n|
    n = np.abs(np.arange(-TAYLOR_ORDER, TAYLOR_ORDER + 1))
    return np.max(np.abs(np.subtract(*taylor(d).coeffs)) * TAYLOR_RADII[0] ** n)


def _boundary_steps(d, frame, seed):
    # radial boundary limits hit the step values mid-arc
    arcs = step_boundary(d)
    mids = np.array([0.5 * (lo + hi) for (lo, hi), _ in arcs])
    limits = harmonic_map((1.0 - 1e-6) * np.exp(1j * mids), d)
    return max(abs(limit - value) for (_, value), limit in zip(arcs, limits))


CHECKS = (
    ("dilatation_is_moebius_square", (1e-10, 1e-12), _dilatation),
    ("unimodular_factor_modulus", (1e-13, 1e-14),
     lambda d, frame, seed: abs(abs(d.X) - 1.0)),
    ("center_modulus_squared_law", (1e-13, 1e-14), _center_modulus),
    ("kernel_scale_identity", (1e-12, 1e-13), _kernel_scale),
    ("kernel_residues_vs_circle_oracle", (1e-7, 1e-8), _circle_residues),
    # i (c1 - c2 + c3 - c4): the Pitot residual of the sides over 2 pi
    ("kernel_residue_sum", (1e-14, 1e-15),
     lambda d, frame, seed: abs(sum(d.k_residues))),
    ("kernel_residue_sign_split", (1e-12, 1e-13), _sign_split),
    ("height_vs_contour_quadrature", (1e-8, 1e-9), _height_contour),
    ("height_zero_at_center", (1e-14, 1e-15),
     lambda d, frame, seed: abs(height_T(0.0, d))),
    ("radial_growth_slopes", (5e-3, 1e-3), _growth_slopes),
    ("center_curvature_closed_form", (1e-12, 1e-13), _center_curvature),
    ("curvature_bound_attained", (1e-12, 1e-13), _bound_attained),
    ("graph_normal_vs_fd", (1e-5, 1e-6), _graph_normal),
    ("mixed_derivative_vs_fd", (1e-3, 1e-4), lambda d, frame, seed: abs(
        -2.0 * taylor(d).U.imag - center_mixed_derivative(d))),
    # the aligning rotation really kills the rotated mixed derivative: after
    # rotating the graph by alpha, u_xy is -2 Im(u_ww e^{-2i alpha})
    ("aligned_mixed_derivative_zero", (1e-3, 1e-4), lambda d, frame, seed: abs(
        2.0 * (taylor(d).U * cmath.exp(-2j * aligning_rotation(d))).imag)),
    ("jacobian_positive_on_grid", (0.0, 0.0), _jacobian),
    ("boundary_winding_number", (1e-8, 1e-10), _winding),
    ("poisson_extension_agreement", (1e-6, 1e-8), _poisson),
    ("laplacian_defect_fd", (1e-9, 1e-10), _harmonicity),
    # f(0) equals the closed-form center
    ("center_value_consistency", (1e-14, 1e-15),
     lambda d, frame, seed: abs(harmonic_map(0.0 + 0.0j, d) - d.h0)),
    ("boundary_step_values", (1e-3, 1e-4), _boundary_steps),
)


def run_checks(d, frame, profile="default", seed=0):
    """Run every row of CHECKS; returns (name, err, tol, ok) rows.

    d is the surface record and frame the normalized frame it was built
    in; the two profiles share the checks and differ only in tolerances.
    A check that raises a ScherkError is a FAIL row with err = inf, and a
    note naming the check and the error goes to stderr.
    """
    pick = 0 if profile == "default" else 1
    rows = []
    for name, tols, err_of in CHECKS:
        try:
            err = float(err_of(d, frame, seed))
        except ScherkError as exc:
            print(f"note: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            err = math.inf
        rows.append((name, err, tols[pick], err <= tols[pick]))
    return rows
