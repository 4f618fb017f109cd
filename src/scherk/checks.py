"""The self-check suite behind `scherk verify`.

Every check compares a formula of this package against a route that does
not share code with it (quadrature, Taylor coefficients off two circles,
small-circle residues, Moebius/vertex identities).  CHECKS holds one row
per check, (name, (default_tol, strict_tol), err), in the order verify
prints them; err(d, frame, seed) returns the check's error on the surface
record d built in the normalized frame.  A new check is one more row.
The rows read f, T, h' and g' from one shared pass per record (one
map_and_height and one _derivatives call), each row its own slice.
"""

import cmath
import functools
import math
import sys

import numpy as np

from .analysis import (aligning_rotation, center_mixed_derivative,
                       curvature_bound, gauss_curvature, graph_normal)
from .errors import ScherkError
from .harmonic import _derivatives, step_boundary
from .oracles import (TAYLOR_ORDER, TAYLOR_RADII, kernel_contour_height,
                      numeric_residue, poisson_extension, taylor)
from .weierstrass import gauss_map_q, kernel_K, map_and_height

# The contour and Poisson rows' points, the Jacobian grid, the winding circle.
_POINTS = np.array([0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j])
_GRID = np.outer(np.linspace(0.03, 0.999, 30), np.exp(1j * np.linspace(
    0.0, 2.0 * np.pi, 60, endpoint=False))).ravel()
_CIRCLE = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
GROWTH_RADII = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])


@functools.lru_cache(maxsize=64)
def _seeded_points(seed):
    """The dilatation row's 40 points of |z| < 0.9 drawn from seed (64 kept)."""
    rng = np.random.default_rng(seed)
    r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 40))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 40))


@functools.lru_cache(maxsize=1)
def _values(d):
    """{part: (f, T)} at every point the rows read, from one map_and_height."""
    mids = np.array([0.5 * (lo + hi) for (lo, hi), _ in step_boundary(d)])
    parts = (np.zeros(1, complex), _POINTS, _CIRCLE,
             (1.0 - 1e-6) * np.exp(1j * mids), np.outer(GROWTH_RADII, d.poles))
    fT = map_and_height(np.concatenate([z.ravel() for z in parts]), d)
    cuts = np.cumsum([z.size for z in parts])[:-1]
    return dict(zip(("center", "points", "circle", "mids", "rays"),
                    zip(*(np.split(v, cuts) for v in fT))))


@functools.lru_cache(maxsize=1)
def _primes(d, seed):
    """(h', g') at the seeded points, then on _GRID, from one _derivatives call."""
    return _derivatives(np.concatenate((_seeded_points(seed), _GRID)), d)


def _dilatation(d, frame, seed):
    # dilatation g'/h' is exactly the square of the Moebius Gauss-map factor
    hp, gp = (v[:-_GRID.size] for v in _primes(d, seed))
    return np.max(np.abs(gp / hp - gauss_map_q(_seeded_points(seed), d) ** 2))


def _center_modulus(d, frame, seed):
    c = d.coords
    law = (math.cosh(c.k) - math.cos(c.m)) / (math.cosh(c.k) + math.cos(c.m))
    return abs(abs(d.z0) ** 2 - law)


def _kernel_scale(d, frame, seed):
    # C/(e^{2ip} - 1) collapses to a purely imaginary closed form, over sum cj
    c = d.coords
    key = d.C / (d.e_2ip - 1.0)
    target = -1j * math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (2 * math.pi)
    return abs(key - target) / sum(d.cj)


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
    # growth-scale closed form +-i lam |...|^2, relative to their sum
    return max(abs(r - sg * d.lam * mm) for r, sg, mm in zip(
        d.k_residues, (1j, -1j, 1j, -1j), _split_moduli(d.coords))) / sum(d.cj)


def _height_contour(d, frame, seed):
    return np.max(np.abs(_values(d)["points"][1]
                         - kernel_contour_height(_POINTS, d)))


def growth_slopes(d):
    """Slopes of T against log(1 - r) on the rays r zeta_j, r in GROWTH_RADII,
    toward the four poles: the fit that tends to +-2 cj."""
    heights = _values(d)["rays"][1].reshape(GROWTH_RADII.size, 4)
    return np.polyfit(np.log(1.0 - GROWTH_RADII), heights, 1)[0]


def _growth_fit(d):
    """(slope, closed form +-2 cj, relative error) toward each pole."""
    targets = (2.0 * d.cj[0], -2.0 * d.cj[1], 2.0 * d.cj[2], -2.0 * d.cj[3])
    return [(s, t, abs(s - t) / abs(t)) for s, t in zip(growth_slopes(d), targets)]


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
    # the harmonic map is sense-preserving: |h'|^2 - |g'|^2 > 0
    hp, gp = (v[-_GRID.size:] for v in _primes(d, seed))
    return max(0.0, -float(np.min(np.abs(hp) ** 2 - np.abs(gp) ** 2)))


def _winding(d, frame, seed):
    # the boundary curve winds once around the center
    vals = _values(d)["circle"][0] - d.h0
    winding = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * np.pi)
    return abs(winding - 1.0)


def _poisson(d, frame, seed):
    # the harmonic map vs the Poisson integral of its boundary step
    return np.max(np.abs(_values(d)["points"][0]
                         - poisson_extension(_POINTS, step_boundary(d))))


def _harmonicity(d, frame, seed):
    # f and T harmonic: both circles give the same Taylor coefficients; their
    # difference is weighted by the inner circle's rho^|n|
    n = np.abs(np.arange(-TAYLOR_ORDER, TAYLOR_ORDER + 1))
    return np.max(np.abs(np.subtract(*taylor(d).coeffs)) * TAYLOR_RADII[0] ** n)


def _boundary_steps(d, frame, seed):
    # radial boundary limits hit the step values mid-arc
    limits = _values(d)["mids"][0]
    return max(abs(limit - value)
               for (_, value), limit in zip(step_boundary(d), limits))


CHECKS = (
    ("dilatation_is_moebius_square", (1e-10, 1e-12), _dilatation),
    ("unimodular_factor_modulus", (1e-13, 1e-14),
     lambda d, frame, seed: abs(abs(d.X) - 1.0)),
    ("center_modulus_squared_law", (1e-13, 1e-14), _center_modulus),
    ("kernel_scale_identity", (1e-12, 1e-13), _kernel_scale),
    ("kernel_residues_vs_circle_oracle", (1e-7, 1e-8), _circle_residues),
    # i (c1 - c2 + c3 - c4): the Pitot residual of the sides over 2 pi,
    # relative to c1 + c2 + c3 + c4, the perimeter over 2 pi
    ("kernel_residue_sum", (1e-14, 1e-15),
     lambda d, frame, seed: abs(sum(d.k_residues)) / sum(d.cj)),
    ("kernel_residue_sign_split", (1e-12, 1e-13), _sign_split),
    ("height_vs_contour_quadrature", (1e-8, 1e-9), _height_contour),
    ("height_zero_at_center", (1e-14, 1e-15),
     lambda d, frame, seed: abs(_values(d)["center"][1][0])),
    ("radial_growth_slopes", (5e-3, 1e-3),
     lambda d, frame, seed: max(rel for *_, rel in _growth_fit(d))),
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
     lambda d, frame, seed: abs(_values(d)["center"][0][0] - d.h0)),
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
