"""The self-check suite behind `scherk verify`.

Every check compares a formula of this package against a route that does
not share code with it (quadrature, Taylor coefficients off two circles,
small-circle residues, Moebius/vertex identities).  CHECKS holds one row
per check, (name, (default_tol, strict_tol), err), in the order verify
prints them; err(d, ev) returns the check's error on the surface record d
from its slice of ev = evaluate(d), which run_checks builds once per call,
all in the normalized frame that d was built in.  A new check is one more
row; none reads f(0) = h0 or T(0) = 0, which hold by construction.
"""

import cmath
import math
import sys

import numpy as np

from .analysis import (aligning_rotation, center_mixed_derivative,
                       curvature_bound, gauss_curvature, graph_normal)
from .errors import OutOfDomain, ScherkError
from .harmonic import _derivatives, step_boundary
from .oracles import (TAYLOR_RADII, TAYLOR_Z, _N, _jet,
                      kernel_contour_height, numeric_residue,
                      poisson_extension)
from .params import gauss_map_q
from .weierstrass import kernel_K, map_and_height

# The contour and Poisson rows' points, the winding circle, and the 40 points
# of |z| < 0.9 on a Vogel spiral where the dilatation and Jacobian rows read
# h' and g'.
_POINTS = np.array([0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j])
_CIRCLE = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
_SPIRAL = 0.9 * np.sqrt((np.arange(40) + 0.5) / 40) * np.exp(
    1j * np.pi * (3.0 - np.sqrt(5.0)) * np.arange(40))
# the inner Taylor circle's rho^|n|, which weights the harmonicity row
_INNER_WEIGHTS = TAYLOR_RADII[0] ** np.abs(_N)
GROWTH_RADII = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])


def growth_rays(d):
    """(GROWTH_RADII, the 13 x 4 points r zeta_j toward the poles of d)."""
    return GROWTH_RADII, np.outer(GROWTH_RADII, d.poles)


def evaluate(d):
    """What the rows read on d, all from one f/T and one h'/g' evaluation.

    One map_and_height call on 908 points gives {part: (f, T)} on "points"
    (_POINTS), "circle" (_CIRCLE), "mids" (1 - 1e-6 in from the arc
    midpoints) and "rays" (growth_rays(d)), and "jet", taylor(d) bit for bit,
    from its last 2 x 64 points, TAYLOR_Z.  "hp", "gp" are h', g' on the 40
    points of _SPIRAL from one _derivatives call, and "arcs" is
    step_boundary(d).
    """
    arcs = step_boundary(d)
    mids = np.array([0.5 * (lo + hi) for (lo, hi), _ in arcs])
    parts = (_POINTS, _CIRCLE, (1.0 - 1e-6) * np.exp(1j * mids),
             growth_rays(d)[1], TAYLOR_Z)
    f, T = map_and_height(np.concatenate([z.ravel() for z in parts]), d)
    ev, lo = {"arcs": arcs}, 0
    for name, z in zip(("points", "circle", "mids", "rays"), parts):
        ev[name], lo = (f[lo:lo + z.size], T[lo:lo + z.size]), lo + z.size
    ev["jet"] = _jet(f[lo:].reshape(TAYLOR_Z.shape),
                     T[lo:].reshape(TAYLOR_Z.shape))
    ev["hp"], ev["gp"] = _derivatives(_SPIRAL, d)
    return ev


def _dilatation(d, ev):
    # dilatation g'/h' is exactly the square of the Moebius Gauss-map factor
    return np.max(np.abs(ev["gp"] / ev["hp"] - gauss_map_q(_SPIRAL, d) ** 2))


def _center_modulus(d, ev):
    c = d.coords
    law = (math.cosh(c.k) - math.cos(c.m)) / (math.cosh(c.k) + math.cos(c.m))
    return abs(abs(d.z0) ** 2 - law)


def _kernel_scale(d, ev):
    # C/(e^{2ip} - 1) collapses to a purely imaginary closed form, over sum
    # cj; 2i sin p e^{ip} = e^{2ip} - 1 does not cancel as p -> 0
    c = d.coords
    key = d.C / (2j * d.e_ip.imag * d.e_ip)
    target = -1j * math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (2 * math.pi)
    return abs(key - target) / sum(d.cj)


def _circle_residues(d, ev):
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


def _sign_split(d, ev):
    # the residues from the vertex jumps, of modulus cj = side/(2 pi), vs the
    # growth-scale closed form +-i lam |...|^2, each relative to its own cj
    return max(abs(r - sg * d.lam * mm) / cj for r, sg, mm, cj in zip(
        d.k_residues, (1j, -1j, 1j, -1j), _split_moduli(d.coords), d.cj))


def _height_contour(d, ev):
    return np.max(np.abs(ev["points"][1] - kernel_contour_height(_POINTS, d)))


def growth_fit(d, heights):
    """(slope, closed form +-2 cj, relative error) toward each pole.

    heights are T on the 13 x 4 points of growth_rays(d), in their order;
    the slope is that of T against log(1 - r), the fit that tends to +-2 cj.
    """
    slopes = np.polyfit(np.log(1.0 - GROWTH_RADII),
                        np.reshape(heights, (GROWTH_RADII.size, 4)), 1)[0]
    targets = (2.0 * d.cj[0], -2.0 * d.cj[1], 2.0 * d.cj[2], -2.0 * d.cj[3])
    return [(s, t, abs(s - t) / abs(t)) for s, t in zip(slopes, targets)]


def _bound_attained(d, ev):
    bound = curvature_bound(d)
    return abs(abs(gauss_curvature(0.0 + 0.0j, d)) - bound) / bound


def _graph_normal(d, ev):
    # center normal of the graph vs its gradient (2 Re u_w, -2 Im u_w)
    P = ev["jet"].P
    nvec = np.array((-2.0 * P.real, 2.0 * P.imag, 1.0)) / math.sqrt(
        4.0 * abs(P) ** 2 + 1.0)
    return np.max(np.abs(nvec - np.array(graph_normal(d))))


def _jacobian(d, ev):
    # the harmonic map is sense-preserving, J = |h'|^2 - |g'|^2 > 0 on the
    # whole disk; three rows and one test certify it, so no grid samples it:
    # - g' = q^2 h' (dilatation_is_moebius_square).  Over the poles' product
    #   (1 - z^2)(e^{2ip} - z^2) the numerators of h' and g' have degree <= 2,
    #   since each residue set sums to 0, so g'(1 - z conj z0)^2
    #   - X (z - z0)^2 h' has a numerator of degree <= 4: zero at 5 of the
    #   row's 40 points, it is zero everywhere.  So J = |h'|^2 (1 - |q|^4);
    # - |q| < 1 on the disk, as q = sqrtX (z - z0)/(1 - z conj z0) with
    #   |X| = 1 (unimodular_factor_modulus) and |z0|^2 = (cosh k - cos m)/
    #   (cosh k + cos m) < 1 (center_modulus_squared_law);
    # - h' = B (1 - z conj z0)^2 / ((1 - z^2)(e^{2ip} - z^2)) has its only
    #   zero at 1/conj z0, off the disk (tests/test_harmonic.py).
    # The row reads J on those 40 points, where it catches h' and g' confused.
    return max(0.0, -float(np.min(np.abs(ev["hp"]) ** 2 - np.abs(ev["gp"]) ** 2)))


def _winding(d, ev):
    # the boundary curve winds once around the center
    vals = ev["circle"][0] - d.h0
    winding = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * np.pi)
    return abs(winding - 1.0)


def _poisson(d, ev):
    # the harmonic map vs the Poisson integral of its boundary step
    return np.max(np.abs(ev["points"][0]
                         - poisson_extension(_POINTS, ev["arcs"])))


def _harmonicity(d, ev):
    # f and T harmonic: both circles give the same Taylor coefficients; their
    # difference is weighted by the inner circle's rho^|n|
    return np.max(np.abs(np.subtract(*ev["jet"].coeffs)) * _INNER_WEIGHTS)


def _boundary_steps(d, ev):
    # radial boundary limits hit the step values mid-arc; f at 1 - r = 1e-6
    # misses them by about (1 - r) max|b_i| / min(p, pi - p), so relative to
    # max|b_i|
    scale = max(abs(b) for b in d.vertices)
    return max(abs(limit - value)
               for (_, value), limit in zip(ev["arcs"], ev["mids"][0])) / scale


CHECKS = (
    ("dilatation_is_moebius_square", (1e-10, 1e-12), _dilatation),
    ("unimodular_factor_modulus", (1e-13, 1e-14),
     lambda d, ev: abs(abs(d.X) - 1.0)),
    ("center_modulus_squared_law", (1e-13, 1e-14), _center_modulus),
    ("kernel_scale_identity", (1e-12, 1e-13), _kernel_scale),
    ("kernel_residues_vs_circle_oracle", (1e-7, 1e-8), _circle_residues),
    # i (c1 - c2 + c3 - c4): the Pitot residual of the sides over 2 pi,
    # relative to c1 + c2 + c3 + c4, the perimeter over 2 pi
    ("kernel_residue_sum", (1e-14, 1e-15),
     lambda d, ev: abs(sum(d.k_residues)) / sum(d.cj)),
    ("kernel_residue_sign_split", (1e-12, 1e-13), _sign_split),
    ("height_vs_contour_quadrature", (1e-8, 1e-9), _height_contour),
    ("radial_growth_slopes", (5e-3, 1e-3), lambda d, ev: max(
        rel for *_, rel in growth_fit(d, ev["rays"][1]))),
    ("curvature_bound_attained", (1e-12, 1e-13), _bound_attained),
    ("graph_normal_vs_fd", (1e-5, 1e-6), _graph_normal),
    ("mixed_derivative_vs_fd", (1e-3, 1e-4), lambda d, ev: abs(
        -2.0 * ev["jet"].U.imag - center_mixed_derivative(d))),
    # the aligning rotation really kills the rotated mixed derivative: after
    # rotating the graph by alpha, u_xy is -2 Im(u_ww e^{-2i alpha})
    ("aligned_mixed_derivative_zero", (1e-3, 1e-4), lambda d, ev: abs(
        2.0 * (ev["jet"].U * cmath.exp(-2j * aligning_rotation(d))).imag)),
    ("jacobian_positive_on_grid", (0.0, 0.0), _jacobian),
    ("boundary_winding_number", (1e-8, 1e-10), _winding),
    ("poisson_extension_agreement", (1e-6, 1e-8), _poisson),
    ("laplacian_defect_fd", (1e-9, 1e-10), _harmonicity),
    ("boundary_step_values", (1e-3, 1e-4), _boundary_steps),
)


def run_checks(d, profile="default"):
    """Run every row of CHECKS; returns (name, err, tol, ok) rows.

    d is the surface record; the two profiles, "default" and "strict", share
    the checks and differ only in tolerances, and any other profile is
    refused as OutOfDomain.  A check that raises a ScherkError is a FAIL row
    with err = inf, and a note naming the check and the error goes to
    stderr.  evaluate(d) runs before any row, so an error there is verify's
    exit 2; none arises on a scherk_data record, since its fixed points
    nearest a pole, the growth rays' 1 - 1e-6, pass R_HEIGHT, and h' and g'
    are read at |z| < 0.9, far from the 1e-9 guard.
    """
    if profile not in ("default", "strict"):
        raise OutOfDomain(f"profile must be 'default' or 'strict'; got {profile!r}")
    pick = profile == "strict"
    ev = evaluate(d)
    rows = []
    for name, tols, err_of in CHECKS:
        try:
            err = float(err_of(d, ev))
        except ScherkError as exc:
            print(f"note: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            err = math.inf
        rows.append((name, err, tols[pick], err <= tols[pick]))
    return rows
