"""Independent numeric oracles.

Every closed-form quantity in the package is double-checked against one of
these: adaptive quadrature of the Poisson integral, contour integration of
the height kernel, small-circle residue averages with Richardson
extrapolation, finite-difference Laplacians and mixed derivatives, and a
Newton inversion of the harmonic map.  None of them reuse the closed forms
they are meant to test.
"""

import functools
import math

import numpy as np

from .errors import NewtonDiverged, PoleProximity, ToleranceNotMet
from .harmonic import _derivatives, harmonic_map
from .weierstrass import height_T, kernel_K


ABS_TOL, MAX_DEPTH, N_NODES = 1e-10, 24, 10  # adaptive quadrature panels
N_ANGLES, RADII = 64, (1e-4, 1e-5)  # residue circles, Richardson radii
NEWTON_TOL, NEWTON_STEPS = 1e-12, 50  # Newton residual tolerance, steps
# Unit offsets of the five-point Laplacian stencil; the center comes last.
_STENCIL = np.array([1.0, -1.0, 1j, -1j, 0.0])


@functools.lru_cache(maxsize=None)
def _gauss_legendre():
    """Gauss-Legendre nodes and weights on [-1, 1]; shared, never mutated.
    Built on first use, so importing scherk does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(N_NODES)


def _panels(fn, a, b, owner):
    """Gauss-Legendre values of the panels [a[i], b[i]], one fn call for all.

    fn gets the (N_NODES, n_panels) node array and each panel's interval
    index.  Weighted node values are added one by one in node order, so a
    panel's value does not depend on how many panels share the call.
    """
    nodes, weights = _gauss_legendre()
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = fn(mid + half * nodes[:, None], owner)
    return half * np.add.accumulate(weights[:, None] * vals, axis=0)[-1]


def _quad_levels(fn, a, b):
    """Adaptive integrals of fn over the intervals [a[i], b[i]], level by level.

    Each level halves every panel still pending, in all intervals, with one
    fn call.  A halved panel is accepted when |whole - (left + right)| <
    ABS_TOL; the accepted sums are then added up the tree of halvings, so
    every value is the one a depth-first recursion on each interval gives.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    owner = np.arange(a.size)
    whole = _panels(fn, a, b, owner)
    levels = []
    for depth in range(MAX_DEPTH + 1):
        # the two halves of each pending panel, left then right, in order
        mid = 0.5 * (a + b)
        a, b = np.stack((a, mid), 1).ravel(), np.stack((mid, b), 1).ravel()
        owner = np.repeat(owner, 2)
        halves = _panels(fn, a, b, owner)
        pair = halves[0::2] + halves[1::2]
        diff = whole - pair
        # np.hypot rounds as a scalar complex abs does; np.abs may not
        refine = ~(np.hypot(diff.real, diff.imag) < ABS_TOL)
        levels.append((pair, refine))
        if not refine.any():
            break
        if depth >= MAX_DEPTH:
            i = 2 * np.flatnonzero(refine)[0]
            raise ToleranceNotMet(
                f"quadrature stalled on [{a[i]}, {b[i + 1]}] at depth {depth}")
        keep = np.repeat(refine, 2)
        a, b, owner, whole = a[keep], b[keep], owner[keep], halves[keep]
    total = levels.pop()[0]
    for pair, refine in reversed(levels):
        pair[refine] = total[0::2] + total[1::2]
        total = pair
    return total


def adaptive_quad(fn, a, b):
    """Adaptive Gauss-Legendre integral of fn over [a, b].

    Each halving level of the panels is one call of fn on a numpy array of
    shape (N_NODES, n_panels) holding the nodes of every panel of that
    level, so fn must be written with numpy operations (np.exp, not
    math.exp).  It may return complex values; the halve-and-compare error
    estimate is applied to the combined value.
    """
    return _quad_levels(lambda x, _: fn(x), [a], [b])[0]


def poisson_extension(z, arcs):
    """Harmonic extension of a piecewise-constant boundary function at z.

    arcs is a sequence of ((theta_lo, theta_hi), value), as step_boundary
    returns.  Integrates the Poisson kernel (1 - |z|^2) / |e^{it} - z|^2
    over each arc separately, so arc endpoints never fall inside a
    quadrature panel.  z may be a scalar or an array of points; all points
    and arcs are integrated together, with the kernel evaluated on numpy
    arrays of panel angles.
    """
    zs = [complex(v) for v in np.ravel(z)]
    lo, hi = np.tile([span for span, _ in arcs], (len(zs), 1)).T
    zk = np.repeat(zs, len(arcs))
    # |z|^2 by Python's complex abs, as for one point; np.abs rounds differently
    r2k = np.repeat([abs(v) ** 2 for v in zs], len(arcs))

    def kernel(t, k):
        return (1.0 - r2k[k]) / abs(np.exp(1j * t) - zk[k]) ** 2

    integrals = _quad_levels(kernel, lo, hi)
    out = []
    for row in integrals.reshape(len(zs), len(arcs)):
        total = 0.0 + 0.0j
        for (_, value), integral in zip(arcs, row):
            total += value * integral
        out.append(total / (2.0 * math.pi))
    return out[0] if np.ndim(z) == 0 else np.reshape(out, np.shape(z))


def contour_height(z, kernel):
    """Height at z as 2 Im of the kernel integral along the segment [0, z].

    z may be a scalar or an array of points, all integrated together.
    kernel is evaluated elementwise on numpy arrays of quadrature points,
    so it must be written with numpy operations.
    """
    zs = np.ravel(np.asarray(z, dtype=complex))

    def integrand(tau, k):
        return kernel(tau * zs[k]) * zs[k]

    heights = 2.0 * _quad_levels(integrand, np.zeros(zs.size),
                                 np.ones(zs.size)).imag
    return heights[0] if np.ndim(z) == 0 else heights.reshape(np.shape(z))


def numeric_residue(fn, pole):
    """Residue of fn at `pole` (a scalar or an array of poles) from circles.

    The mean of (z - pole) fn(z) over a circle of radius eps equals the
    residue plus an O(eps) bias from the neighbouring poles; Richardson
    extrapolation over the two RADII removes the linear term.  fn is
    evaluated elementwise on a numpy array of the N_ANGLES points of every
    pole's circle, once per radius, so it must be written with numpy
    operations.
    """
    angles = 2.0 * math.pi * np.arange(N_ANGLES) / N_ANGLES
    poles = np.asarray(pole, dtype=complex)[..., None]

    def mean(radius):
        zs = poles + radius * np.exp(1j * angles)
        return ((zs - poles) * fn(zs)).mean(axis=-1)

    e1, e2 = RADII
    return (e1 * mean(e2) - e2 * mean(e1)) / (e1 - e2)


def fd_laplacian(field, z, h=1e-3):
    """Five-point finite-difference Laplacian of a field at z.

    field is called once, on a numpy array of the five stencil points
    (z + h, z - h, z + ih, z - ih, z), so it must be written with numpy
    operations.  A complex field gives the Laplacians of its real and
    imaginary parts as the real and imaginary parts of the result.
    """
    v = field(complex(z) + h * _STENCIL)
    return (v[0] + v[1] + v[2] + v[3] - 4.0 * v[4]) / h ** 2


def fd_mixed(fn, point, h=1e-4):
    """Four-point finite-difference mixed derivative d2 fn / dx dy at point."""
    point = complex(point)
    return (fn(point + h + 1j * h) - fn(point + h - 1j * h)
            - fn(point - h + 1j * h) + fn(point - h - 1j * h)) / (4.0 * h ** 2)


def newton_invert(d, target):
    """Invert the harmonic map: find z in the disk with f(z) = target.

    target is a point of the normalized frame.  Newton steps use the
    Wirtinger derivatives of f = h + conj(g): dz = (conj(h') r - conj(g')
    conj(r)) / (|h'|^2 - |g'|^2) with residual r = target - f(z).  Steps
    are halved until the iterate stays inside the disk and the residual
    decreases, so targets far from f(0) do not throw the iteration out of
    the domain.  Raises NewtonDiverged if no descent step exists or the
    residual is not below NEWTON_TOL within NEWTON_STEPS steps.
    """
    z, target = 0j, complex(target)
    r = target - harmonic_map(z, d)
    for _ in range(NEWTON_STEPS):
        if abs(r) < NEWTON_TOL:
            return z
        try:
            hp, gp = _derivatives(z, d)
        except PoleProximity as exc:
            # an out-of-image target drags the iterate into a boundary pole
            raise NewtonDiverged(f"iterate approached a boundary pole ({exc})")
        denom = abs(hp) ** 2 - abs(gp) ** 2
        if denom <= 0.0:
            raise NewtonDiverged("Jacobian is not positive at the iterate")
        dz = (hp.conjugate() * r - gp.conjugate() * r.conjugate()) / denom
        step = 1.0
        while True:
            z_new = z + step * dz
            if abs(z_new) < 1.0:
                r_new = target - harmonic_map(z_new, d)
                if abs(r_new) < abs(r):
                    break
            step *= 0.5
            if step < 1e-14:
                raise NewtonDiverged("no residual-decreasing step exists; "
                                     "target may lie outside the image")
        z, r = z_new, r_new
    raise NewtonDiverged(
        f"no convergence to {NEWTON_TOL} in {NEWTON_STEPS} steps")


def graph_height_function(d):
    """Height of the surface as a function over the quadrilateral.

    Returns a callable w -> height at the planar point w (normalized
    frame), computed by Newton-inverting the harmonic map and evaluating
    the height integral there.  Purely numeric; used as the ground truth
    for the center derivative checks.
    """
    def height_at(w):
        return height_T(newton_invert(d, w), d)

    return height_at


def kernel_contour_height(z, d):
    """Height at z by integrating the closed kernel along [0, z]."""
    return contour_height(z, lambda u: kernel_K(u, d))
