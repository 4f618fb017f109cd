"""Independent numeric oracles.

Every closed-form quantity in the package is double-checked against one of
these: adaptive quadrature of the Poisson integral, contour integration of
the height kernel, small-circle residue averages with Richardson
extrapolation, Taylor coefficients off two circles (the graph's 2-jet), and
for the tests finite differences and a Newton inversion of the harmonic map.
None of them reuse the closed forms they are meant to test.
"""

import functools
import math
from collections import namedtuple

import numpy as np

from .errors import NewtonDiverged, ToleranceNotMet
from .harmonic import TOL_POLE, _derivatives, harmonic_map
from .weierstrass import kernel_K, map_and_height


ABS_TOL, MAX_DEPTH, N_NODES = 1e-10, 24, 10  # adaptive quadrature panels
N_ANGLES, RADII = 64, (1e-4, 1e-5)  # residue circles, Richardson radii
NEWTON_TOL, NEWTON_STEPS = 1e-12, 50  # Newton residual tolerance, steps
# Taylor circles |z| = rho (inner, outer), points per circle, highest |n|
TAYLOR_RADII, TAYLOR_POINTS, TAYLOR_ORDER = (0.3, 0.6), 64, 12
Taylor = namedtuple("Taylor", "coeffs P U V")
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

    z may be an array.  field is called once, on an array whose last axis
    holds each point's stencil (z + h, z - h, z + ih, z - ih, z), so it must
    use numpy operations; a complex field gives the Laplacians of its real
    and imaginary parts as those of the result, and leading axes stay.
    """
    v = field(np.asarray(z, dtype=complex)[..., None] + h * _STENCIL)
    return (v[..., 0] + v[..., 1] + v[..., 2] + v[..., 3]
            - 4.0 * v[..., 4]) / h ** 2


def fd_mixed(fn, point, h=1e-4):
    """Four-point finite-difference mixed derivative d2 fn / dx dy at point."""
    point = complex(point)
    return (fn(point + h + 1j * h) - fn(point + h - 1j * h)
            - fn(point - h + 1j * h) + fn(point - h - 1j * h)) / (4.0 * h ** 2)


def newton_invert(d, target):
    """Invert the harmonic map: find z in the disk with f(z) = target.

    target is a point of the normalized frame or an array of them, solved
    together; a root has the same bits in any batch.  The Newton step dz =
    (conj(h') r - conj(g') conj(r)) / (|h'|^2 - |g'|^2), r = target - f(z),
    is halved until the iterate stays in the disk and |r| decreases.  Raises
    NewtonDiverged with the first failing point's message if a point finds no
    descent step or misses NEWTON_TOL in NEWTON_STEPS steps; its roots and
    notes hold each point's root (nan if it diverged) and message or None.
    """
    t = np.ravel(np.asarray(target, dtype=complex))
    z, notes = np.zeros_like(t), np.full(t.size, None, object)
    r = t - harmonic_map(z, d)
    for _ in range(NEWTON_STEPS):
        idx = np.flatnonzero(np.equal(notes, None) & ~(abs(r) < NEWTON_TOL))
        gap = np.abs(np.subtract.outer(z[idx], d.poles)).min(axis=-1)
        near = gap < TOL_POLE
        # an out-of-image target drags its iterate into a boundary pole
        notes[idx[near]] = [f"iterate approached a boundary pole (evaluation "
                            f"{g:.2e} from a boundary pole)" for g in gap[near]]
        idx = idx[~near]
        if not idx.size:
            break
        hp, gp = _derivatives(z[idx], d)
        denom = np.abs(hp) ** 2 - np.abs(gp) ** 2
        keep = ~(denom <= 0.0)
        notes[idx[~keep]] = "Jacobian is not positive at the iterate"
        idx, hp, gp, ri = idx[keep], hp[keep], gp[keep], r[idx[keep]]
        dz = (np.conj(hp) * ri - np.conj(gp) * np.conj(ri)) / denom[keep]
        step = np.ones(idx.size)
        while idx.size:
            z_new, r_new = z[idx] + step * dz, np.full(idx.size, np.inf + 0j)
            inside = np.abs(z_new) < 1.0
            r_new[inside] = t[idx[inside]] - harmonic_map(z_new[inside], d)
            done = np.abs(r_new) < np.abs(r[idx])
            z[idx[done]], r[idx[done]] = z_new[done], r_new[done]
            idx, step, dz = idx[~done], 0.5 * step[~done], dz[~done]
            notes[idx[step < 1e-14]] = ("no residual-decreasing step exists; "
                                        "target may lie outside the image")
            idx, step, dz = (a[~(step < 1e-14)] for a in (idx, step, dz))
    notes[np.equal(notes, None) & ~(abs(r) < NEWTON_TOL)] = (
        f"no convergence to {NEWTON_TOL} in {NEWTON_STEPS} steps")
    z[np.not_equal(notes, None)] = np.nan
    z = complex(z[0]) if np.ndim(target) == 0 else z.reshape(np.shape(target))
    if any(notes):
        raise NewtonDiverged(next(filter(None, notes)), z, notes.tolist())
    return z


@functools.lru_cache(maxsize=1)
def taylor(d):
    """Taylor coefficients of f and T off two circles; the graph's 2-jet at c0.

    The FFT of one map_and_height call on TAYLOR_POINTS points of each circle
    gives the Fourier coefficients F_n, to about rho^TAYLOR_POINTS (Lyness
    and Moler 1967).  coeffs[i, 0 or 1, TAYLOR_ORDER + n] is F_n / rho^|n| of
    f or T on circle i: for f, h's Taylor coefficients (n > 0) and conj g's
    (n < 0); for T = 2 Im k, -i k's (n > 0), k' = K.  From the outer circle,
    the graph u(f(z)) = T(z) has P = u_w from P h' + conj(P) g' = T_z = -iK,
    and U = u_ww, V = u_wwbar from the 3x3 real system T_zz = -iK', T_zzbar =
    0; so grad u = (2 Re P, -2 Im P) and u_xy = -2 Im U.
    """
    n = np.arange(-TAYLOR_ORDER, TAYLOR_ORDER + 1)
    rho = np.array(TAYLOR_RADII)[:, None, None]
    z = rho[:, 0] * np.exp(2j * math.pi * np.arange(TAYLOR_POINTS) / TAYLOR_POINTS)
    coeffs = (np.fft.fft(np.stack(map_and_height(z, d), 1))[..., n]
              / (TAYLOR_POINTS * rho ** np.abs(n)))
    f, T = coeffs[1, :, TAYLOR_ORDER - 2:TAYLOR_ORDER + 3]  # n = -2 .. 2
    a, b = f[1].conjugate() / f[3], 1.0 - abs(f[1] / f[3]) ** 2
    P = (T[3] / f[3] - a * (T[3] / f[3]).conjugate()) / b  # -iK/h' = T_1/h_1
    # T_zz/h'^2 = U + a^2 conj(U) + 2aV + (P h'' + conj(P) g'')/h'^2 and
    # T_zzbar/|h'|^2 = 2 Re(U conj(a)) + (1 + |a|^2) V
    S = 2.0 * (T[4] - P * f[4] - P.conjugate() * f[0].conjugate()) / f[3] ** 2
    V = -2.0 * (a.conjugate() * S).real / b ** 2
    U = ((S - a * a * S.conjugate()) / b - 2.0 * a * V) / (2.0 - b)
    return Taylor(coeffs, complex(P), complex(U), float(V))


def kernel_contour_height(z, d):
    """Height at z by integrating the closed kernel along [0, z]."""
    return contour_height(z, lambda u: kernel_K(u, d))
