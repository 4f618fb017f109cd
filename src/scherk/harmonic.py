"""The harmonic diffeomorphism f = h + conj(g) of the disk onto Q.

h' and g' are rational with four simple poles on the unit circle whose
residues are the (scaled) jumps of the boundary step function.  h, g and the
height T weight the same four logs Log(1 - z/pole), branch-safe on the open
disk since 1 - z/pole stays in the right half plane; _log_sums sums them in
one pass, from real ufuncs, and refuses |z| > R_HEIGHT (TOL_POLE from the
poles).  Evaluators take numpy arrays or scalars (same bits for a point
either way) in the normalized frame (-1, z, 1, w); NormalizedFrame.invert
maps values back to the original quadrilateral.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity
from .params import normalized_vertices

TOL_POLE = 1e-9
R_HEIGHT = 1.0 - TOL_POLE  # the largest |z| at which f and T are evaluated
_BLOCK = 4096  # points per pass of _log_sums, so its temporaries stay small


@dataclass(frozen=True)
class AnalyticParts:
    """Pole/residue tables of h' and g'."""
    poles: tuple
    h_residues: tuple
    g_residues: tuple


def step_boundary(d):
    """Boundary step function of the normalized harmonic map.

    A 4-tuple of arcs ((theta_lo, theta_hi), vertex_value) covering
    [0, 2pi): the arc endpoints are 0, p, pi, pi+p, 2pi and the values run
    b4, b1, b2, b3.
    """
    b1, b2, b3, b4 = normalized_vertices(d.coords)
    p, pi = d.p, math.pi
    return (((0.0, p), b4), ((p, pi), b1),
            ((pi, pi + p), b2), ((pi + p, 2 * pi), b3))


def analytic_parts(d):
    """Residues of h' and g' at the four boundary poles, read from the record.

    The residue at each pole is the jump of the step function there divided
    by 2 pi i; the g' residues are the negated conjugates.  Both sets sum
    to zero, which is what makes f single-valued.
    """
    return AnalyticParts(d.poles, d.h_residues, d.g_residues)


def _guard_poles(z, poles):
    dmin = np.abs(np.subtract.outer(z, poles)).min()
    if dmin < TOL_POLE:
        raise PoleProximity(f"evaluation {dmin:.2e} from a boundary pole")


def _derivatives(z, d):
    """The pair (h'(z), g'(z)) behind one pole guard."""
    _guard_poles(z, d.poles)
    hp = sum(c / (z - zk) for c, zk in zip(d.h_residues, d.poles))
    gp = sum(c / (z - zk) for c, zk in zip(d.g_residues, d.poles))
    return hp, gp


def h_prime(z, d):
    """Derivative of the analytic part h (normalized frame)."""
    return _derivatives(z, d)[0]


def g_prime(z, d):
    """Derivative of the co-analytic part g (normalized frame)."""
    return _derivatives(z, d)[1]


def dilatation(z, d):
    """Second complex dilatation g'(z)/h'(z); a perfect Moebius square."""
    hp, gp = _derivatives(z, d)
    return gp / hp


def _log_sums(z, d, *coeffs):
    """sum_k c[k] Log(1 - z/pole_k) for each tuple c, in blocks of _BLOCK
    points; each sum runs from 0 in pole order, bitwise as sum() of logs."""
    flat = np.ravel(z)
    r = np.max(np.abs(flat), initial=0.0)
    if r > R_HEIGHT:
        raise ValueError(f"f and T require |z| <= 1 - 1e-9; got |z| = {r!r}")
    sums = np.zeros((len(coeffs), flat.size), complex)
    poles, weights = np.array(d.poles)[:, None], np.array(coeffs)[..., None]
    for lo in range(0, flat.size, _BLOCK):
        # Log w at all poles by real ufuncs, ten times faster than the
        # complex np.log; log1p(|w|^2 - 1)/2 keeps its accuracy off a pole
        w = 1.0 - flat[lo:lo + _BLOCK] / poles
        re, im = w.real, w.imag
        x = (re - 1.0) * (re + 1.0) + im * im
        lg = np.empty_like(w)
        lg.real = np.where(x >= -0.5, 0.5 * np.log1p(np.maximum(x, -0.5)),
                           np.log(np.abs(w)))
        lg.imag = np.arctan2(im, re)
        terms = weights * lg
        for k in range(len(poles)):
            sums[:, lo:lo + _BLOCK] += terms[:, k]
    return [s.reshape(np.shape(z))[()] for s in sums]


def harmonic_map(z, d):
    """Value of f = h + conj(g) at z (|z| <= R_HEIGHT), in the normalized frame.

    Evaluated through principal-branch logs of 1 - z/pole, with h(0) = h0
    = f(0), the arc-length weighted vertex average p (z + w)/(2 pi), and
    g(0) = 0.
    """
    h, g = _log_sums(z, d, d.h_residues, d.g_residues)
    return d.h0 + h + np.conj(g)


def jacobian(z, d):
    """Jacobian |h'|^2 - |g'|^2 of f; positive iff sense-preserving."""
    hp, gp = _derivatives(z, d)
    return np.abs(hp) ** 2 - np.abs(gp) ** 2
