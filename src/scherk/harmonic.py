"""The harmonic diffeomorphism f = h + conj(g) of the disk onto Q.

h' and g' are rational with four simple poles on the unit circle whose
residues are the (scaled) jumps of the boundary step function.  h, g and the
height T weight the same four logs Log(1 - z/pole), branch-safe on the open
disk since 1 - z/pole stays in the right half plane; _log_sums sums them in
one pass, from real ufuncs, and refuses |z| > R_HEIGHT (TOL_POLE from the
poles) and nan points.  h' and g' are summed from the differences z - pole
that the pole guard measured.  Evaluators take numpy arrays or scalars in
the normalized frame (-1, z, 1, w) under the batching law of README and
tests/test_batching.py; NormalizedFrame.invert maps values back to the
original quadrilateral.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import OutOfDomain, PoleProximity

TOL_POLE = 1e-9
R_HEIGHT = 1.0 - TOL_POLE  # the largest |z| at which f and T are evaluated
R_FAR = 1e9  # 1/TOL_POLE, the largest |z| at which h', g' and K are evaluated
# Points per pass of _log_sums; its temporaries stay (4, _BLOCK) arrays, so
# the 80 001 points of a large mesh need no point-sized log arrays.
_BLOCK = 4096


class AnalyticParts(namedtuple("AnalyticParts", "poles h_residues g_residues")):
    """Pole/residue tables of h' and g': an immutable named tuple of three
    4-tuples."""
    __slots__ = ()


def step_boundary(d):
    """Boundary step function of the normalized harmonic map.

    A 4-tuple of arcs ((theta_lo, theta_hi), vertex_value) covering
    [0, 2pi): the arc endpoints are 0, p, pi, pi+p, 2pi and the values run
    b4, b1, b2, b3, read from the record's d.vertices.
    """
    b1, b2, b3, b4 = d.vertices
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
    """z - pole for every pole, on a last axis: refuses a nan or infinite
    point, |z| > R_FAR and a point within TOL_POLE of a pole."""
    r = np.max(np.abs(z), initial=0.0)
    if not r <= R_FAR:  # a nan point too
        got = "a nan point" if math.isnan(r) else f"|z| = {float(r)!r}"
        raise OutOfDomain(f"h', g' and K require |z| <= 1e9; got {got}")
    dz = np.subtract.outer(z, poles)
    dmin = np.abs(dz).min(initial=np.inf)
    if not dmin >= TOL_POLE:
        raise PoleProximity(f"evaluation {dmin:.2e} from a boundary pole")
    return dz


def _derivatives(z, d):
    """The pair (h'(z), g'(z)) behind one pole guard, from its differences."""
    dz = np.moveaxis(_guard_poles(z, d.poles), -1, 0)
    return (sum(c / v for c, v in zip(d.h_residues, dz)),
            sum(c / v for c, v in zip(d.g_residues, dz)))


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
    points; each sum runs from 0 in pole order, bitwise as sum() of logs.

    Re Log w is log1p(|w|^2 - 1)/2 where |w|^2 >= 1/2, and log|w| at the
    other points (and nan), the only points it is taken at.  A block takes
    the logs of all poles in one pass on (poles, block) arrays, written over
    the 1 - z/pole they came from: on verify's 908 points map_and_height's
    traced peak is about 230 KiB, small enough that freeing it does not make
    glibc trim the heap top, which each following op would fault back in.
    """
    flat = np.ravel(z)
    r = np.max(np.abs(flat), initial=0.0)
    if not r <= R_HEIGHT:  # a nan point too
        got = "a nan point" if math.isnan(r) else f"|z| = {float(r)!r}"
        raise OutOfDomain(f"f and T require |z| <= 1 - 1e-9; got {got}")
    sums = np.zeros((len(coeffs), flat.size), complex)
    weights, poles = np.array(coeffs).T[..., None], np.array(d.poles)[:, None]
    for lo in range(0, flat.size, _BLOCK):
        zb, acc = flat[lo:lo + _BLOCK], sums[:, lo:lo + _BLOCK]
        # Log w by real ufuncs, ten times faster than the complex np.log;
        # log1p(|w|^2 - 1)/2 keeps its accuracy off a pole
        w = 1.0 - zb / poles
        re, im = w.real, w.imag
        x = (re - 1.0) * (re + 1.0) + im * im
        near = ~(x >= -0.5)
        lg = 0.5 * np.log1p(np.maximum(x, -0.5))
        lg[near] = np.log(np.abs(w[near]))
        w.real, w.imag = lg, np.arctan2(im, re)
        del x, lg  # before the products below, for the peak above
        for c, lg in zip(weights, w):
            acc += c * lg
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
