"""The harmonic diffeomorphism f = h + conj(g) of the disk onto Q.

h' and g' are rational with four simple poles on the unit circle whose
residues are the (scaled) jumps of the boundary step function; h and g are
their log antiderivatives, which is exact and branch-safe on the open disk
because 1 - z/pole stays in the right half plane.  All evaluators accept
numpy arrays as well as scalars.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity
from .params import TWO_PI_I, normalized_vertices

TOL_POLE = 1e-9


@dataclass(frozen=True)
class StepBoundary:
    """Boundary values of f: four circle arcs, each mapped to one vertex.

    arcs is a 4-tuple of ((theta_lo, theta_hi), vertex_value) covering
    [0, 2pi): the arc endpoints are 0, p, pi, pi+p, 2pi and the values run
    b4, b1, b2, b3.
    """
    arcs: tuple


@dataclass(frozen=True)
class AnalyticParts:
    """Pole/residue tables of h' and g' plus integration constants.

    h0 = h(0) = f(0) (the harmonic center in the normalized frame) and
    g0 = g(0) = 0 fix the antiderivatives.
    """
    poles: tuple
    h_residues: tuple
    g_residues: tuple
    h0: complex
    g0: complex


def step_boundary(d):
    """Boundary step function of the normalized harmonic map."""
    b1, b2, b3, b4 = normalized_vertices(d.coords)
    p, pi = d.p, math.pi
    return StepBoundary((((0.0, p), b4), ((p, pi), b1),
                         ((pi, pi + p), b2), ((pi + p, 2 * pi), b3)))


def analytic_parts(d):
    """Residues of h' and g' at the four boundary poles.

    The residue at each pole is the jump of the step function there divided
    by 2 pi i; the g' residues are the negated conjugates.  Both sets sum
    to zero, which is what makes f single-valued.
    """
    b1, b2, b3, b4 = normalized_vertices(d.coords)
    hres = ((b3 - b4) / TWO_PI_I, (b4 - b1) / TWO_PI_I,
            (b1 - b2) / TWO_PI_I, (b2 - b3) / TWO_PI_I)
    gres = tuple(-r.conjugate() for r in hres)
    c0 = d.p * (b2 + b4) / (2 * math.pi)
    return AnalyticParts(d.poles, hres, gres, c0, 0.0 + 0.0j)


def _guard_poles(z, poles):
    dmin = np.min(np.abs(np.subtract.outer(np.asarray(z), poles)))
    if dmin < TOL_POLE:
        raise PoleProximity(f"evaluation {dmin:.2e} from a boundary pole")


def h_prime(z, d, frame=None):
    """Derivative of the analytic part h.

    With frame=None the value is in the normalized frame; passing the
    NormalizedFrame returns the analytic derivative of the de-normalized
    map (division by the frame scale).
    """
    parts = analytic_parts(d)
    _guard_poles(z, parts.poles)
    val = sum(c / (z - zk) for c, zk in zip(parts.h_residues, parts.poles))
    if frame is not None:
        val = val / frame.scale
    return val


def g_prime(z, d, frame=None):
    """Derivative of the co-analytic part g (see h_prime for frame)."""
    parts = analytic_parts(d)
    _guard_poles(z, parts.poles)
    val = sum(c / (z - zk) for c, zk in zip(parts.g_residues, parts.poles))
    if frame is not None:
        val = val / np.conj(frame.scale)
    return val


def dilatation(z, d):
    """Second complex dilatation g'(z)/h'(z); a perfect Moebius square."""
    return g_prime(z, d) / h_prime(z, d)


def harmonic_map(z, d, frame=None):
    """Value of f = h + conj(g) at z (|z| < 1).

    Evaluated through principal-branch logs of 1 - z/pole.  frame maps the
    value back to the original vertex coordinates.
    """
    parts = analytic_parts(d)
    h = parts.h0 + sum(c * np.log(1.0 - z / zk)
                       for c, zk in zip(parts.h_residues, parts.poles))
    g = sum(c * np.log(1.0 - z / zk)
            for c, zk in zip(parts.g_residues, parts.poles))
    val = h + np.conj(g)
    if frame is not None:
        val = val / frame.scale + frame.shift
    return val


def harmonic_center(d, frame=None):
    """f(0): the arc-length weighted vertex average p (z + w)/(2 pi)."""
    b1, b2, b3, b4 = normalized_vertices(d.coords)
    c0 = d.p * (b2 + b4) / (2 * math.pi)
    if frame is not None:
        c0 = frame.invert(c0)
    return c0


def jacobian(z, d):
    """Jacobian |h'|^2 - |g'|^2 of f; positive iff sense-preserving."""
    hp = h_prime(z, d)
    gp = g_prime(z, d)
    return np.abs(hp) ** 2 - np.abs(gp) ** 2
