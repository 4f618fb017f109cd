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
from .params import normalized_vertices

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
    """Pole/residue tables of h' and g'."""
    poles: tuple
    h_residues: tuple
    g_residues: tuple


def step_boundary(d):
    """Boundary step function of the normalized harmonic map."""
    b1, b2, b3, b4 = normalized_vertices(d.coords)
    p, pi = d.p, math.pi
    return StepBoundary((((0.0, p), b4), ((p, pi), b1),
                         ((pi, pi + p), b2), ((pi + p, 2 * pi), b3)))


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


def _derivatives(z, d, frame=None):
    """The pair (h'(z), g'(z)) behind one pole guard (see h_prime for frame)."""
    _guard_poles(z, d.poles)
    hp = sum(c / (z - zk) for c, zk in zip(d.h_residues, d.poles))
    gp = sum(c / (z - zk) for c, zk in zip(d.g_residues, d.poles))
    if frame is not None:
        hp, gp = hp / frame.scale, gp / np.conj(frame.scale)
    return hp, gp


def h_prime(z, d, frame=None):
    """Derivative of the analytic part h.

    With frame=None the value is in the normalized frame; passing the
    NormalizedFrame returns the analytic derivative of the de-normalized
    map (division by the frame scale).
    """
    return _derivatives(z, d, frame)[0]


def g_prime(z, d, frame=None):
    """Derivative of the co-analytic part g (see h_prime for frame)."""
    return _derivatives(z, d, frame)[1]


def dilatation(z, d):
    """Second complex dilatation g'(z)/h'(z); a perfect Moebius square."""
    hp, gp = _derivatives(z, d)
    return gp / hp


def _pole_logs(z, d):
    """The four principal logs Log(1 - z/pole) that h, g and the height share."""
    return [np.log(1.0 - z / zk) for zk in d.poles]


def harmonic_map(z, d, frame=None):
    """Value of f = h + conj(g) at z (|z| < 1).

    Evaluated through principal-branch logs of 1 - z/pole, with h(0) = h0
    and g(0) = 0.  frame maps the value back to the original vertex
    coordinates.
    """
    logs = _pole_logs(z, d)
    h = d.h0 + sum(c * lg for c, lg in zip(d.h_residues, logs))
    g = sum(c * lg for c, lg in zip(d.g_residues, logs))
    val = h + np.conj(g)
    if frame is not None:
        val = val / frame.scale + frame.shift
    return val


def harmonic_center(d, frame=None):
    """f(0): the arc-length weighted vertex average p (z + w)/(2 pi)."""
    c0 = d.h0
    if frame is not None:
        c0 = frame.invert(c0)
    return c0


def jacobian(z, d):
    """Jacobian |h'|^2 - |g'|^2 of f; positive iff sense-preserving."""
    hp, gp = _derivatives(z, d)
    return np.abs(hp) ** 2 - np.abs(gp) ** 2
