"""Exception types raised by the library.

Every failure mode of the pipeline maps to one concrete subclass of
ScherkError so that callers (and the CLI) can branch on category without
string matching.
"""


class ScherkError(Exception):
    """Base class for all library errors."""


class NotPitot(ScherkError):
    """Opposite side-length sums differ by more than the tolerance."""


class DegenerateVertices(ScherkError):
    """Two or more vertices coincide."""


class SelfIntersecting(ScherkError):
    """The quadrilateral's sides cross each other."""


class ZeroArea(ScherkError):
    """The quadrilateral has (numerically) zero signed area."""


class DegenerateRightAngle(ScherkError):
    """The focal hyperbola degenerates to the real axis (cos m ~ 0)."""


class EqualRapidities(ScherkError):
    """The two off-axis vertices share a rapidity (s = t); no surface."""


class PoleProximity(ScherkError):
    """Evaluation point is too close to a boundary pole."""


class NewtonDiverged(ScherkError):
    """Newton inversion of the harmonic map did not converge (see .notes)."""
    def __init__(self, message, roots=None, notes=None):
        super().__init__(message)
        self.roots, self.notes = roots, notes


class ToleranceNotMet(ScherkError):
    """Adaptive quadrature could not reach the requested tolerance."""


class OutOfDomain(ScherkError, ValueError):
    """The input lies where the construction cannot be validated; a
    ValueError too, so callers that catch ValueError keep working."""


class IoError(ScherkError):
    """Mesh or trace export failed at the filesystem level."""
