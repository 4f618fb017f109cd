"""Quadrilateral validation, normalization, and hyperbolic coordinates.

The pipeline starts here: an arbitrary Pitot quadrilateral (opposite
side-length sums equal) is validated, oriented counterclockwise, and mapped
by a similarity onto the canonical frame (-1, z, 1, w) in which the two
free vertices z and w lie on a hyperbola with foci +-1.  On that hyperbola
each point is sin(m) cosh(tau) + i cos(m) sinh(tau), so the quadrilateral
is coded by three real numbers (m, s, t).
"""

import math
import sys
from collections import namedtuple

from .errors import (DegenerateRightAngle, DegenerateVertices, EqualRapidities,
                     NotPitot, OutOfDomain, SelfIntersecting, ZeroArea)

# |sin(m)| below this is m = 0; 1 - sin(m) below it counts as degenerate.
TOL_M = 1e-8
# Rapidity gap below which the two free vertices coincide on the hyperbola.
TOL_RAPIDITY = 1e-8
DEFAULT_TOL_PITOT = 1e-9


class PitotQuad(namedtuple("PitotQuad", "b1 b2 b3 b4 pitot_residual "
                           "reversed_input", defaults=(False,))):
    """Four validated complex vertices, counterclockwise, with the Pitot
    certificate; an immutable named tuple.

    pitot_residual is the signed defect (|b1b2|+|b3b4|) - (|b2b3|+|b4b1|);
    reversed_input (default False) records whether the input order had to
    be reversed to make the signed area positive.
    """
    __slots__ = ()

    @property
    def vertices(self):
        return (self.b1, self.b2, self.b3, self.b4)

    def perimeter(self):
        return _side_sums(self.vertices)[1]


class NormalizedFrame(namedtuple("NormalizedFrame", "scale shift z w relabeled",
                                 defaults=(False,))):
    """Similarity data mapping the quadrilateral onto (-1, z, 1, w); an
    immutable named tuple.

    The forward map is T(u) = scale * (u - shift).  relabeled (default
    False) records whether the vertex labels were rotated by two places (a
    180-degree rotation of the canonical frame) to land on the sin(m) >= 0
    branch of the hyperbola.
    """
    __slots__ = ()

    def apply(self, u):
        return self.scale * (u - self.shift)

    def invert(self, u):
        return u / self.scale + self.shift


class HyperbolicCoords(namedtuple("HyperbolicCoords", "m s t j k")):
    """Hyperbola parameters (m, s, t) and the derived half-sum/difference;
    an immutable named tuple of five floats.

    m in [0, pi/2) is the angle fixing the hyperbola axes (sin m, cos m);
    m = 0 (the imaginary axis) is a kite about b2b4, a rhombus or a square.
    t and s are the rapidities of the normalized vertices z and w.
    j = (s - t)/2 and k = (s + t)/2 appear in every closed form downstream.
    """
    __slots__ = ()


def _shoelace(pts):
    """Twice the signed area of the closed polygon through pts."""
    acc = 0.0
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        acc += a.real * b.imag - b.real * a.imag
    return acc


def _orient(a, b, c):
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def _segments_cross(p1, p2, p3, p4, eps):
    """True when open segments p1p2 and p3p4 properly intersect or overlap."""
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and \
       ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)):
        return True
    # collinear-overlap degeneracies
    if abs(d1) <= eps and abs(d2) <= eps and abs(d3) <= eps and abs(d4) <= eps:
        # all four points on one line: overlap iff projections overlap
        dx = p2 - p1
        axis = dx if abs(dx) > 0 else (p4 - p3)
        tvals = sorted(((u - p1) / axis).real for u in (p1, p2))
        uvals = sorted(((u - p1) / axis).real for u in (p3, p4))
        return not (tvals[1] < uvals[0] or uvals[1] < tvals[0])
    return False


def _side_sums(b):
    """Side-sum defect (|b1b2| + |b3b4|) - (|b2b3| + |b4b1|) and perimeter of b."""
    sides = [abs(b[i] - b[(i + 1) % 4]) for i in range(4)]
    return (sides[0] + sides[2]) - (sides[1] + sides[3]), sum(sides)


def _pitot_defect(b, tol_pitot):
    """Side-sum defect of the vertices b; NotPitot when it exceeds tol_pitot x
    the perimeter, which it is below, so a tol_pitot outside [0, 1) is refused."""
    if not 0.0 <= tol_pitot < 1.0:
        raise OutOfDomain(f"tol_pitot must lie in [0, 1), got {tol_pitot!r}")
    residual, perimeter = _side_sums(b)
    if abs(residual) > tol_pitot * perimeter:
        raise NotPitot(f"side-sum defect {residual / perimeter:.3e} x perimeter "
                       f"exceeds tol_pitot = {tol_pitot:.1e}")
    return residual


def _kappa(z):
    """Focal difference (|z+1| - |z-1|)/2 = sin m, uncancelled at large |z|."""
    return 2.0 * z.real / (abs(z + 1) + abs(z - 1))


def _vertex(v):
    """A number, or else an (x, y) pair of any 2-element sequence, as a complex."""
    try:
        return complex(v)
    except TypeError:
        x, y = v
        return complex(x, y)


def validate_quadrilateral(vertices, tol_pitot=DEFAULT_TOL_PITOT):
    """Check the Pitot condition and basic sanity; canonicalize orientation.

    vertices: iterable of four complex numbers (or (x, y) pairs).
    tol_pitot: relative tolerance in [0, 1); the side-sum defect must not
        exceed tol_pitot times the perimeter.

    Returns a PitotQuad whose vertex order is counterclockwise (the input
    order is reversed when its signed area is negative).
    """
    try:  # a pair of 1 or 3 coordinates fails to unpack: a ValueError
        b = [complex(*v) if isinstance(v, (tuple, list)) and len(v) == 2
             else _vertex(v) for v in vertices]
    except (TypeError, ValueError) as exc:
        raise OutOfDomain(f"vertices must be pairs of numbers: {exc}") from exc
    for i, v in enumerate(b):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise OutOfDomain(f"vertices must be finite; vertex {i + 1} is {v!r}")
    if len(b) != 4:
        raise OutOfDomain("exactly four vertices required")

    diam = max(abs(b[i] - b[j]) for i in range(4) for j in range(i + 1, 4))
    if diam == 0.0:
        raise DegenerateVertices("all vertices coincide")
    if not sys.float_info.min <= diam < math.inf:  # a normal double
        raise OutOfDomain(f"quadrilateral diameter {diam!r} is out of double range")
    for i in range(4):
        for j in range(i + 1, 4):
            sep = abs(b[i] - b[j])
            if sep <= 1e-12 * diam:
                raise DegenerateVertices(
                    f"vertices {i + 1} and {j + 1} are {sep:.3e} apart, within "
                    f"1e-12 x the quadrilateral's diameter {diam:.3e}")

    # the area, crossing and side-sum tests run at unit diameter, free of scale
    u = [v / diam for v in b]
    area2 = _shoelace(u)
    if abs(area2) <= 1e-12:
        raise ZeroArea("quadrilateral has zero signed area")
    reversed_input = area2 < 0.0
    if reversed_input:
        b, u = [b[0], b[3], b[2], b[1]], [u[0], u[3], u[2], u[1]]

    if _segments_cross(u[0], u[1], u[2], u[3], 1e-12) or \
       _segments_cross(u[1], u[2], u[3], u[0], 1e-12):
        raise SelfIntersecting("nonadjacent sides intersect")

    residual, scaled = _pitot_defect(u, tol_pitot), _side_sums(b)[0]  # nan on overflow
    return PitotQuad(*b, scaled if math.isfinite(scaled) else residual * diam,
                     reversed_input)


def normalize(q):
    """Map a PitotQuad onto the canonical frame (-1, z, 1, w).

    Returns (frame, similarity, inverse_similarity) where the similarity is
    T(u) = 2 (u - (b1+b3)/2)/(b3-b1).  When the image z of b2 has focal
    difference kappa = (|z+1| - |z-1|)/2 <= -TOL_M (the sin(m) < 0 branch),
    the labels are rotated by two places (b3,b4,b1,b2), which negates the
    frame, and relabeled=True.  |kappa| < TOL_M is m = 0 and relabels nothing.
    """
    b1, b2, b3, b4 = q.vertices
    scale = 2.0 / (b3 - b1)
    shift = (b1 + b3) / 2.0
    z = scale * (b2 - shift)
    w = scale * (b4 - shift)
    relabeled = False
    if _kappa(z) <= -TOL_M:
        scale = -scale
        z, w = -w, -z
        relabeled = True
    frame = NormalizedFrame(scale, shift, z, w, relabeled)
    return frame, frame.apply, frame.invert


def hyperbola_point(m, tau):
    """Point sin(m) cosh(tau) + i cos(m) sinh(tau), 0 <= m < pi/2."""
    if not 0.0 <= m < math.pi / 2:
        raise OutOfDomain(f"m must lie in [0, pi/2); got m = {m!r}")
    try:
        ch, sh = math.cosh(tau), math.sinh(tau)
    except OverflowError:
        raise OutOfDomain(f"cosh overflows at m={m!r}, tau={tau!r}") from None
    return complex(math.sin(m) * ch, math.cos(m) * sh)


def hyperbolic_coordinates(z, w, tol_pitot=DEFAULT_TOL_PITOT):
    """Recover (m, s, t) from the normalized free vertices z and w.

    (-1, z, 1, w) must pass the side-sum test of validate_quadrilateral at
    tol_pitot: its defect is 2 (kappa(z) - kappa(w)), so z and w lie on one
    hyperbola with foci +-1, on the sin(m) >= 0 branch as produced by
    normalize().  They are projected onto the averaged hyperbola, whose
    kappa = sin(m) gives m = 0 when |kappa| < TOL_M.
    """
    z, w = complex(z), complex(w)
    _pitot_defect((-1.0, z, 1.0, w), tol_pitot)
    kappa = (_kappa(z) + _kappa(w)) / 2.0
    if 1.0 - abs(kappa) < TOL_M:
        raise DegenerateRightAngle(f"hyperbola degenerates (cos m ~ 0) at kappa={kappa!r}")
    if kappa <= -TOL_M:
        raise OutOfDomain(f"z lies on the sin(m) < 0 branch (kappa={kappa!r}); "
                          "use normalize() to obtain the canonical (relabeled) "
                          "frame first")
    m = math.asin(kappa) if kappa >= TOL_M else 0.0
    cm = math.cos(m)
    t = math.asinh(z.imag / cm)
    s = math.asinh(w.imag / cm)
    roundtrip_tol = max(1e-6, 10.0 * tol_pitot)
    for point, tau, name in ((z, t, "z"), (w, s, "w")):
        mismatch = abs(hyperbola_point(m, tau) - point)
        if mismatch > roundtrip_tol * (1.0 + abs(point)):
            raise OutOfDomain(f"{name} does not round-trip through the hyperbola at "
                              f"m={m!r}, tau={tau!r}: mismatch {mismatch:.3g} > "
                              f"tolerance {roundtrip_tol * (1.0 + abs(point)):.3g}")
    if abs(s - t) < TOL_RAPIDITY:
        raise EqualRapidities(f"free vertices coincide in rapidity: s={s!r}, t={t!r}")
    return HyperbolicCoords(m, s, t, (s - t) / 2.0, (s + t) / 2.0)


def construct_quad(m, s, t, tol_pitot=DEFAULT_TOL_PITOT):
    """Build the canonical quadrilateral (-1, z, 1, w) from (m, s, t).

    The inverse workflow of normalize + hyperbolic_coordinates; the result
    is Pitot by construction (side sums telescope along the hyperbola).
    Orientation is fixed to counterclockwise, so passing s < t yields the
    same quadrilateral with the roles of the two free vertices exchanged.
    """
    if abs(s - t) < TOL_RAPIDITY:
        raise EqualRapidities(f"s = t gives a triangle: s={s!r}, t={t!r}")
    z = hyperbola_point(m, t)
    w = hyperbola_point(m, s)
    return validate_quadrilateral([-1.0 + 0.0j, z, 1.0 + 0.0j, w], tol_pitot)
