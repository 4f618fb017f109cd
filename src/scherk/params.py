"""Closed-form parameters of the construction.

Everything the surface needs is a handful of constants computed from the
hyperbolic coordinates (m, s, t): the pole-splitting angle p, the Moebius
center z0, the unimodular factor X with a sign-resolved square root, and
the scaling constants B, Z, A, C of the analytic derivatives.  Each one
has a second, independently published route (vertex-coordinate forms) that
the tests evaluate against these.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DivisionDegenerate, EqualRapidities
from .geometry import HyperbolicCoords, hyperbola_point

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class ScherkData:
    """All scalar data of one surface in the normalized frame."""
    p: float
    e_ip: complex
    z0: complex
    X: complex
    sqrtX: complex
    B: complex
    Z: complex
    A: complex
    C: complex
    coords: HyperbolicCoords

    @property
    def e_2ip(self):
        return self.e_ip * self.e_ip

    @property
    def poles(self):
        """The four boundary poles (1, e^{ip}, -1, -e^{ip})."""
        return (1.0 + 0.0j, self.e_ip, -1.0 + 0.0j, -self.e_ip)


def normalized_vertices(c):
    """Vertices (b1, b2, b3, b4) = (-1, z, 1, w) of the canonical frame."""
    return (-1.0 + 0.0j, hyperbola_point(c.m, c.t), 1.0 + 0.0j,
            hyperbola_point(c.m, c.s))


def angle_parameter(c):
    """Angle p in (0, pi) splitting the circle into the four boundary arcs.

    cos p = 1 - 4/(1 + cosh(s - t)); the positive-sine branch is taken, so
    e_ip = cos p + i sin p with sin p > 0.
    """
    E = 1.0 - 4.0 / (1.0 + math.cosh(c.s - c.t))
    p = math.acos(E)
    if min(p, math.pi - p) < 1e-8:
        raise EqualRapidities("arc endpoints collide (p degenerates to 0 or pi)")
    return p, complex(E, math.sqrt(1.0 - E * E))


def vertex_form_E(z, w):
    """cos p recomputed directly from the free vertices z = x+iy, w = u+iv.

    Cross-check route; singular when (u+x)(v+y) vanishes (e.g. the
    conjugate-symmetric case t = -s), where the rapidity form must be used.
    """
    x, y = complex(z).real, complex(z).imag
    u, v = complex(w).real, complex(w).imag
    den = (u + x) * (v + y)
    if abs(den) <= 1e-12 * max(1.0, (abs(u) + abs(x)) * (abs(v) + abs(y))):
        raise DivisionDegenerate("(u+x)(v+y) vanishes; use the rapidity form")
    return (u * v - 3.0 * v * x - 3.0 * u * y + x * y) / den


def moebius_center(c):
    """Double zero z0 of g' in the open disk (the Moebius center).

    Numerically stable product form: a unimodular factor times
    tanh((k + i m)/2), which also exhibits |z0|^2 = (cosh k - cos m)/
    (cosh k + cos m) directly.
    """
    ej = cmath.exp(-c.j)
    unimod = (1.0 + 1j * ej) / (1.0 - 1j * ej)
    return -unimod * cmath.tanh((c.k + 1j * c.m) / 2.0)


def moebius_center_vertex_form(z, w, p):
    """z0 recomputed from the free vertices and p (cross-check route)."""
    x, y = complex(z).real, complex(z).imag
    u, v = complex(w).real, complex(w).imag
    eip = cmath.exp(1j * p)
    den = (u - x - 2.0 + 1j * (y - v)) + eip * (x - u - 2.0 + 1j * (v - y))
    if abs(den) <= 1e-12 * (4.0 + abs(z) + abs(w)):
        raise DivisionDegenerate("vertex-form z0 denominator vanishes")
    zc = 1j * eip * math.sin(p) * (-(x + u) + 1j * (y + v)) / den
    return -zc


def unimodular_factor(c):
    """Unimodular factor X of the dilatation and its sign-resolved root.

    The square root's sign is fixed so that the residue of h'(z) q(z) at
    z = 1 is +i times a positive real number; this orients the height
    function (which sides of the quadrilateral blow up to -infinity).
    """
    ej = cmath.exp(-c.j)
    emk = cmath.exp(1j * c.m + c.k)
    em = cmath.exp(1j * c.m)
    ek = math.exp(c.k)
    X = ((1j + ej) / (1.0 + 1j * ej)) ** 2 * ((1.0 + emk) / (em + ek)) ** 2
    sqrtX = cmath.sqrt(X)
    z0 = moebius_center(c)
    w = hyperbola_point(c.m, c.s)
    c1 = (1.0 - w) / TWO_PI_I
    q1 = sqrtX * (1.0 - z0) / (1.0 - z0.conjugate())
    if (c1 * q1).imag < 0.0:
        sqrtX = -sqrtX
    return X, sqrtX


def weierstrass_constants(c, p):
    """Scaling constants (B, Z, A, C) of the analytic derivatives.

    B = e^{2ip} h'(0) (h'(0) evaluated from the residue table), Z = X,
    A = B Z, C = B sqrt(X).
    """
    b1, b2, b3, b4 = normalized_vertices(c)
    eip = cmath.exp(1j * p)
    poles = (1.0 + 0.0j, eip, -1.0 + 0.0j, -eip)
    res = [(b3 - b4) / TWO_PI_I, (b4 - b1) / TWO_PI_I,
           (b1 - b2) / TWO_PI_I, (b2 - b3) / TWO_PI_I]
    h0 = -sum(ck / zk for ck, zk in zip(res, poles))
    X, sqrtX = unimodular_factor(c)
    B = eip * eip * h0
    Z = X
    A = B * Z
    C = B * sqrtX
    return B, Z, A, C


def scherk_data(c):
    """Assemble the full ScherkData record for hyperbolic coordinates c."""
    p, e_ip = angle_parameter(c)
    z0 = moebius_center(c)
    X, sqrtX = unimodular_factor(c)
    B, Z, A, C = weierstrass_constants(c, p)
    return ScherkData(p, e_ip, z0, X, sqrtX, B, Z, A, C, c)
