"""Closed-form parameters of the construction.

Everything the surface needs is a handful of constants computed once from
the hyperbolic coordinates (m, s, t): the pole-splitting angle p, the
Moebius center z0, the unimodular factor X and its root, the scaling
constants B, A, C, the canonical vertices and the pole residues read off
their jumps, and q(z).
All are math/cmath; second routes (vertex forms, K's rational form) are checks.
"""

import cmath
import math
from collections import namedtuple

from .errors import EqualRapidities, OutOfDomain
from .geometry import TOL_RAPIDITY, HyperbolicCoords, hyperbola_point

TWO_PI_I = 2j * math.pi


class ScherkData(namedtuple(
        "ScherkData", "p e_ip z0 X sqrtX B C poles h_residues g_residues "
        "k_residues lam cj h0 q0_prime h0_prime vertices coords")):
    """All scalar data of one surface in the normalized frame, as an
    immutable named tuple of 18 fields; e_2ip and A are derived properties.

    vertices = (b1, b2, b3, b4) = (-1, z, 1, w) is the canonical frame's
    quadrilateral, the values f takes on the four boundary arcs.  h_residues,
    g_residues and k_residues are the residues of h', g' and K = h' q at
    the poles (1, e^{ip}, -1, -e^{ip}): the vertex jumps
    (b3 - b4, b4 - b1, b1 - b2, b2 - b3)/(2 pi i), their negated conjugates
    and q(pole) times the jumps.  cj = |h_residues| are the growth rates of
    T/2, each a side length over 2 pi (the Jenkins-Serrin flux); lam is the
    scale of verify's check cj = lam |1 -+ z0|^2, lam |1 -+ z0 e^{-ip}|^2.
    h0 = h(0) = f(0).  q0_prime and h0_prime are q'(0) and h'(0), closed
    forms in the rapidity parameters that the tests check against direct
    evaluation at z = 0; q(0) itself is gauss_map_q(0, d).  coords is the
    record's HyperbolicCoords.
    """
    __slots__ = ()

    @property
    def e_2ip(self):
        return self.e_ip * self.e_ip

    @property
    def A(self):
        return self.B * self.X


def _half_angle(j):
    """e^{ip/2} = tanh j + i sech j, unimodular, in the first quadrant for j > 0."""
    return complex(math.tanh(j), 1.0 / math.cosh(j))


def angle_parameter(c):
    """Angle p in (0, pi) splitting the circle into the four boundary arcs.

    p = 2 atan2(1, sinh |j|) and e_ip = (tanh |j| + i sech |j|)^2, even in j;
    cos p = 1 - 2 sech^2 j and sin p = 2 tanh |j| sech j > 0.  Refused:
    pi - p < TOL_RAPIDITY (s = t) and p < 1e-8 (|j| above about 19.8).
    """
    try:
        p = 2.0 * math.atan2(1.0, math.sinh(abs(c.j)))
    except OverflowError:  # |j| > 710: p ~ 4 e^{-|j|}, far below 1e-8
        p = 4.0 * math.exp(-abs(c.j))
    if math.pi - p < TOL_RAPIDITY:  # pi - p ~ 2 |j| = |s - t|
        raise EqualRapidities(f"arc endpoints collide (p ~ pi) at s={c.s!r}, t={c.t!r}")
    if p < 1e-8:
        raise OutOfDomain(f"p < 1e-8 at m={c.m!r}, s={c.s!r}, t={c.t!r}, "
                          f"j={c.j!r}, p={p!r}")
    return p, _half_angle(abs(c.j)) ** 2


def _moebius(z, sqrtX, z0):
    return sqrtX * (z - z0) / (1.0 - z * z0.conjugate())


def gauss_map_q(z, d):
    """Moebius factor q(z) = sqrtX (z - z0)/(1 - z conj(z0)); |q| < 1 on the disk."""
    return _moebius(z, d.sqrtX, d.z0)


def scherk_data(c):
    """Assemble the full ScherkData record for hyperbolic coordinates c.

    The vertices (-1, z, 1, w) put z and w on the hyperbolas of t and s,
    and the h' residues are their jumps over 2 pi i.  Every other constant
    is a closed form in e^{ip/2} = tanh j + i sech j and w = (k + i m)/2:
    the Moebius center z0 = -e^{ip/2} tanh w, the double zero of g' in the
    disk, with |z0|^2 = (cosh k - cos m)/(cosh k + cos m);
    sqrt(X) = -i e^{-ip/2} cosh w / cosh conj(w), the root of the unimodular
    factor X that makes the residue of h' q at z = 1 +i times a positive
    real, so T blows up to -infinity toward +-1; h'(0) = (4i/pi) tanh j
    e^{-ip/2} cosh^2 conj(w), q'(0) = -i e^{-ip/2} cos m / cosh^2 conj(w),
    and B = e^{2ip} h'(0), A = B X, C = B sqrt(X); the report's Z is X and
    its q(0) is gauss_map_q(0, d) = -sqrt(X) z0.  Refused: a non-finite
    coordinate, and j < 0 (s < t), as p is even in j and z0 is not.
    """
    if not all(map(math.isfinite, c)):  # nan passes the j and p tests below
        raise OutOfDomain(f"coordinates must be finite; got m={c.m!r}, s={c.s!r}, "
                          f"t={c.t!r}, j={c.j!r}, k={c.k!r}")
    if c.j < 0.0:
        raise OutOfDomain(f"j < 0 at m={c.m!r}, s={c.s!r}, t={c.t!r}, j={c.j!r}")
    p, e_ip = angle_parameter(c)
    b1, b2, b3, b4 = (-1.0 + 0.0j, hyperbola_point(c.m, c.t), 1.0 + 0.0j,
                      hyperbola_point(c.m, c.s))
    hres = ((b3 - b4) / TWO_PI_I, (b4 - b1) / TWO_PI_I,
            (b1 - b2) / TWO_PI_I, (b2 - b3) / TWO_PI_I)
    half, w = _half_angle(c.j), (c.k + 1j * c.m) / 2.0
    half_bar, cosh_wbar = half.conjugate(), cmath.cosh(w.conjugate())
    z0 = -half * cmath.tanh(w)
    sqrtX = -1j * half_bar * cmath.cosh(w) / cosh_wbar
    X = sqrtX * sqrtX
    poles = (1.0 + 0.0j, e_ip, -1.0 + 0.0j, -e_ip)
    # K = h' q: its residue at each pole is q(pole) times the residue of h'
    kres = tuple(_moebius(zk, sqrtX, z0) * r for zk, r in zip(poles, hres))
    lam = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (4 * math.pi)
    q0p = -1j * half_bar * math.cos(c.m) / cosh_wbar ** 2
    h0p = (4j / math.pi) * math.tanh(c.j) * half_bar * cosh_wbar ** 2
    B = e_ip * e_ip * h0p
    return ScherkData(
        p=p, e_ip=e_ip, z0=z0, X=X, sqrtX=sqrtX, B=B, C=B * sqrtX, poles=poles,
        h_residues=hres, g_residues=tuple(-r.conjugate() for r in hres),
        k_residues=kres, lam=lam, cj=tuple(abs(r) for r in hres),
        h0=p * (b2 + b4) / (2 * math.pi), q0_prime=q0p, h0_prime=h0p,
        vertices=(b1, b2, b3, b4), coords=c)
