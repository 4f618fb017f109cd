"""Closed-form parameters of the construction.

Everything the surface needs is a handful of constants computed once from
the hyperbolic coordinates (m, s, t): the pole-splitting angle p, the
Moebius center z0, the unimodular factor X and its root, the scaling
constants B, A, C, and the pole residues, read off the vertex jumps.  Their
second routes (vertex-coordinate forms, K's rational form) are checks.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import EqualRapidities, OutOfDomain
from .geometry import TOL_RAPIDITY, HyperbolicCoords, hyperbola_point

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class ScherkData:
    """All scalar data of one surface in the normalized frame.

    h_residues, g_residues and k_residues are the residues of h', g' and
    K = h' q at the poles (1, e^{ip}, -1, -e^{ip}): the vertex jumps
    (b3 - b4, b4 - b1, b1 - b2, b2 - b3)/(2 pi i), their negated conjugates
    and q(pole) times the jumps.  cj = |h_residues| are the growth rates of
    T/2, each a side length over 2 pi (the Jenkins-Serrin flux); lam is the
    scale of verify's check cj = lam |1 -+ z0|^2, lam |1 -+ z0 e^{-ip}|^2.
    h0 = h(0) = f(0).  q0, q0_prime and h0_prime are q(0), q'(0) and h'(0),
    closed forms in the rapidity parameters that the tests check against
    direct evaluation at z = 0.
    """
    p: float
    e_ip: complex
    z0: complex
    X: complex
    sqrtX: complex
    B: complex
    C: complex
    poles: tuple
    h_residues: tuple
    g_residues: tuple
    k_residues: tuple
    lam: float
    cj: tuple
    h0: complex
    q0: complex
    q0_prime: complex
    h0_prime: complex
    coords: HyperbolicCoords

    @property
    def e_2ip(self):
        return self.e_ip * self.e_ip

    @property
    def A(self):
        return self.B * self.X


def normalized_vertices(c):
    """Vertices (b1, b2, b3, b4) = (-1, z, 1, w) of the canonical frame."""
    return (-1.0 + 0.0j, hyperbola_point(c.m, c.t), 1.0 + 0.0j,
            hyperbola_point(c.m, c.s))


def _half_angle(j):
    """e^{ip/2} = tanh j + i sech j, unimodular, in the first quadrant for j > 0."""
    return complex(math.tanh(j), 1.0 / math.cosh(j))


def angle_parameter(c):
    """Angle p in (0, pi) splitting the circle into the four boundary arcs.

    p = 2 atan2(1, sinh |j|) and e_ip = (tanh |j| + i sech |j|)^2, even in j;
    cos p = 1 - 2 sech^2 j and sin p = 2 tanh |j| sech j > 0.  Refused:
    pi - p < TOL_RAPIDITY (s = t) and p < 1e-8 (|j| above about 19.8).
    """
    p = 2.0 * math.atan2(1.0, math.sinh(abs(c.j)))
    if math.pi - p < TOL_RAPIDITY:  # pi - p ~ 2 |j| = |s - t|
        raise EqualRapidities(f"arc endpoints collide (p ~ pi) at s={c.s!r}, t={c.t!r}")
    if p < 1e-8:
        raise OutOfDomain(f"p < 1e-8 at m={c.m!r}, s={c.s!r}, t={c.t!r}, "
                          f"j={c.j!r}, p={p!r}")
    return p, _half_angle(abs(c.j)) ** 2


def moebius_center(c):
    """Double zero z0 = -e^{ip/2} tanh((k + i m)/2) of g' in the open disk
    (the Moebius center); |z0|^2 = (cosh k - cos m)/(cosh k + cos m)."""
    return -_half_angle(c.j) * cmath.tanh((c.k + 1j * c.m) / 2.0)


def unimodular_factor(c):
    """Unimodular factor X of the dilatation and its square root.

    sqrtX = -i e^{-ip/2} cosh w / cosh conj(w), w = (k + i m)/2.  Of the two
    roots this is the one that orients the height function: the residue of
    h'(z) q(z) at z = 1 is +i times a positive real number, so T blows up
    to -infinity toward +-1.
    """
    w = (c.k + 1j * c.m) / 2.0
    sqrtX = -1j * _half_angle(c.j).conjugate() * cmath.cosh(w) \
        / cmath.cosh(w.conjugate())
    return sqrtX * sqrtX, sqrtX


def scherk_data(c):
    """Assemble the full ScherkData record for hyperbolic coordinates c.

    Every constant is a closed form in e^{ip/2} = tanh j + i sech j and
    w = (k + i m)/2: h'(0) = (4i/pi) tanh j e^{-ip/2} cosh^2 conj(w),
    q(0) = -i sinh w / cosh conj(w), q'(0) = -i e^{-ip/2} cos m /
    cosh^2 conj(w), and B = e^{2ip} h'(0), A = B X, C = B sqrt(X); the
    report's Z is X.  j < 0 (s < t) is refused: p is even in j, z0 is not.
    """
    if c.j < 0.0:
        raise OutOfDomain(f"j < 0 at m={c.m!r}, s={c.s!r}, t={c.t!r}, j={c.j!r}")
    p, e_ip = angle_parameter(c)
    b1, b2, b3, b4 = normalized_vertices(c)
    hres = ((b3 - b4) / TWO_PI_I, (b4 - b1) / TWO_PI_I,
            (b1 - b2) / TWO_PI_I, (b2 - b3) / TWO_PI_I)
    z0 = moebius_center(c)
    X, sqrtX = unimodular_factor(c)
    poles = (1.0 + 0.0j, e_ip, -1.0 + 0.0j, -e_ip)
    # K = h' q: its residue at each pole is q(pole) times the residue of h'
    kres = tuple(sqrtX * (zk - z0) / (1.0 - zk * z0.conjugate()) * r
                 for zk, r in zip(poles, hres))
    lam = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (4 * math.pi)
    w = (c.k + 1j * c.m) / 2.0
    half_bar, cosh_wbar = _half_angle(c.j).conjugate(), cmath.cosh(w.conjugate())
    q0 = -1j * cmath.sinh(w) / cosh_wbar
    q0p = -1j * half_bar * math.cos(c.m) / cosh_wbar ** 2
    h0p = (4j / math.pi) * math.tanh(c.j) * half_bar * cosh_wbar ** 2
    B = e_ip * e_ip * h0p
    return ScherkData(
        p=p, e_ip=e_ip, z0=z0, X=X, sqrtX=sqrtX, B=B, C=B * sqrtX, poles=poles,
        h_residues=hres, g_residues=tuple(-r.conjugate() for r in hres),
        k_residues=kres, lam=lam, cj=tuple(abs(r) for r in hres),
        h0=p * (b2 + b4) / (2 * math.pi), q0=q0, q0_prime=q0p, h0_prime=h0p,
        coords=c)
