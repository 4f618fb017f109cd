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

import numpy as np

from .errors import EqualRapidities
from .geometry import HyperbolicCoords, hyperbola_point

TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class ScherkData:
    """All scalar data of one surface in the normalized frame.

    h_residues, g_residues and k_residues are the residues of h', g' and
    the height kernel K = h' q at the poles (1, e^{ip}, -1, -e^{ip});
    lam is the kernel's growth scale and cj the four growth rates of T/2
    (see weierstrass.HeightKernel); h0 = h(0) = f(0).  q0, q0_prime and
    h0_prime are q(0), q'(0) and h'(0), closed forms in the rapidity
    parameters that the tests check against direct evaluation at z = 0.
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
    def Z(self):
        return self.X

    @property
    def A(self):
        return self.B * self.X


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


def moebius_center(c):
    """Double zero z0 of g' in the open disk (the Moebius center).

    Numerically stable product form: a unimodular factor times
    tanh((k + i m)/2), which also exhibits |z0|^2 = (cosh k - cos m)/
    (cosh k + cos m) directly.
    """
    ej = cmath.exp(-c.j)
    unimod = (1.0 + 1j * ej) / (1.0 - 1j * ej)
    return -unimod * cmath.tanh((c.k + 1j * c.m) / 2.0)


def unimodular_factor(c, z0, c1):
    """Unimodular factor X of the dilatation and its sign-resolved root.

    z0 is the Moebius center and c1 the residue of h' at z = 1.  The
    square root's sign is fixed so that the residue of h'(z) q(z) at
    z = 1 is +i times a positive real number; this orients the height
    function (which sides of the quadrilateral blow up to -infinity).
    """
    ej = cmath.exp(-c.j)
    emk = cmath.exp(1j * c.m + c.k)
    em = cmath.exp(1j * c.m)
    ek = math.exp(c.k)
    X = ((1j + ej) / (1.0 + 1j * ej)) ** 2 * ((1.0 + emk) / (em + ek)) ** 2
    sqrtX = cmath.sqrt(X)
    q1 = sqrtX * (1.0 - z0) / (1.0 - z0.conjugate())
    if (c1 * q1).imag < 0.0:
        sqrtX = -sqrtX
    return X, sqrtX


def _kernel_residues(c, C, z0, e_ip, poles):
    """Residues of K = h' q at the poles, its growth scale lam and rates cj.

    Residues come from N(pole)/D'(pole) of the rational form of K, so they
    are exact for the kernel as implemented; lam and cj give the
    equivalent sign-split closed form +-i cj (checked in the tests).
    """
    e2 = e_ip * e_ip
    res = []
    for zk in poles:
        num = C * (zk - z0) * (1.0 - zk * np.conj(z0))
        dprime = -2.0 * zk * (e2 - zk * zk) - 2.0 * zk * (1.0 - zk * zk)
        res.append(num / dprime)
    lam = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (4 * math.pi)
    mods = (abs(1.0 - z0) ** 2, abs(1.0 - z0 / e_ip) ** 2,
            abs(1.0 + z0) ** 2, abs(1.0 + z0 / e_ip) ** 2)
    return tuple(res), lam, tuple(lam * mm for mm in mods)


def scherk_data(c):
    """Assemble the full ScherkData record for hyperbolic coordinates c.

    B = e^{2ip} h'(0), Z = X, A = B Z and C = B sqrt(X).
    """
    p, e_ip = angle_parameter(c)
    b1, b2, b3, b4 = normalized_vertices(c)
    hres = ((b3 - b4) / TWO_PI_I, (b4 - b1) / TWO_PI_I,
            (b1 - b2) / TWO_PI_I, (b2 - b3) / TWO_PI_I)
    # exp(ip), not e_ip: they differ in the last bits; B, A, C keep theirs.
    eip = cmath.exp(1j * p)
    exp_poles = (1.0 + 0.0j, eip, -1.0 + 0.0j, -eip)
    h_prime0 = -sum(ck / zk for ck, zk in zip(hres, exp_poles))
    B = eip * eip * h_prime0
    z0 = moebius_center(c)
    X, sqrtX = unimodular_factor(c, z0, hres[0])
    C = B * sqrtX
    poles = (1.0 + 0.0j, e_ip, -1.0 + 0.0j, -e_ip)
    kres, lam, cj = _kernel_residues(c, C, z0, e_ip, poles)
    half = (c.k - 1j * c.m) / 2.0
    q0 = -1j * cmath.sinh((c.k + 1j * c.m) / 2.0) / cmath.cosh(half)
    ej = math.exp(c.j)
    q0p = -(1.0 + 1j * ej) * math.cos(c.m) / ((1j + ej) * cmath.cosh(half) ** 2)
    h0p = 2j * (math.exp(2.0 * c.j) - 1.0) * (1.0 + cmath.cosh(c.k - 1j * c.m)) \
        / ((1j + ej) ** 2 * math.pi)
    return ScherkData(
        p=p, e_ip=e_ip, z0=z0, X=X, sqrtX=sqrtX, B=B, C=C, poles=poles,
        h_residues=hres, g_residues=tuple(-r.conjugate() for r in hres),
        k_residues=kres, lam=lam, cj=cj, h0=p * (b2 + b4) / (2 * math.pi),
        q0=q0, q0_prime=q0p, h0_prime=h0p, coords=c)
