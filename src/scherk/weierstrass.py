"""Weierstrass data and the height function of the minimal graph.

The pair (p, q) = (h', sqrt(g'/h')) generates the graph: q is a Moebius
automorphism of the disk (so the Gauss map covers a hemisphere exactly
once) and the product K = h' q is rational with four simple circle poles,
whose residues drive Scherk-type logarithmic height growth toward the four
sides of Q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import _guard_poles, harmonic_map
from .params import ScherkData


@dataclass(frozen=True)
class HeightKernel:
    """Partial-fraction data of K = h' q.

    residues[i] is the exact residue at poles[i]; lam is the common
    positive scale: the residue is +i lam |1 -+ z0|^2 at +-1 and
    -i lam |1 -+ z0 e^{-ip}|^2 at +-e^{ip}.  cj are the four products
    lam * modulus^2, which are the logarithmic growth rates of T/2.
    """
    C: complex
    z0: complex
    e_2ip: complex
    poles: tuple
    residues: tuple
    lam: float
    cj: tuple


def gauss_map_q(z, d):
    """Moebius factor q(z) = sqrtX (z - z0)/(1 - z conj(z0)); |q| < 1 on the disk."""
    return d.sqrtX * (z - d.z0) / (1.0 - z * np.conj(d.z0))


def kernel_K(z, d):
    """K(z) = C (z - z0)(1 - z conj(z0)) / ((1 - z^2)(e^{2ip} - z^2)).

    Equals h'(z) q(z) identically; the rational form is what the residue
    bookkeeping and the height antiderivative use.
    """
    _guard_poles(z, d.poles)
    return (d.C * (z - d.z0) * (1.0 - z * np.conj(d.z0))
            / ((1.0 - z * z) * (d.e_2ip - z * z)))


def residues(d):
    """Exact residues of K at (1, e^{ip}, -1, -e^{ip}) and the growth scale.

    Residues come from N(pole)/D'(pole) of the rational form, so they are
    exact for the kernel as implemented; lam and cj give the equivalent
    sign-split closed form (checked against these in the tests).
    """
    c = d.coords
    z0, e2 = d.z0, d.e_2ip
    res = []
    for zk in d.poles:
        num = d.C * (zk - z0) * (1.0 - zk * np.conj(z0))
        dprime = -2.0 * zk * (e2 - zk * zk) - 2.0 * zk * (1.0 - zk * zk)
        res.append(num / dprime)
    lam = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (4 * math.pi)
    eip = d.e_ip
    mods = (abs(1.0 - z0) ** 2, abs(1.0 - z0 / eip) ** 2,
            abs(1.0 + z0) ** 2, abs(1.0 + z0 / eip) ** 2)
    cj = tuple(lam * mm for mm in mods)
    return HeightKernel(d.C, z0, e2, d.poles, tuple(res), lam, cj)


def height_T(z, d):
    """Height T(z) = 2 Im sum_j R_j Log(1 - z/pole_j); T(0) = 0.

    Principal logs are safe: |z/pole| < 1 keeps the argument in the unit
    disk about 1.  Grows like +2 cj log(1-r) toward +-1 and -2 cj log(1-r)
    toward +-e^{ip}.
    """
    if np.max(np.abs(z)) > 1.0 - 1e-9:
        raise ValueError("height requires |z| <= 1 - 1e-9")
    hk = residues(d)
    acc = sum(r * np.log(1.0 - z / zk) for r, zk in zip(hk.residues, hk.poles))
    return 2.0 * np.imag(acc)


def asymptotic_constants(d):
    """Growth data (lam, C1, C2, C3, C4) of the four logarithmic laws.

    T(r zeta) ~ +2 C1 log(1-r) toward zeta = 1, -2 C2 toward e^{ip},
    +2 C3 toward -1, -2 C4 toward -e^{ip}.
    """
    hk = residues(d)
    return (hk.lam,) + hk.cj


def surface_point(z, d, frame=None):
    """Point (x, y, height) of the graph over the quadrilateral.

    frame de-normalizes: the in-plane value goes through the inverse
    similarity and the height is scaled by the same length factor
    |b3 - b1|/2, which keeps the surface minimal.
    """
    if abs(z) > 1.0 - 1e-6:
        raise ValueError("surface sampling requires |z| <= 1 - 1e-6")
    fz = harmonic_map(z, d, frame)
    t = height_T(z, d)
    if frame is not None:
        t = t / abs(frame.scale)
    return (float(np.real(fz)), float(np.imag(fz)), float(t))
