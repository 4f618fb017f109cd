"""Weierstrass data and the height function of the minimal graph.

The pair (p, q) = (h', sqrt(g'/h')) generates the graph: q is a Moebius
automorphism of the disk (so the Gauss map covers a hemisphere exactly
once) and the product K = h' q is rational with four simple circle poles,
whose residues drive Scherk-type logarithmic height growth toward the four
sides of Q.  map_and_height gives f and T from one pass over the pole logs;
q itself is params.gauss_map_q.
"""

from collections import namedtuple

import numpy as np

from .harmonic import _guard_poles, _log_sums


class HeightKernel(namedtuple("HeightKernel", "poles residues lam cj")):
    """Partial-fraction data of K = h' q: an immutable named tuple
    (poles, residues, lam, cj).

    residues[i] is the residue at poles[i], q(pole) times the residue of h'
    there; lam is the common positive scale: the residue is
    +i lam |1 -+ z0|^2 at +-1 and -i lam |1 -+ z0 e^{-ip}|^2 at +-e^{ip}.
    cj are the residue moduli, side length / (2 pi), which are the
    logarithmic growth rates of T/2.
    """
    __slots__ = ()


def kernel_K(z, d):
    """K(z) = C (z - z0)(1 - z conj(z0)) / ((1 - z^2)(e^{2ip} - z^2)).

    Equals h'(z) q(z) identically; verify's residue and contour oracles
    integrate this rational form.
    """
    _guard_poles(z, d.poles)
    return (d.C * (z - d.z0) * (1.0 - z * np.conj(d.z0))
            / ((1.0 - z * z) * (d.e_2ip - z * z)))


def residues(d):
    """Residues of K at (1, e^{ip}, -1, -e^{ip}) and the growth scale.

    Read from the record, where scherk_data computed them once as
    q(pole) h_res(pole) from the vertex jumps; verify checks them against
    K's rational form and against the sign-split closed form of lam.
    """
    return HeightKernel(d.poles, d.k_residues, d.lam, d.cj)


def height_T(z, d):
    """Height T(z) = 2 Im sum_j R_j Log(1 - z/pole_j); T(0) = 0.

    Principal logs are safe: |z/pole| < 1 keeps the argument in the unit
    disk about 1.  Grows like +2 cj log(1-r) toward +-1 and -2 cj log(1-r)
    toward +-e^{ip}.
    """
    return 2.0 * np.imag(_log_sums(z, d, d.k_residues)[0])


def map_and_height(z, d):
    """(harmonic_map(z, d), height_T(z, d)) bitwise, from one pass of logs."""
    h, g, k = _log_sums(z, d, d.h_residues, d.g_residues, d.k_residues)
    return d.h0 + h + np.conj(g), 2.0 * np.imag(k)
