"""Curvature, normal, and bending data at the harmonic center.

Everything here is reported for the graph {(u, v, height(u, v))} over the
quadrilateral.  Two unit vectors are exposed at the center: `normal`, the
stereographic image of the Gauss-map value q(0) (the conventional closed
form), and `graph_normal`, the upward normal of the height graph itself,
which the finite-difference oracle reproduces; the two differ by a swap
and sign flip of the horizontal components (see the tests).
"""

import cmath
import math
from dataclasses import dataclass

from .errors import NoRootFound
from .harmonic import h_prime, harmonic_center

ROTATION_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class CenterReport:
    """Closed-form center data of one surface.

    curvature_normalized refers to the canonical (-1, z, 1, w) frame;
    curvature_original and curvature_bound are de-normalized (divided by
    the squared half-diagonal scale).  alpha is the rotation of the
    quadrilateral that zeroes the mixed derivative at the center.
    """
    c0: complex
    q0: complex
    q0_prime: complex
    h0_prime: complex
    curvature_normalized: float
    curvature_original: float
    curvature_bound: float
    normal: tuple
    graph_normal: tuple
    mixed_derivative: float
    alpha: float


def gauss_curvature(z, d):
    """Gauss curvature -4 |q'|^2 / (|h'|^2 (1 + |q|^2)^4) at z (normalized frame)."""
    z0 = d.z0
    qp = d.sqrtX * (1.0 - abs(z0) ** 2) / (1.0 - z * z0.conjugate()) ** 2
    q = d.sqrtX * (z - z0) / (1.0 - z * z0.conjugate())
    hp = h_prime(z, d)
    return -4.0 * abs(qp) ** 2 / (abs(hp) ** 2 * (1.0 + abs(q) ** 2) ** 4)


def center_data(d):
    """Closed forms of (q(0), q'(0), h'(0)) in the rapidity parameters.

    Each agrees with direct evaluation of the Moebius/rational formulas at
    z = 0 (asserted in the tests).
    """
    c = d.coords
    half = (c.k - 1j * c.m) / 2.0
    q0 = -1j * cmath.sinh((c.k + 1j * c.m) / 2.0) / cmath.cosh(half)
    ej = math.exp(c.j)
    q0p = -(1.0 + 1j * ej) * math.cos(c.m) / ((1j + ej) * cmath.cosh(half) ** 2)
    h0p = 2j * (math.exp(2.0 * c.j) - 1.0) * (1.0 + cmath.cosh(c.k - 1j * c.m)) \
        / ((1j + ej) ** 2 * math.pi)
    return q0, q0p, h0p


def _stereo(w):
    den = 1.0 + abs(w) ** 2
    return (2.0 * w.real / den, 2.0 * w.imag / den, (1.0 - abs(w) ** 2) / den)


def center_normal(d):
    """Stereographic image of q(0): (sin m, -cos m tanh k, cos m sech k).

    Unit vector in the upper hemisphere.  This is the conventional
    closed-form direction associated with the Gauss-map value; the actual
    upward normal of the height graph is graph_normal.
    """
    q0, _, _ = center_data(d)
    return _stereo(q0)


def graph_normal(d):
    """Upward unit normal of the height graph at the center.

    Equals the stereographic image of -i conj(q(0)), i.e.
    (cos m tanh k, -sin m, cos m sech k); cross-checked against finite
    differences of the graph and against the tangent cross product.
    """
    q0, _, _ = center_data(d)
    return _stereo(-1j * q0.conjugate())


def rotated_mixed_derivative(d, alpha):
    """Mixed derivative d2/dudv of the height graph at the center after
    rotating the quadrilateral by alpha.

    Closed route through the center data; verified against the
    finite-difference oracle on the rotated graph.  alpha = 0 gives the
    center mixed derivative itself.
    """
    q0, q0p, h0p = center_data(d)
    den = abs(h0p) ** 2 * (1.0 - abs(q0) ** 2) ** 3 * (1.0 + abs(q0) ** 2)
    ea = cmath.exp(1j * alpha)
    num = (ea * h0p) * (1.0 - (q0 / ea) ** 4) * ((q0p / ea).conjugate())
    return 2.0 * num.real / den


def center_mixed_derivative(d):
    """Mixed derivative d2 height/du dv at the harmonic center.

    Evaluates to -(pi/2) coth j sec m; the finite-difference oracle on the
    composed graph reproduces it (see tests).
    """
    return rotated_mixed_derivative(d, 0.0)


def curvature_bound(d, frame):
    """Sharp center-curvature bound of the surface d over its quadrilateral.

    pi^2 cos^2 m coth^2 j sech^4 k / |b1 - b3|^2, with |b1 - b3| =
    2/|frame.scale| read from the normalized frame d was built in; the
    constructed surface attains it in absolute value at the harmonic center.
    """
    c = d.coords
    scale2 = (2.0 / abs(frame.scale)) ** 2
    return (math.pi ** 2 * math.cos(c.m) ** 2
            / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4) / scale2)


def aligning_rotation(d):
    """Smallest rotation angle alpha >= 0 zeroing the center mixed derivative.

    Candidate angles come from the closed form
    +-arccos(+-sqrt(1/2 +- sin m sinh k / (sqrt2 sqrt(cos 2m + cosh 2k))));
    each is verified against rotated_mixed_derivative and the smallest
    nonnegative verified root (mod pi) is returned.
    """
    c = d.coords
    inner = (math.sin(c.m) * math.sinh(c.k)
             / (math.sqrt(2.0) * math.sqrt(math.cos(2 * c.m) + math.cosh(2 * c.k))))
    roots = []
    for s3 in (1.0, -1.0):
        val = 0.5 + s3 * inner
        if not 0.0 <= val <= 1.0:
            continue
        for s2 in (1.0, -1.0):
            base = math.acos(s2 * math.sqrt(val))
            for s1 in (1.0, -1.0):
                cand = (s1 * base) % math.pi
                if abs(rotated_mixed_derivative(d, cand)) < ROTATION_RESIDUAL_TOL:
                    roots.append(cand)
    if not roots:
        raise NoRootFound("no candidate angle zeroes the rotated mixed derivative")
    return min(roots)


def center_report(d, frame):
    """Assemble the full CenterReport of the surface d.

    frame is the NormalizedFrame of the quadrilateral that d was built in.
    """
    q0, q0p, h0p = center_data(d)
    curv_norm = gauss_curvature(0.0 + 0.0j, d)
    curv_orig = curv_norm * abs(frame.scale) ** 2
    bound = curvature_bound(d, frame)
    return CenterReport(
        c0=complex(harmonic_center(d, frame)),
        q0=q0, q0_prime=q0p, h0_prime=h0p,
        curvature_normalized=curv_norm,
        curvature_original=curv_orig,
        curvature_bound=bound,
        normal=center_normal(d),
        graph_normal=graph_normal(d),
        mixed_derivative=center_mixed_derivative(d),
        alpha=aligning_rotation(d),
    )
