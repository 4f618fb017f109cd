"""Curvature, normal, and bending data at the harmonic center.

Everything here is reported for the graph {(u, v, height(u, v))} over the
quadrilateral.  Two unit vectors are exposed at the center: `normal`, the
stereographic image of the Gauss-map value q(0) (the conventional closed
form), and `graph_normal`, the upward normal of the height graph itself,
which the Taylor-jet oracle reproduces; the two differ by a swap
and sign flip of the horizontal components (see the tests).

q(0), q'(0) and h'(0) are read from the record (d.q0, d.q0_prime,
d.h0_prime).  All of it is in the normalized frame except curvature_bound
and center_report, which take the frame to map results back.
"""

import cmath
import math

from .harmonic import h_prime


def gauss_curvature(z, d):
    """Gauss curvature -4 |q'|^2 / (|h'|^2 (1 + |q|^2)^4) at z (normalized frame)."""
    z0, c = d.z0, d.coords
    one_minus_z0sq = 2.0 * math.cos(c.m) / (math.cosh(c.k) + math.cos(c.m))
    qp = d.sqrtX * one_minus_z0sq / (1.0 - z * z0.conjugate()) ** 2
    q = d.sqrtX * (z - z0) / (1.0 - z * z0.conjugate())
    # h'(0) from the record: the residue sum loses digits there at small j
    hp = d.h0_prime if isinstance(z, complex) and z == 0 else h_prime(z, d)
    return -4.0 * abs(qp) ** 2 / (abs(hp) ** 2 * (1.0 + abs(q) ** 2) ** 4)


def _stereo(w):
    den = 1.0 + abs(w) ** 2
    return (2.0 * w.real / den, 2.0 * w.imag / den, (1.0 - abs(w) ** 2) / den)


def center_normal(d):
    """Stereographic image of q(0): (sin m, -cos m tanh k, cos m sech k).

    Unit vector in the upper hemisphere.  This is the conventional
    closed-form direction associated with the Gauss-map value; the actual
    upward normal of the height graph is graph_normal.
    """
    return _stereo(d.q0)


def graph_normal(d):
    """Upward unit normal of the height graph at the center.

    Equals the stereographic image of -i conj(q(0)), i.e.
    (cos m tanh k, -sin m, cos m sech k); checked against the gradient of
    the graph's Taylor jet and against the tangent cross product.
    """
    return _stereo(-1j * d.q0.conjugate())


def rotated_mixed_derivative(d, alpha):
    """Mixed derivative d2/dudv of the height graph at the center after
    rotating the quadrilateral by alpha.

    Closed route through the center data; verified against the Taylor-jet
    oracle, -2 Im(u_ww e^{-2i alpha}).  alpha = 0 gives the
    center mixed derivative itself.
    """
    q0, q0p, h0p = d.q0, d.q0_prime, d.h0_prime
    den = abs(h0p) ** 2 * (1.0 - abs(q0) ** 2) ** 3 * (1.0 + abs(q0) ** 2)
    ea = cmath.exp(1j * alpha)
    num = (ea * h0p) * (1.0 - (q0 / ea) ** 4) * ((q0p / ea).conjugate())
    return 2.0 * num.real / den


def center_mixed_derivative(d):
    """Mixed derivative d2 height/du dv at the harmonic center.

    Evaluates to -(pi/2) coth j sec m; the graph's Taylor jet reproduces it
    (see checks), and so do finite differences of the composed graph.
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

    rotated_mixed_derivative(d, alpha) is 2 Re(W e^{2i alpha}) / den, whose
    zeros satisfy tan 2 alpha = -cot m coth k.  Since cos m > 0 the first
    zero 2 alpha lies in (0, pi), so alpha lies in (0, pi/2) and equals
    pi/4 at k = 0.
    """
    c = d.coords
    return 0.5 * math.atan2(math.cos(c.m), -math.sin(c.m) * math.tanh(c.k))


def center_report(d, frame):
    """The "center" object of the analyze report of the surface d.

    frame is the NormalizedFrame of the quadrilateral that d was built in;
    c0, curvature and curvature_bound are in the original coordinates.
    """
    curv_norm = gauss_curvature(0.0 + 0.0j, d)
    return {
        "c0": complex(frame.invert(d.h0)), "c0_normalized": d.h0,
        "q0": d.q0, "q0_prime": d.q0_prime, "h0_prime": d.h0_prime,
        "curvature": curv_norm * abs(frame.scale) ** 2,
        "curvature_normalized": curv_norm,
        "curvature_bound": curvature_bound(d, frame),
        "normal": list(center_normal(d)), "graph_normal": list(graph_normal(d)),
        "mixed_derivative": center_mixed_derivative(d),
        "alpha": aligning_rotation(d),
    }
