"""Curvature, normal, and bending data at the harmonic center.

Everything here is for the graph {(u, v, height(u, v))} over the normalized
quadrilateral (-1, z, 1, w) that d was built in, and takes no frame:
cli.build_report maps the center data back to the input quadrilateral.
The normals and the mixed derivative are closed forms in (m, j, k):
center_normal is the stereographic image of the Gauss-map value q(0), and
graph_normal the upward normal of the height graph, which the Taylor jet
reproduces; the two differ by a swap and sign flip of the horizontal
components.  q(0) is gauss_map_q(0, d); q'(0) and h'(0) are read from the
record (d.q0_prime, d.h0_prime).  No numpy at import: gauss_curvature
imports h_prime only for points other than a scalar zero, so `scherk
analyze` never loads numpy.
"""

import math

from .params import gauss_map_q


def gauss_curvature(z, d):
    """Gauss curvature -4 |q'|^2 / (|h'|^2 (1 + |q|^2)^4) at z (normalized frame)."""
    # h'(0) from the record at any scalar zero, np.complex128(0) included:
    # the residue sum loses digits there at small j.  Elsewhere h_prime's
    # pole guard refuses z before any arithmetic below can overflow.
    hp = d.h0_prime
    if getattr(z, "ndim", 0) != 0 or z != 0:
        from .harmonic import h_prime
        hp = h_prime(z, d)
    # 1 - |z0|^2 = |q'(0)|, as |sqrt(X)| = 1
    qp = d.sqrtX * abs(d.q0_prime) / (1.0 - z * d.z0.conjugate()) ** 2
    q = gauss_map_q(z, d)
    return -4.0 * abs(qp) ** 2 / (abs(hp) ** 2 * (1.0 + abs(q) ** 2) ** 4)


def center_normal(d):
    """Stereographic image of q(0): (sin m, -cos m tanh k, cos m sech k).

    Unit vector in the upper hemisphere.  This is the conventional
    closed-form direction associated with the Gauss-map value; the actual
    upward normal of the height graph is graph_normal.
    """
    c = d.coords
    return (math.sin(c.m), -math.cos(c.m) * math.tanh(c.k),
            math.cos(c.m) / math.cosh(c.k))


def graph_normal(d):
    """Upward unit normal of the height graph at the center.

    (cos m tanh k, -sin m, cos m sech k), the stereographic image of
    -i conj(q(0)); checked against the gradient of the graph's Taylor jet
    and against the tangent cross product.
    """
    c = d.coords
    return (math.cos(c.m) * math.tanh(c.k), -math.sin(c.m),
            math.cos(c.m) / math.cosh(c.k))


def rotated_mixed_derivative(d, alpha):
    """Mixed derivative d2/dudv of the height graph at the center after
    rotating the quadrilateral by alpha.

    -(pi/2) coth j sec m (cos 2 alpha + tan m tanh k sin 2 alpha); verified
    against the Taylor-jet oracle, -2 Im(u_ww e^{-2i alpha}).  alpha = 0
    gives the center mixed derivative itself.
    """
    c = d.coords
    return (-(math.pi / 2.0) / (math.tanh(c.j) * math.cos(c.m))
            * (math.cos(2.0 * alpha)
               + math.tan(c.m) * math.tanh(c.k) * math.sin(2.0 * alpha)))


def center_mixed_derivative(d):
    """Mixed derivative d2 height/du dv at the harmonic center.

    Evaluates to -(pi/2) coth j sec m; the graph's Taylor jet reproduces it
    (see checks), and so do finite differences of the composed graph.
    """
    return rotated_mixed_derivative(d, 0.0)


def curvature_bound(d):
    """Sharp center-curvature bound of d in its normalized frame, where
    |b1 - b3| = 2: pi^2 cos^2 m coth^2 j sech^4 k / |b1 - b3|^2, which the
    surface attains in absolute value at the harmonic center.  Over the
    input quadrilateral it scales like 1/|b1 - b3|^2 (cli.build_report)."""
    c = d.coords
    return (math.pi ** 2 * math.cos(c.m) ** 2
            / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4) / 4.0)


def aligning_rotation(d):
    """Smallest rotation angle alpha >= 0 zeroing the center mixed derivative.

    rotated_mixed_derivative(d, alpha) is a multiple of cos 2 alpha +
    tan m tanh k sin 2 alpha, whose zeros satisfy tan 2 alpha =
    -cot m coth k.  Since cos m > 0 the first zero 2 alpha lies in (0, pi),
    so alpha lies in (0, pi/2) and equals pi/4 at k = 0.
    """
    c = d.coords
    return 0.5 * math.atan2(math.cos(c.m), -math.sin(c.m) * math.tanh(c.k))

