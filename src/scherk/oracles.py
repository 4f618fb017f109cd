"""Independent numeric oracles.

Every closed-form quantity in the package is double-checked against one of
these: adaptive quadrature of the Poisson integral, contour integration of
the height kernel, small-circle residue averages with Richardson
extrapolation, finite-difference Laplacians and mixed derivatives, and a
Newton inversion of the harmonic map.  None of them reuse the closed forms
they are meant to test.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NewtonDiverged,
    PoleProximity,
    StencilOutOfDomain,
    ToleranceNotMet,
)
from .harmonic import g_prime, h_prime, harmonic_map
from .weierstrass import height_T, kernel_K


@dataclass(frozen=True)
class QuadratureConfig:
    """Adaptive Gauss-Legendre panel settings."""
    abs_tol: float = 1e-10
    max_depth: int = 24
    n_nodes: int = 10


_DEFAULT_CFG = QuadratureConfig()


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1]; shared, never mutated."""
    return np.polynomial.legendre.leggauss(n_nodes)


def _panel(fn, a, b, nodes, weights):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * v for w, v in zip(weights, fn(mid + half * nodes)))


def _adaptive(fn, a, b, whole, cfg, nodes, weights, depth):
    # whole is the panel over [a, b], already computed by the caller
    mid = 0.5 * (a + b)
    left = _panel(fn, a, mid, nodes, weights)
    right = _panel(fn, mid, b, nodes, weights)
    if abs(whole - (left + right)) < cfg.abs_tol:
        return left + right
    if depth >= cfg.max_depth:
        raise ToleranceNotMet(
            f"quadrature stalled on [{a}, {b}] at depth {depth}")
    return (_adaptive(fn, a, mid, left, cfg, nodes, weights, depth + 1)
            + _adaptive(fn, mid, b, right, cfg, nodes, weights, depth + 1))


def adaptive_quad(fn, a, b, cfg=None):
    """Adaptive Gauss-Legendre integral of fn over [a, b].

    fn is evaluated elementwise on a numpy array of the cfg.n_nodes nodes
    of one panel per call, so it must be written with numpy operations
    (np.exp, not math.exp).  It may return complex values; the
    halve-and-compare error estimate is applied to the combined value.
    """
    cfg = cfg or _DEFAULT_CFG
    nodes, weights = _gauss_legendre(cfg.n_nodes)
    whole = _panel(fn, a, b, nodes, weights)
    return _adaptive(fn, a, b, whole, cfg, nodes, weights, 0)


def composite_quad(fn, a, b, n_panels, cfg=None):
    """Fixed composite Gauss-Legendre rule with n_panels equal panels.

    Non-adaptive companion of adaptive_quad used to observe convergence
    under panel halving.  Like adaptive_quad, fn is evaluated elementwise
    on a numpy array of one panel's nodes per call.
    """
    cfg = cfg or _DEFAULT_CFG
    nodes, weights = _gauss_legendre(cfg.n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    return sum(_panel(fn, lo, hi, nodes, weights)
               for lo, hi in zip(edges[:-1], edges[1:]))


def poisson_extension(z, boundary, cfg=None):
    """Harmonic extension of a piecewise-constant boundary function at z.

    Integrates the Poisson kernel (1 - |z|^2) / |e^{it} - z|^2 over each
    constant arc of `boundary` separately, so arc endpoints never fall
    inside a quadrature panel.  The kernel is evaluated elementwise on a
    numpy array of one panel's angles per call.
    """
    z = complex(z)
    r2 = abs(z) ** 2

    def kernel(t):
        return (1.0 - r2) / abs(np.exp(1j * t) - z) ** 2

    total = 0.0 + 0.0j
    for (lo, hi), value in boundary.arcs:
        total += value * adaptive_quad(kernel, lo, hi, cfg)
    return total / (2.0 * math.pi)


def contour_height(z, kernel, cfg=None):
    """Height at z as 2 Im of the kernel integral along the segment [0, z].

    kernel is evaluated elementwise on a numpy array of the points of one
    quadrature panel per call, so it must be written with numpy operations.
    """
    z = complex(z)

    def integrand(tau):
        return kernel(tau * z) * z

    return 2.0 * (adaptive_quad(integrand, 0.0, 1.0, cfg)).imag


def numeric_residue(fn, pole, n_angles=64, eps=(1e-4, 1e-5)):
    """Residue of fn at `pole` from small-circle averages.

    The mean of (z - pole) fn(z) over a circle of radius eps equals the
    residue plus an O(eps) bias from the neighbouring poles; Richardson
    extrapolation over the two radii removes the linear term.  fn is
    evaluated elementwise on a numpy array of the n_angles circle points,
    once per radius, so it must be written with numpy operations.
    """
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles

    def mean(radius):
        zs = pole + radius * np.exp(1j * angles)
        return ((zs - pole) * fn(zs)).mean()

    e1, e2 = eps
    return (e1 * mean(e2) - e2 * mean(e1)) / (e1 - e2)


def fd_laplacian(field, z, h=1e-3, domain_radius=None):
    """Five-point finite-difference Laplacian of a real field at z."""
    z = complex(z)
    if domain_radius is not None and abs(z) + h >= domain_radius:
        raise StencilOutOfDomain(
            f"stencil of half-width {h} at |z| = {abs(z):.6g} leaves the "
            f"domain of radius {domain_radius:.6g}")
    return (field(z + h) + field(z - h) + field(z + 1j * h) + field(z - 1j * h)
            - 4.0 * field(z)) / h ** 2


def fd_mixed(fn, point, h=1e-4):
    """Four-point finite-difference mixed derivative d2 fn / dx dy at point."""
    point = complex(point)
    return (fn(point + h + 1j * h) - fn(point + h - 1j * h)
            - fn(point - h + 1j * h) + fn(point - h - 1j * h)) / (4.0 * h ** 2)


def newton_invert(d, target, seed=0.0, tol=1e-12, max_iter=50, frame=None):
    """Invert the harmonic map: find z in the disk with f(z) = target.

    Newton steps use the Wirtinger derivatives of f = h + conj(g):
    dz = (conj(h') r - conj(g') conj(r)) / (|h'|^2 - |g'|^2) with residual
    r = target - f(z).  Steps are halved until the iterate stays inside
    the disk and the residual decreases, so targets far from f(seed) do
    not throw the iteration out of the domain.  Raises NewtonDiverged if
    no descent step exists or tol is not reached within max_iter steps.
    """
    z = complex(seed)
    target = complex(target)
    r = target - harmonic_map(z, d, frame)
    for _ in range(max_iter):
        if abs(r) < tol:
            return z
        try:
            hp = h_prime(z, d, frame)
            gp = g_prime(z, d, frame)
        except PoleProximity as exc:
            # an out-of-image target drags the iterate into a boundary pole
            raise NewtonDiverged(f"iterate approached a boundary pole ({exc})")
        denom = abs(hp) ** 2 - abs(gp) ** 2
        if denom <= 0.0:
            raise NewtonDiverged("Jacobian is not positive at the iterate")
        dz = (hp.conjugate() * r - gp.conjugate() * r.conjugate()) / denom
        step = 1.0
        while True:
            z_new = z + step * dz
            if abs(z_new) < 1.0:
                try:
                    r_new = target - harmonic_map(z_new, d, frame)
                except PoleProximity:
                    r_new = None  # trial point hugs a boundary pole: reject
                if r_new is not None and abs(r_new) < abs(r):
                    break
            step *= 0.5
            if step < 1e-14:
                raise NewtonDiverged("no residual-decreasing step exists; "
                                     "target may lie outside the image")
        z, r = z_new, r_new
    raise NewtonDiverged(f"no convergence to {tol} in {max_iter} steps")


def graph_height_function(d):
    """Height of the surface as a function over the quadrilateral.

    Returns a callable w -> height at the planar point w (normalized
    frame), computed by Newton-inverting the harmonic map and evaluating
    the height integral there.  Purely numeric; used as the ground truth
    for the center derivative checks.
    """
    def height_at(w):
        return height_T(newton_invert(d, w), d)

    return height_at


def kernel_contour_height(z, d, cfg=None):
    """Height at z by integrating the closed kernel along [0, z]."""
    return contour_height(z, lambda u: kernel_K(u, d), cfg)
