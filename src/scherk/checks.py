"""The self-check suite behind `scherk verify`.

Every check compares a formula implemented in this package against a
route that does not share code with it (quadrature, finite differences,
small-circle residues, Moebius/vertex identities).  CHECKS holds one row
per check, (name, (default_tol, strict_tol), err), in the order verify
prints them; err(d, frame, seed) returns the check's error on the surface
record d built in the normalized frame.  A new check is one more row.
"""

import math
import sys

import numpy as np

from .analysis import (aligning_rotation, center_mixed_derivative,
                       curvature_bound, gauss_curvature, graph_normal)
from .errors import ScherkError
from .harmonic import dilatation, harmonic_map, jacobian, step_boundary
from .oracles import (fd_laplacian, fd_mixed, graph_height_function,
                      kernel_contour_height, numeric_residue, poisson_extension)
from .weierstrass import gauss_map_q, height_T, kernel_K

# Interior points of the contour and Poisson checks.  They stay Python
# complex: height_T and harmonic_map evaluate them one at a time, and a
# numpy scalar rounds differently there.
_POINTS = (0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j)


def _dilatation(d, frame, seed):
    # dilatation is exactly the square of the Moebius Gauss-map factor
    rng = np.random.default_rng(seed)
    r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 40))
    th = rng.uniform(0.0, 2.0 * np.pi, 40)
    zs = r * np.exp(1j * th)
    return np.max(np.abs(dilatation(zs, d) - gauss_map_q(zs, d) ** 2))


def _center_modulus(d, frame, seed):
    c = d.coords
    law = (math.cosh(c.k) - math.cos(c.m)) / (math.cosh(c.k) + math.cos(c.m))
    return abs(abs(d.z0) ** 2 - law)


def _kernel_scale(d, frame, seed):
    # C/(e^{2ip} - 1) collapses to a purely imaginary closed form
    c = d.coords
    key = d.C / (d.e_2ip - 1.0)
    target = -1j * math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (2 * math.pi)
    return abs(key - target)


def _circle_residues(d, frame, seed):
    circle = numeric_residue(lambda u: kernel_K(u, d), np.array(d.poles))
    return max(abs(r - rc) for r, rc in zip(d.k_residues, circle))


def _sign_split(d, frame, seed):
    # signed closed-form residues (+-i lam |...|^2) match the exact ones
    signs = (1j, -1j, 1j, -1j)
    return max(abs(r - sg * cjv) for r, sg, cjv in zip(d.k_residues, signs, d.cj))


def _height_contour(d, frame, seed):
    contour = kernel_contour_height(np.array(_POINTS), d)
    return max(abs(height_T(z, d) - hc) for z, hc in zip(_POINTS, contour))


def _growth_slopes(d, frame, seed):
    # fitted log slopes toward each pole vs +-2 cj
    rs = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])
    slopes = np.polyfit(np.log(1.0 - rs), height_T(np.outer(rs, d.poles), d), 1)[0]
    err = 0.0
    for slope, sg, cjv in zip(slopes, (1.0, -1.0, 1.0, -1.0), d.cj):
        err = max(err, abs(slope - sg * 2.0 * cjv) / abs(2.0 * cjv))
    return err


def _center_curvature(d, frame, seed):
    c = d.coords
    k0 = gauss_curvature(0.0 + 0.0j, d)
    closed = -(math.pi ** 2 / 4.0) * math.cos(c.m) ** 2 \
        / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4)
    return abs(k0 - closed) / abs(closed)


def _bound_attained(d, frame, seed):
    bound = curvature_bound(d, frame)
    attained = abs(gauss_curvature(0.0 + 0.0j, d)) * abs(frame.scale) ** 2
    return abs(attained - bound) / bound


def _graph_normal(d, frame, seed):
    # center normal of the graph vs finite differences of the graph
    F, c0n, h = graph_height_function(d), d.h0, 1e-5
    fu = (F(c0n + h) - F(c0n - h)) / (2 * h)
    fv = (F(c0n + 1j * h) - F(c0n - 1j * h)) / (2 * h)
    nvec = np.array((-fu, -fv, 1.0)) / math.sqrt(fu * fu + fv * fv + 1.0)
    return np.max(np.abs(nvec - np.array(graph_normal(d))))


def _aligned_mixed(d, frame, seed):
    # the aligning rotation really kills the rotated mixed derivative
    rot, F = np.exp(1j * aligning_rotation(d)), graph_height_function(d)
    return abs(fd_mixed(lambda wp: F(wp / rot), rot * d.h0, h=1e-4))


def _jacobian(d, frame, seed):
    # the harmonic map is sense-preserving
    rr = np.linspace(0.03, 0.999, 30)
    th = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    grid = np.outer(rr, np.exp(1j * th)).ravel()
    return max(0.0, -float(np.min(jacobian(grid, d))))


def _winding(d, frame, seed):
    # the boundary curve winds once around the center
    circle = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
    vals = harmonic_map(circle, d) - d.h0
    winding = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * np.pi)
    return abs(winding - 1.0)


def _poisson(d, frame, seed):
    # the harmonic map vs the Poisson integral of its boundary step
    poisson = poisson_extension(np.array(_POINTS), step_boundary(d))
    return max(abs(harmonic_map(z, d) - pe) for z, pe in zip(_POINTS, poisson))


def _laplacian(d, frame, seed):
    # harmonicity of both map components and of the height
    err = 0.0
    for z in (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.35j):
        lap = fd_laplacian(lambda u: harmonic_map(u, d), z)
        err = max(err, abs(lap.real), abs(lap.imag))
        err = max(err, abs(fd_laplacian(lambda u: height_T(u, d), z)))
    return err


def _boundary_steps(d, frame, seed):
    # radial boundary limits hit the step values mid-arc
    arcs = step_boundary(d)
    mids = np.array([0.5 * (lo + hi) for (lo, hi), _ in arcs])
    limits = harmonic_map((1.0 - 1e-6) * np.exp(1j * mids), d)
    err = 0.0
    for (_, value), limit in zip(arcs, limits):
        err = max(err, abs(limit - value))
    return err


CHECKS = (
    ("dilatation_is_moebius_square", (1e-10, 1e-12), _dilatation),
    ("unimodular_factor_modulus", (1e-13, 1e-14),
     lambda d, frame, seed: abs(abs(d.X) - 1.0)),
    ("center_modulus_squared_law", (1e-13, 1e-14), _center_modulus),
    ("kernel_scale_identity", (1e-12, 1e-13), _kernel_scale),
    ("kernel_residues_vs_circle_oracle", (1e-7, 1e-8), _circle_residues),
    # residues of a rational function vanishing at infinity sum to zero
    ("kernel_residue_sum", (1e-14, 1e-15),
     lambda d, frame, seed: abs(sum(d.k_residues))),
    ("kernel_residue_sign_split", (1e-12, 1e-13), _sign_split),
    ("height_vs_contour_quadrature", (1e-8, 1e-9), _height_contour),
    ("height_zero_at_center", (1e-14, 1e-15),
     lambda d, frame, seed: abs(height_T(0.0, d))),
    ("radial_growth_slopes", (5e-3, 1e-3), _growth_slopes),
    ("center_curvature_closed_form", (1e-12, 1e-13), _center_curvature),
    ("curvature_bound_attained", (1e-12, 1e-13), _bound_attained),
    ("graph_normal_vs_fd", (1e-5, 1e-6), _graph_normal),
    ("mixed_derivative_vs_fd", (1e-3, 1e-4),
     lambda d, frame, seed: abs(fd_mixed(graph_height_function(d), d.h0, h=1e-4)
                                - center_mixed_derivative(d))),
    ("aligned_mixed_derivative_zero", (1e-3, 1e-4), _aligned_mixed),
    ("jacobian_positive_on_grid", (0.0, 0.0), _jacobian),
    ("boundary_winding_number", (1e-8, 1e-10), _winding),
    ("poisson_extension_agreement", (1e-6, 1e-8), _poisson),
    ("laplacian_defect_fd", (1e-4, 5e-5), _laplacian),
    # f(0) equals the closed-form center
    ("center_value_consistency", (1e-14, 1e-15),
     lambda d, frame, seed: abs(harmonic_map(0.0 + 0.0j, d) - d.h0)),
    ("boundary_step_values", (1e-3, 1e-4), _boundary_steps),
)


def run_checks(d, frame, profile="default", seed=0):
    """Run every row of CHECKS; returns (name, err, tol, ok) rows.

    d is the surface record and frame the normalized frame it was built
    in; the two profiles share the checks and differ only in tolerances.
    A check that raises a ScherkError is a FAIL row with err = inf, and a
    note naming the check and the error goes to stderr.
    """
    pick = 0 if profile == "default" else 1
    rows = []
    for name, tols, err_of in CHECKS:
        try:
            err = float(err_of(d, frame, seed))
        except ScherkError as exc:
            print(f"note: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            err = math.inf
        rows.append((name, err, tols[pick], err <= tols[pick]))
    return rows
