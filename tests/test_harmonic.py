"""The harmonic map f = h + conj(g): residues, Poisson agreement, geometry."""

import cmath
import math

import numpy as np
import pytest

from scherk import (PoleProximity, analytic_parts, dilatation,
                    g_prime, gauss_curvature, gauss_map_q, h_prime,
                    harmonic_map, height_T, jacobian, kernel_K,
                    map_and_height, normalize, poisson_extension,
                    step_boundary, validate_quadrilateral)
from scherk.cli import build_report
from conftest import disk_points

C0_CASE1 = 0.298933832635220044875722312242 + 0.5524457420684848288083219245j
C0_CASE2 = 0.234294879480996107591142024427 + 0.254774756337459863218731547597j


def test_residue_tables(sweep_cases):
    for _, _, _, d in sweep_cases:
        parts = analytic_parts(d)
        assert abs(sum(parts.h_residues)) < 1e-15
        assert abs(sum(parts.g_residues)) < 1e-15
        for hr, gr in zip(parts.h_residues, parts.g_residues):
            assert gr == -hr.conjugate()


def test_step_boundary_covers_circle(case1):
    _, frame, _, d = case1
    arcs = step_boundary(d)
    assert arcs[0][0] == (0.0, d.p)
    assert arcs[-1][0][1] == 2 * math.pi
    for (lo, hi), _ in arcs:
        assert hi > lo
    values = [v for _, v in arcs]
    for got, want in zip(values, [frame.w, -1, frame.z, 1]):
        assert abs(got - want) < 1e-12


def test_dilatation_is_moebius_square(sweep_cases, rng):
    pts = disk_points(rng, 30, 0.92)
    for _, _, _, d in sweep_cases[:40]:
        err = max(abs(dilatation(z, d) - gauss_map_q(z, d) ** 2) for z in pts)
        assert err < 1e-12


def test_dilatation_modulus_below_one(case1, rng):
    _, _, _, d = case1
    for z in disk_points(rng, 200, 0.999):
        assert abs(dilatation(z, d)) < 1.0


def test_harmonic_map_matches_poisson_integral(case1, case2, rng):
    for _, _, _, d in (case1, case2):
        sb = step_boundary(d)
        for z in disk_points(rng, 5, 0.8):
            assert abs(harmonic_map(z, d) - poisson_extension(z, sb)) < 1e-8


def test_center_values(case1, case2):
    for (_, _, _, d), want in ((case1, C0_CASE1), (case2, C0_CASE2)):
        assert abs(d.h0 - want) < 1e-14
        assert abs(harmonic_map(0.0 + 0.0j, d) - want) < 1e-14


def test_center_in_original_coordinates(case1, rng):
    q, _, _, d = case1
    a = 1.5 - 0.5j
    b = -2.0 + 1.0j
    moved = validate_quadrilateral([a * v + b for v in q.vertices])
    frame, _, _ = normalize(moved)
    c0 = build_report(moved, frame, d)["center"]["c0"]
    assert abs(c0 - (a * d.h0 + b)) < 1e-13


def test_jacobian_positive_inside(case1, case2):
    rr = np.linspace(0.02, 0.999, 40)
    th = np.linspace(0.0, 2 * np.pi, 80, endpoint=False)
    grid = np.outer(rr, np.exp(1j * th)).ravel()
    for _, _, _, d in (case1, case2):
        assert float(np.min(jacobian(grid, d))) > 0.0


def test_derivative_pair_is_bitwise_the_two_pole_sums(case1, rng):
    import scherk.harmonic as harmonic
    _, _, _, d = case1
    zs = disk_points(rng, 9, 0.92)
    for z in (zs, complex(zs[0])):
        hp = sum(c / (z - zk) for c, zk in zip(d.h_residues, d.poles))
        gp = sum(c / (z - zk) for c, zk in zip(d.g_residues, d.poles))
        for got in (harmonic._derivatives(z, d), (h_prime(z, d), g_prime(z, d))):
            assert np.all(got[0] == hp) and np.all(got[1] == gp)
    with pytest.raises(PoleProximity):
        harmonic._derivatives(d.e_ip * (1.0 - 1e-12), d)


def test_evaluators_map_empty_arrays_to_empty_arrays(case1):
    # the pole guard's minimum starts from inf, so no point is needed
    _, _, _, d = case1
    for empty in (np.array([], complex), np.empty((2, 0), complex)):
        for fn in (h_prime, g_prime, dilatation, jacobian, kernel_K,
                   harmonic_map, height_T, gauss_map_q, gauss_curvature):
            got = fn(empty, d)
            assert isinstance(got, np.ndarray) and got.shape == empty.shape
        assert [v.shape for v in map_and_height(empty, d)] == [empty.shape] * 2


def test_array_evaluation_matches_scalar(case1, rng):
    _, _, _, d = case1
    zs = disk_points(rng, 17, 0.92)
    fa = harmonic_map(zs, d)
    ja = jacobian(zs, d)
    for i, z in enumerate(zs):
        assert abs(fa[i] - harmonic_map(complex(z), d)) < 1e-14
        assert abs(ja[i] - jacobian(complex(z), d)) < 1e-14 * abs(ja[i])


def test_dilatation_at_zero_vertex_route(sweep_cases):
    # mu(0) has an independent closed route through the vertices and p
    for _, frame, c, d in sweep_cases[:60]:
        mu0 = dilatation(0.0 + 0.0j, d)
        z, w = frame.z, frame.w
        eip = d.e_ip
        num = -2 * (eip + 1) + (1 - eip) * (z.conjugate() - w.conjugate())
        den = -2 * (eip + 1) + (1 - eip) * (z - w)
        assert abs(mu0 - num / den) < 1e-11
        assert abs(mu0 - d.X * d.z0 ** 2) < 1e-13
        half = -((-1 + cmath.exp((2j * c.m + c.s + c.t) / 2))
                 / (cmath.exp(1j * c.m) + cmath.exp(c.k))) ** 2
        assert abs(mu0 - half) < 1e-12
