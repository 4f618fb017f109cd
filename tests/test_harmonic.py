"""The harmonic map f = h + conj(g): residues, Poisson agreement, geometry."""

import cmath
import math

import numpy as np
import pytest

from scherk import (PoleProximity, analytic_parts, dilatation, g_prime,
                    gauss_map_q, h_prime, harmonic_map, jacobian, normalize,
                    poisson_extension, step_boundary, validate_quadrilateral)
from scherk.cli import build_report
from conftest import LARGE_K_PARAMS, assert_same_bits, build_case, disk_points

C0_CASE1 = 0.298933832635220044875722312242 + 0.5524457420684848288083219245j
C0_CASE2 = 0.234294879480996107591142024427 + 0.254774756337459863218731547597j


def test_residue_tables(sweep_cases):
    # the residues of h' and g' sum to 0, and analytic_parts repackages the
    # record's tables; g = -conj h is test_params'
    for _, _, _, d in sweep_cases:
        parts = analytic_parts(d)
        assert parts == (d.poles, d.h_residues, d.g_residues)
        assert abs(sum(parts.h_residues)) < 1e-15
        assert abs(sum(parts.g_residues)) < 1e-15


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
        err = np.max(np.abs(dilatation(pts, d) - gauss_map_q(pts, d) ** 2))
        assert err < 1e-12


def test_jacobian_certificate_premises(sweep_cases, near_edge_cases):
    # what the Jacobian row's certificate reads beyond the rows: h' is the
    # factored B (1 - z conj z0)^2 / ((1 - z^2)(e^{2ip} - z^2)), whose only
    # zero 1/conj z0 is off the disk, and J = |h'|^2 (1 - |q|^4), on the 40
    # spiral points r = 0.9 sqrt((i + 1/2)/40), theta = i pi (3 - sqrt 5)
    i = np.arange(40)
    zs = 0.9 * np.sqrt((i + 0.5) / 40) * np.exp(
        1j * np.pi * (3.0 - np.sqrt(5.0)) * i)
    cases = sweep_cases + near_edge_cases + [build_case(*p) for p in LARGE_K_PARAMS]
    for _, _, c, d in cases:
        assert abs(d.z0) < 1.0 and d.B != 0.0, c
        hp = d.B * (1.0 - zs * d.z0.conjugate()) ** 2 / (
            (1.0 - zs ** 2) * (d.e_2ip - zs ** 2))
        # the partial fractions' rounding, relative to the sum of their moduli
        # (measured 1.1e-15)
        terms = sum(np.abs(r / (zs - pole))
                    for r, pole in zip(d.h_residues, d.poles))
        assert np.max(np.abs(h_prime(zs, d) - hp) / terms) < 1e-14, c
        # J cancels as |q| -> 1, so relative to |h'|^2 (measured 4.7e-13)
        want = np.abs(hp) ** 2 * (1.0 - np.abs(gauss_map_q(zs, d)) ** 4)
        assert np.max(np.abs(jacobian(zs, d) - want) / np.abs(hp) ** 2) < 5e-12, c


def test_dilatation_modulus_below_one(case1, rng):
    _, _, _, d = case1
    assert np.all(np.abs(dilatation(disk_points(rng, 200, 0.999), d)) < 1.0)


def test_harmonic_map_matches_poisson_integral(sweep_cases, rng):
    # criterion 10's Poisson agreement, on other surfaces
    pts = disk_points(rng, 5, 0.8)
    for _, _, _, d in sweep_cases[:10]:
        err = np.abs(harmonic_map(pts, d) - poisson_extension(pts, step_boundary(d)))
        assert err.max() < 1e-8


def test_center_values(case1, case2):
    for (_, _, _, d), want in ((case1, C0_CASE1), (case2, C0_CASE2)):
        assert abs(d.h0 - want) < 1e-14
        assert abs(harmonic_map(0.0 + 0.0j, d) - want) < 1e-14


def test_center_in_original_coordinates(case1):
    q, _, _, d = case1
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    moved = validate_quadrilateral([a * v + b for v in q.vertices])
    frame, _, _ = normalize(moved)
    c0 = build_report(moved, frame, d)["center"]["c0"]
    assert abs(c0 - (a * d.h0 + b)) < 1e-15


def test_derivative_pair_is_bitwise_the_two_pole_sums(case1, rng):
    # a scalar point gets these bits too: tests/test_batching.py
    import scherk.harmonic as harmonic
    _, _, _, d = case1
    z = disk_points(rng, 9, 0.92)
    hp = sum(c / (z - zk) for c, zk in zip(d.h_residues, d.poles))
    gp = sum(c / (z - zk) for c, zk in zip(d.g_residues, d.poles))
    for got in (harmonic._derivatives(z, d), (h_prime(z, d), g_prime(z, d))):
        assert_same_bits(got[0], hp)
        assert_same_bits(got[1], gp)
    with pytest.raises(PoleProximity):
        harmonic._derivatives(d.e_ip * (1.0 - 1e-12), d)


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
