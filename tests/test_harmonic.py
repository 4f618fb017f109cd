"""The harmonic map f = h + conj(g): residues, Poisson agreement, geometry."""

import cmath
import math

import numpy as np
import pytest

from scherk import (PoleProximity, analytic_parts, center_report, dilatation,
                    g_prime, gauss_map_q, h_prime, harmonic_map, jacobian,
                    normalize, poisson_extension, step_boundary,
                    validate_quadrilateral)

C0_CASE1 = 0.298933832635220044875722312242 + 0.5524457420684848288083219245j
C0_CASE2 = 0.234294879480996107591142024427 + 0.254774756337459863218731547597j


def _disk_points(rng, n, r_max=0.92):
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


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
    pts = _disk_points(rng, 30)
    for _, _, _, d in sweep_cases[:40]:
        err = max(abs(dilatation(z, d) - gauss_map_q(z, d) ** 2) for z in pts)
        assert err < 1e-12


def test_dilatation_modulus_below_one(case1, rng):
    _, _, _, d = case1
    for z in _disk_points(rng, 200, r_max=0.999):
        assert abs(dilatation(z, d)) < 1.0


def test_harmonic_map_matches_poisson_integral(case1, case2, rng):
    for _, _, _, d in (case1, case2):
        sb = step_boundary(d)
        for z in _disk_points(rng, 5, r_max=0.8):
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
    assert abs(center_report(d, frame)["c0"] - (a * d.h0 + b)) < 1e-13


def test_boundary_radial_limits_hit_vertices(case1):
    _, _, _, d = case1
    r = 1.0 - 1e-6
    for (lo, hi), value in step_boundary(d):
        mid = 0.5 * (lo + hi)
        assert abs(harmonic_map(r * cmath.exp(1j * mid), d) - value) < 1e-3


def test_jacobian_positive_inside(case1, case2):
    rr = np.linspace(0.02, 0.999, 40)
    th = np.linspace(0.0, 2 * np.pi, 80, endpoint=False)
    grid = np.outer(rr, np.exp(1j * th)).ravel()
    for _, _, _, d in (case1, case2):
        assert float(np.min(jacobian(grid, d))) > 0.0


def test_harmonicity_by_finite_differences(case1):
    _, _, _, d = case1
    h = 1e-3
    for z in (0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.35j):
        for comp in (np.real, np.imag):
            lap = (comp(harmonic_map(z + h, d)) + comp(harmonic_map(z - h, d))
                   + comp(harmonic_map(z + 1j * h, d))
                   + comp(harmonic_map(z - 1j * h, d))
                   - 4 * comp(harmonic_map(z, d))) / h ** 2
            assert abs(lap) < 1e-4


def test_pole_proximity_guard(case1):
    _, _, _, d = case1
    with pytest.raises(PoleProximity):
        h_prime(1.0 - 1e-12, d)
    with pytest.raises(PoleProximity):
        g_prime(d.e_ip * (1.0 - 1e-12), d)


class _Counter:
    """Wraps fn and counts its calls."""

    def __init__(self, fn):
        self.fn, self.n = fn, 0

    def __call__(self, *args):
        self.n += 1
        return self.fn(*args)


def test_derivative_pair_runs_one_pole_guard(case1, rng, monkeypatch):
    import scherk.harmonic as harmonic
    import scherk.oracles as oracles
    _, _, _, d = case1
    zs = _disk_points(rng, 9)
    for z in (zs, complex(zs[0])):
        # the pair is bitwise the two single-derivative pole sums
        hp = sum(c / (z - zk) for c, zk in zip(d.h_residues, d.poles))
        gp = sum(c / (z - zk) for c, zk in zip(d.g_residues, d.poles))
        for got in (harmonic._derivatives(z, d), (h_prime(z, d), g_prime(z, d))):
            assert np.all(got[0] == hp) and np.all(got[1] == gp)
    guard = harmonic._guard_poles
    calls = []
    monkeypatch.setattr(harmonic, "_guard_poles",
                        lambda *a: calls.append(1) or guard(*a))
    for fn in (jacobian, dilatation):
        calls.clear()
        fn(zs, d)
        assert len(calls) == 1
    pairs = _Counter(harmonic._derivatives)
    monkeypatch.setattr(oracles, "_derivatives", pairs)
    calls.clear()
    oracles.newton_invert(d, harmonic_map(0.4 - 0.3j, d))
    assert pairs.n >= 3 and len(calls) == pairs.n   # one guard per step
    with pytest.raises(PoleProximity):
        harmonic._derivatives(d.e_ip * (1.0 - 1e-12), d)


def test_array_evaluation_matches_scalar(case1, rng):
    _, _, _, d = case1
    zs = _disk_points(rng, 17)
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
