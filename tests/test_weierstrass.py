"""Height kernel, residues, and the log-growth height function."""

import cmath
import math
import tracemalloc
import types

import numpy as np
import pytest

from scherk import (g_prime, gauss_map_q, h_prime, harmonic_map, height_T,
                    kernel_K, map_and_height, residues)
from scherk.checks import CHECKS, _CIRCLE, _POINTS, evaluate, growth_rays
from scherk.harmonic import _BLOCK, _log_sums, step_boundary
from scherk.oracles import TAYLOR_POINTS, TAYLOR_Z, _quad_levels
from conftest import assert_same_bits, build_case, disk_points

T_CASE1 = -0.0848492492807629394449995095695   # T(0.3 + 0.2i), case 1
T_CASE2 = -0.0290030310528531549374134814678   # T(0.3 + 0.2i), case 2


def test_kernel_is_h_prime_times_gauss_map(sweep_cases, rng):
    pts = disk_points(rng, 25, 0.9)
    for _, _, _, d in sweep_cases[:40]:
        prod = h_prime(pts, d) * gauss_map_q(pts, d)
        assert np.all(np.abs(kernel_K(pts, d) - prod) < 1e-12 * (1 + np.abs(prod)))


def test_kernel_squared_is_derivative_product(case1, case2, rng):
    pts = disk_points(rng, 50, 0.9)
    for _, _, _, d in (case1, case2):
        prod = h_prime(pts, d) * g_prime(pts, d)
        assert np.all(np.abs(kernel_K(pts, d) ** 2 - prod) < 1e-12 * (1 + np.abs(prod)))


def test_partial_fraction_reconstruction(sweep_cases, rng):
    pts = disk_points(rng, 20, 0.9)
    for _, _, _, d in sweep_cases[:40]:
        hk = residues(d)
        pf = sum(r / (pts - zk) for r, zk in zip(hk.residues, hk.poles))
        assert np.max(np.abs(kernel_K(pts, d) - pf)) < 1e-11


def test_residues_match_circle_oracle(case1, case2):
    # the verify row, held to a bound 1000x below its default tolerance
    row = {name: err_of for name, _, err_of in CHECKS}
    for _, _, _, d in (case1, case2):
        assert row["kernel_residues_vs_circle_oracle"](d, evaluate(d)) < 1e-10
        for r, cj in zip(d.k_residues, d.cj):
            # the growth rates are the residue moduli
            assert abs(cj - abs(r)) < 1e-15


def test_residue_sign_split(sweep_cases, near_edge_cases):
    # the sign of sqrtX orients T: +i at +-1 and -i at +-e^{ip}, also near
    # m = pi/2 and with s < t
    signs = (1j, -1j, 1j, -1j)
    s_below_t = [build_case(*mst) for mst in
                 ((0.3, 0.3, 1.0), (0.7, -1.1, 0.9), (1.2, -2.4, -0.1))]
    for _, _, c, d in sweep_cases + near_edge_cases + s_below_t:
        hk = residues(d)
        assert hk.lam > 0.0
        want = math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (4 * math.pi)
        assert abs(hk.lam - want) == 0.0
        for r, sg, cj in zip(hk.residues, signs, hk.cj):
            assert cj > 0.0
            assert abs(r - sg * cj) < 1e-13 * (1 + cj)


def test_stored_kernel_residues_are_the_rational_form(sweep_cases):
    # reference: N(pole)/D'(pole) of K's rational form, evaluated here
    for _, _, _, d in sweep_cases:
        for r, zk in zip(d.k_residues, d.poles):
            num = d.C * (zk - d.z0) * (1.0 - zk * np.conj(d.z0))
            dprime = (-2.0 * zk * (d.e_2ip - zk * zk)
                      - 2.0 * zk * (1.0 - zk * zk))
            assert abs(r - num / dprime) < 1e-12 * abs(r)
        assert residues(d).residues is d.k_residues


def test_residue_sum_vanishes(sweep_cases):
    # in absolute terms, where verify's kernel_residue_sum row is relative to
    # sum cj (up to 19.6 here)
    for _, _, _, d in sweep_cases:
        assert abs(sum(residues(d).residues)) < 1e-14


def test_height_path_independence(case1, rng):
    # antiderivative property: T(z2) - T(z1) = 2 Im of the segment integral
    _, _, _, d = case1
    pts = disk_points(rng, 6, 0.8)
    z1, dz = pts[:3], pts[3:] - pts[:3]
    seg = 2.0 * _quad_levels(lambda tau, k: kernel_K(z1[k] + tau * dz[k], d) * dz[k],
                             np.zeros(3), np.ones(3)).imag
    assert np.max(np.abs(height_T(pts[3:], d) - height_T(z1, d) - seg)) < 1e-8


def test_height_frozen_values(case1, case2):
    _, _, _, d1 = case1
    _, _, _, d2 = case2
    assert abs(height_T(0.3 + 0.2j, d1) - T_CASE1) < 1e-14
    assert abs(height_T(0.3 + 0.2j, d2) - T_CASE2) < 1e-14


def test_height_sign_pattern_toward_poles(case1, case2):
    # alternating blow-up: down toward +-1, up toward +-e^{ip}
    r = 0.9995
    for _, _, _, d in (case1, case2):
        t1, t2, t3, t4 = (height_T(r * zk, d) for zk in d.poles)
        assert t1 < -1.0 and t3 < -1.0
        assert t2 > 1.0 and t4 > 1.0


def test_gauss_map_is_disk_automorphism(case1, rng):
    _, _, _, d = case1
    assert np.all(np.abs(gauss_map_q(disk_points(rng, 200, 0.999), d)) < 1.0)
    assert abs(gauss_map_q(d.z0, d)) == 0.0
    boundary = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    assert np.allclose(np.abs(gauss_map_q(boundary, d)), 1.0, atol=1e-13)


def _log(w):
    """Log w by the evaluators' real-ufunc form: log1p(|w|^2 - 1)/2 for
    |w|^2 >= 1/2, else log|w|, and atan2; 0-d for a scalar w."""
    w = np.asarray(w)
    x = (w.real - 1.0) * (w.real + 1.0) + w.imag * w.imag
    lg = np.empty_like(w)
    lg.real = np.where(x >= -0.5, 0.5 * np.log1p(np.maximum(x, -0.5)),
                       np.log(np.abs(w)))
    lg.imag = np.arctan2(w.imag, w.real)
    return lg


def _two_pass_reference(z, d):
    """f and T by the former formulas: a list of the four logs, then sum()."""
    logs = [_log(np.asarray(1.0 - np.divide(z, zk))) for zk in d.poles]
    h = d.h0 + sum(c * lg for c, lg in zip(d.h_residues, logs))
    g = sum(c * lg for c, lg in zip(d.g_residues, logs))
    t = 2.0 * np.imag(sum(r * lg for r, lg in zip(d.k_residues, logs)))
    return h + np.conj(g), t


def test_one_pass_evaluators_are_bitwise_the_two_pass_formulas(
        case1, case2, sweep_cases):
    rows = np.array([0.0, 0.3, 0.9, 0.995])[:, None]
    grid = rows * np.exp(1j * np.linspace(0.0, 2 * np.pi, 13)[:-1])
    scalars = [0j, complex(-0.0, -0.0), 0.3 + 0.2j, -0.7 + 0.1j,
               0.995 * cmath.exp(2.5j)]
    # three blocks of _log_sums, with 0.995 x the poles astride the first cut
    n = 2 * _BLOCK + 7
    spiral = 0.995 * np.sqrt(np.arange(n) / n) * np.exp(2.4j * np.arange(n))
    for i, (_, _, _, d) in enumerate([case1, case2] + sweep_cases):
        inputs = [grid, 0.995 * np.array(d.poles)] + scalars
        if i < 2:  # the block cuts show on case1 and case2 alone
            long = spiral.copy()
            long[_BLOCK - 2:_BLOCK + 2] = 0.995 * np.array(d.poles)
            inputs.append(long)
        for z in inputs:
            f, t = _two_pass_reference(z, d)
            assert_same_bits(harmonic_map(z, d), f)
            assert_same_bits(height_T(z, d), t)
            both = map_and_height(z, d)
            assert_same_bits(both[0], f)
            assert_same_bits(both[1], t)
        assert math.copysign(1.0, height_T(0.0, d)) == 1.0


def test_pole_logs_as_accurate_as_numpy_complex_log():
    # each Log(1 - z/pole) of the evaluators against numpy's complex log, on
    # disk points crowding the circle; log|w| as log(abs(w)) alone would be
    # off by up to 3.3e-16, 6.5e-17 on average, where |w|^2 >= 1/2
    gen = np.random.default_rng(2)
    r = np.concatenate([np.sqrt(gen.uniform(0.0, 1.0, 50000)),
                        1.0 - 10.0 ** -gen.uniform(0.0, 9.0, 50000)])
    z = r * np.exp(2j * np.pi * gen.uniform(0.0, 1.0, r.size))
    pole = cmath.exp(0.83j)
    got = _log_sums(z, types.SimpleNamespace(poles=(pole,)), (1.0,))[0]
    want = np.log(1.0 - z / pole)
    band = np.abs(1.0 - z / pole) ** 2 >= 0.5
    err = np.abs(got.real - want.real)
    assert err[band].max() <= 2.5e-16 and err[band].mean() <= 2.5e-17
    assert np.all(err[~band] <= 1e-15 * np.abs(want.real[~band]))
    assert np.all(np.abs(got.imag - want.imag) <= 2.5e-16 * np.abs(want.imag))


def _traced_peak(evaluate, z, d):
    """tracemalloc peak of evaluate(z, d), after one untraced call."""
    evaluate(z, d)
    tracemalloc.start()
    try:
        evaluate(z, d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_evaluation_footprint(case1):
    """map_and_height on checks.evaluate's 908 points peaks under 300 KiB.

    Summing pole by pole keeps the temporaries at (coeffs, points), so a
    verify op frees no heap top for glibc to trim that the next op would
    fault back in; (coeffs, 4, points) products peak at 503 KiB on 780 of
    these points.
    """
    d = case1[3]
    mids = np.array([0.5 * (lo + hi) for (lo, hi), _ in step_boundary(d)])
    z = np.concatenate([_POINTS, _CIRCLE, (1.0 - 1e-6) * np.exp(1j * mids),
                        growth_rays(d)[1].ravel(), TAYLOR_Z.ravel()])
    assert z.size == 780 + 2 * TAYLOR_POINTS == 908
    assert _traced_peak(map_and_height, z, d) <= 300 * 1024


@pytest.mark.parametrize("evaluate, arrays", [
    (map_and_height, 5), (harmonic_map, 4), (height_T, 3)])
def test_evaluators_peak_memory_in_point_arrays(evaluate, arrays, case1):
    """One log array alive at a time bounds the peak allocation."""
    d = case1[3]
    gen = np.random.default_rng(5)
    n = 80001
    z = (0.995 * np.sqrt(gen.uniform(0.0, 1.0, n))
         * np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n)))
    # z.nbytes is one point-sized complex array; 64 KiB covers the
    # interpreter's own small allocations.
    assert _traced_peak(evaluate, z, d) <= arrays * z.nbytes + 2 ** 16
