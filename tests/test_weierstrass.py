"""Height kernel, residues, and the log-growth height function."""

import cmath
import math
import tracemalloc
import types

import numpy as np
import pytest

from scherk import (PoleProximity, adaptive_quad, g_prime, gauss_map_q,
                    h_prime, harmonic_map, height_T, kernel_K, map_and_height,
                    numeric_residue, residues)
from scherk.harmonic import _log_sums
from conftest import build_case

T_CASE1 = -0.0848492492807629394449995095695   # T(0.3 + 0.2i), case 1
T_CASE2 = -0.0290030310528531549374134814678   # T(0.3 + 0.2i), case 2


def _disk_points(rng, n, r_max=0.9):
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def test_kernel_is_h_prime_times_gauss_map(sweep_cases, rng):
    pts = _disk_points(rng, 25)
    for _, _, _, d in sweep_cases[:40]:
        for z in pts:
            prod = h_prime(z, d) * gauss_map_q(z, d)
            assert abs(kernel_K(z, d) - prod) < 1e-12 * (1 + abs(prod))


def test_kernel_squared_is_derivative_product(case1, case2, rng):
    pts = _disk_points(rng, 50)
    for _, _, _, d in (case1, case2):
        for z in pts:
            prod = h_prime(z, d) * g_prime(z, d)
            assert abs(kernel_K(z, d) ** 2 - prod) < 1e-12 * (1 + abs(prod))


def test_partial_fraction_reconstruction(sweep_cases, rng):
    pts = _disk_points(rng, 20)
    for _, _, _, d in sweep_cases[:40]:
        hk = residues(d)
        for z in pts:
            pf = sum(r / (z - zk) for r, zk in zip(hk.residues, hk.poles))
            assert abs(kernel_K(z, d) - pf) < 1e-11


def test_residues_match_circle_oracle(case1, case2):
    for _, _, _, d in (case1, case2):
        hk = residues(d)
        for r, zk, cj in zip(hk.residues, hk.poles, hk.cj):
            assert abs(r - numeric_residue(lambda u: kernel_K(u, d), zk)) < 1e-10
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
    for _, _, _, d in sweep_cases:
        assert abs(sum(residues(d).residues)) < 1e-14


def test_height_matches_contour_quadrature(case1, case2, rng):
    for _, _, _, d in (case1, case2):
        for z in _disk_points(rng, 5, r_max=0.85):
            quad = 2.0 * adaptive_quad(
                lambda tau: kernel_K(tau * z, d) * z, 0.0, 1.0).imag
            assert abs(height_T(z, d) - quad) < 1e-8


def test_height_path_independence(case1, rng):
    # antiderivative property: T(z2) - T(z1) = 2 Im of the segment integral
    _, _, _, d = case1
    pts = _disk_points(rng, 6, r_max=0.8)
    for z1, z2 in zip(pts[:3], pts[3:]):
        seg = 2.0 * adaptive_quad(
            lambda tau: kernel_K(z1 + tau * (z2 - z1), d) * (z2 - z1),
            0.0, 1.0).imag
        assert abs((height_T(z2, d) - height_T(z1, d)) - seg) < 1e-8


def test_height_zero_at_origin(sweep_cases):
    for _, _, _, d in sweep_cases[:50]:
        assert height_T(0.0 + 0.0j, d) == 0.0


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


def test_fitted_slopes_match_residues(case1, case2):
    rs = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])
    logs = np.log1p(-rs)
    signs = (1.0, -1.0, 1.0, -1.0)
    for _, _, _, d in (case1, case2):
        hk = residues(d)
        for zk, sg, cj in zip(hk.poles, signs, hk.cj):
            ts = np.array([height_T(r * zk, d) for r in rs])
            slope = np.polyfit(logs, ts, 1)[0]
            assert abs(slope - sg * 2.0 * cj) < 5e-3 * abs(2.0 * cj)


def test_gauss_map_is_disk_automorphism(case1, rng):
    _, _, _, d = case1
    for z in _disk_points(rng, 200, r_max=0.999):
        assert abs(gauss_map_q(z, d)) < 1.0
    assert abs(gauss_map_q(d.z0, d)) == 0.0
    boundary = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    assert np.allclose(np.abs(gauss_map_q(boundary, d)), 1.0, atol=1e-13)


def test_kernel_pole_guard_and_height_domain(case1):
    _, _, _, d = case1
    with pytest.raises(PoleProximity):
        kernel_K(d.e_ip * (1 - 1e-12), d)
    # every f and T evaluator shares one disk guard, |z| <= 1 - 1e-9: outside
    # the disk and at a pole it refuses before a log is taken, so no numpy
    # RuntimeWarning (an error under this suite's filterwarnings) appears
    for z in (1.0 - 1e-10, 1.5, d.e_ip, np.array([0.2, d.poles[2]])):
        for fn in (harmonic_map, height_T, map_and_height):
            with pytest.raises(ValueError, match=r"\|z\| <= 1 - 1e-9"):
                fn(z, d)


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


def _same_bits(a, b):
    """Equal values, type and bits: signed zeros must match too."""
    return (type(a) is type(b) and np.all(a == b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def test_one_pass_evaluators_are_bitwise_the_two_pass_formulas(
        case1, case2, sweep_cases):
    rows = np.array([0.0, 0.3, 0.9, 0.995])[:, None]
    grid = rows * np.exp(1j * np.linspace(0.0, 2 * np.pi, 13)[:-1])
    scalars = [0j, complex(-0.0, -0.0), 0.3 + 0.2j, -0.7 + 0.1j,
               0.995 * cmath.exp(2.5j)]
    for _, _, _, d in [case1, case2] + sweep_cases:
        for z in [grid, 0.995 * np.array(d.poles)] + scalars:
            f, t = _two_pass_reference(z, d)
            assert _same_bits(harmonic_map(z, d), f)
            assert _same_bits(height_T(z, d), t)
            both = map_and_height(z, d)
            assert _same_bits(both[0], f) and _same_bits(both[1], t)
        assert math.copysign(1.0, height_T(0.0, d)) == 1.0
    with pytest.raises(ValueError):
        map_and_height(1.0 - 1e-10, case1[3])


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


@pytest.mark.parametrize("evaluate, arrays", [
    (map_and_height, 5), (harmonic_map, 4), (height_T, 3)])
def test_evaluators_peak_memory_in_point_arrays(evaluate, arrays, case1):
    """One log array alive at a time bounds the peak allocation."""
    d = case1[3]
    gen = np.random.default_rng(5)
    n = 80001
    z = (0.995 * np.sqrt(gen.uniform(0.0, 1.0, n))
         * np.exp(2j * np.pi * gen.uniform(0.0, 1.0, n)))
    evaluate(z, d)
    tracemalloc.start()
    try:
        evaluate(z, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # z.nbytes is one point-sized complex array; 64 KiB covers the
    # interpreter's own small allocations.
    assert peak <= arrays * z.nbytes + 2 ** 16
