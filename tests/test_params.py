"""Scalar parameters: every constant has at least two independent routes."""

import cmath
import math

import pytest

from scherk import scherk_data
from scherk.checks import CHECKS, _split_moduli, evaluate
from scherk.geometry import HyperbolicCoords
from conftest import build_case


def vertex_form_E(z, w):
    """cos p recomputed directly from the free vertices z = x+iy, w = u+iv.

    Test-local cross-check route; singular when (u+x)(v+y) vanishes (e.g. the
    conjugate-symmetric case t = -s), where the rapidity form must be used.
    """
    x, y = complex(z).real, complex(z).imag
    u, v = complex(w).real, complex(w).imag
    den = (u + x) * (v + y)
    if abs(den) <= 1e-12 * max(1.0, (abs(u) + abs(x)) * (abs(v) + abs(y))):
        raise ZeroDivisionError("(u+x)(v+y) vanishes; use the rapidity form")
    return (u * v - 3.0 * v * x - 3.0 * u * y + x * y) / den


def moebius_center_vertex_form(z, w, p):
    """z0 recomputed from the free vertices and p (test-local cross-check)."""
    x, y = complex(z).real, complex(z).imag
    u, v = complex(w).real, complex(w).imag
    eip = cmath.exp(1j * p)
    den = (u - x - 2.0 + 1j * (y - v)) + eip * (x - u - 2.0 + 1j * (v - y))
    if abs(den) <= 1e-12 * (4.0 + abs(z) + abs(w)):
        raise ZeroDivisionError("vertex-form z0 denominator vanishes")
    zc = 1j * eip * math.sin(p) * (-(x + u) + 1j * (y + v)) / den
    return -zc


# frozen reference constants for (m, s, t) = (0.3, 1.0, 0.3)
CASE1 = {
    "p": 2.45546163398541501401184006488,
    "z0": 0.0202061551871584461071569978628 - 0.34751944355239529287763974146j,
    "X": 0.640361754362596160287858475298 + 0.768073449319567390992579611268j,
    "sqrtX": -0.90563838102263426551011916956 - 0.424050849331423836798200824676j,
    "B": 0.201146415295434377478046253192 - 0.41988159212577323511033625085j,
    "C": -0.3602170596562282510744419181 + 0.294964577067991082148674430641j,
}
# and for (m, s, t) = (0.3, 1.0, -0.3)
CASE2 = {
    "p": 1.92451313567723999319770536683,
    "z0": 0.0189741181861685821708841230317 - 0.229032861850705769619881277046j,
    "X": 0.246447518166708300339802777377 + 0.969156138498575461751935449925j,
    "sqrtX": -0.789445222345004853326525700265 - 0.61382101700466875577028084559j,
    "B": -0.221978978958655250708725584259 - 0.699773910637523793244906028309j,
    "C": -0.254295689100926298320048564771 + 0.688688533092533260471049319672j,
}


# and, built from the coordinates directly, for (m, s, t) = (0.7, 1e-3, -1e-3)
# (j = 1e-3, where e^{2j} - 1 and the residue sum for h'(0) cancel) and
# (0.7, 12, -12) (j = 12, where acos(1 - 2 sech^2 j) loses half the digits)
SMALL_J = {
    "p": 3.13959265392312648842103424701,
    "e_ip": -0.999998000001333332577694904813 + 0.00199999833333435004108365644398j,
    "B": 0.00112352800112948200099034530156 - 0.00000337059355340794265030398377066j,
    "C": -0.00112353080995814538169536575612 + 0.00000224706424149157003481335556055j,
    "h0_prime": 0.00112353249525646694190206432285 + 0.00000112353268251189220413913474084j,
}
LARGE_J = {
    "p": 0.0000245768494130035693240370953387,
    "e_ip": 0.999999999697989236480474805191 + 0.0000245768494105294116386120796645j,
    "B": -0.0000414193679234112986156852555308 + 1.12353343068545742715052848402j,
    "C": 1.12353343110960641394199457659 + 0.0000276129119524156143363681768788j,
    "h0_prime": 0.0000138064559772502317460204550854 + 1.12353343136409580604249374401j,
}


@pytest.mark.parametrize("j,frozen", [(1e-3, SMALL_J), (12.0, LARGE_J)])
def test_frozen_constants_off_the_box(j, frozen):
    d = scherk_data(HyperbolicCoords(0.7, j, -j, j, 0.0))
    for name, want in frozen.items():
        got = getattr(d, name)
        assert abs(got - want) <= 1e-14 * abs(want), (name, got)


@pytest.mark.parametrize("case,frozen", [("case1", CASE1), ("case2", CASE2)])
def test_frozen_reference_constants(case, frozen, request):
    _, _, _, d = request.getfixturevalue(case)
    assert abs(d.p - frozen["p"]) < 1e-14
    assert abs(d.z0 - frozen["z0"]) < 1e-14
    assert abs(d.X - frozen["X"]) < 1e-14
    assert abs(d.sqrtX - frozen["sqrtX"]) < 1e-14
    assert abs(d.B - frozen["B"]) < 1e-14
    assert abs(d.C - frozen["C"]) < 1e-14


def test_angle_parameter_forms(sweep_cases):
    for _, _, c, d in sweep_cases:
        # cosine route vs half-angle exponential route (j > 0)
        assert abs(d.e_ip.real - (1.0 - 4.0 / (1.0 + math.cosh(c.s - c.t)))) \
            < 1e-14
        ej = math.exp(c.j)
        assert abs(d.e_ip - ((1j + ej) / (1j - ej)) ** 2) < 1e-12
        assert abs(d.p - 4.0 * math.atan(math.exp(-c.j))) < 1e-13
        sin_p = 2.0 * math.sinh(c.j) / math.cosh(c.j) ** 2
        assert abs(d.e_ip.imag - sin_p) < 1e-14
        assert d.e_ip.imag > 0.0


def test_vertex_form_E_matches_rapidity_form(sweep_cases):
    for _, frame, c, d in sweep_cases:
        E = math.cos(d.p)
        assert abs(vertex_form_E(frame.z, frame.w) - E) < 1e-9


def test_vertex_form_E_degenerate_for_conjugate_pair():
    _, frame, _, _ = build_case(0.4, 0.8, -0.8)   # t = -s: y + v = 0
    with pytest.raises(ZeroDivisionError):
        vertex_form_E(frame.z, frame.w)


def test_moebius_center_two_routes(sweep_cases):
    for _, frame, _, d in sweep_cases:
        vertex = moebius_center_vertex_form(frame.z, frame.w, d.p)
        assert abs(d.z0 - vertex) < 1e-9


def test_unimodular_factor_three_routes(sweep_cases):
    for _, frame, c, d in sweep_cases:
        assert abs(abs(d.X) - 1.0) < 1e-13
        # rapidity half-angle route
        route2 = ((1j * cmath.exp(c.s / 2) + cmath.exp(c.t / 2)) ** 2
                  * (1 + cmath.exp(1j * c.m + c.k)) ** 2
                  / ((cmath.exp(c.s / 2) + 1j * cmath.exp(c.t / 2)) ** 2
                     * (cmath.exp(1j * c.m) + cmath.exp(c.k)) ** 2))
        assert abs(d.X - route2) < 1e-11
        # vertex-coordinate route through the arc angle p
        x, y = frame.z.real, frame.z.imag
        u, v = frame.w.real, frame.w.imag
        cp, sp = cmath.cos(d.p / 2), cmath.sin(d.p / 2)
        route3 = -(4 * cmath.exp(-1j * d.p) / cmath.sin(d.p) ** 2
                   * (2 * cp + (1j * u + v - 1j * x - y) * sp) ** 2
                   * (2 * cp + (-1j * u - v + 1j * x + y) * sp)) \
            / ((u - 1j * (v + 1j * x + y)) ** 2
               * (2 * cp + (-1j * u + v + 1j * x - y) * sp))
        assert abs(d.X - route3) < 1e-9


def test_sqrt_sign_rule(sweep_cases):
    for _, frame, c, d in sweep_cases:
        assert abs(d.sqrtX ** 2 - d.X) < 1e-14
        # the chosen root makes the kernel residue at z = 1 point along +i
        c1 = (1.0 - frame.w) / (2j * math.pi)
        q1 = d.sqrtX * (1.0 - d.z0) / (1.0 - d.z0.conjugate())
        assert (c1 * q1).imag >= 0.0


def test_growth_rates_are_jenkins_serrin_fluxes(sweep_cases, near_edge_cases):
    # 2 pi cj is the length of the side that pole j opens onto (Jenkins and
    # Serrin, ARMA 21, 1966): 1 <-> b3b4, 2 <-> b4b1, 3 <-> b1b2, 4 <-> b2b3
    for _, _, c, d in sweep_cases + near_edge_cases:
        b1, b2, b3, b4 = d.vertices
        for cj, side in zip(d.cj, (b3 - b4, b4 - b1, b1 - b2, b2 - b3)):
            flux = abs(side) / (2.0 * math.pi)
            assert abs(cj - flux) <= 2.0 * math.ulp(flux)


def test_sign_split_moduli_without_cancellation(sweep_cases):
    # the four |1 -+ z0|^2, |1 -+ z0 e^{-ip}|^2 of the sign-split row, in
    # (m, s, t), equal the moduli computed from z0 and e^{ip}
    for _, _, c, d in sweep_cases:
        direct = (abs(1.0 - d.z0) ** 2, abs(1.0 - d.z0 / d.e_ip) ** 2,
                  abs(1.0 + d.z0) ** 2, abs(1.0 + d.z0 / d.e_ip) ** 2)
        for got, want in zip(_split_moduli(c), direct):
            assert abs(got - want) <= 1e-12 * want, c
    # |1 + z0 e^{-ip}| = 7.5e-5 at this record: rounding in 1 + z0 e^{-ip}
    # puts lam |1 + z0 e^{-ip}|^2 off by 1.4e-12 relative, while (cosh t -
    # sin m) / (2 pi) has no cancellation here (cosh t = 2.88, sin m = 0.38)
    m, j, k = 0.3857, 11.86, 10.14
    _, _, c, d = build_case(m, k + j, k - j)
    sin_m = math.sin(m)
    plain = (math.cosh(c.s) - sin_m, math.cosh(c.s) + sin_m,
             math.cosh(c.t) + sin_m, math.cosh(c.t) - sin_m)
    refs = [value / (2.0 * math.pi) for value in plain]
    for mm, ref in zip(_split_moduli(c), refs):
        assert abs(d.lam * mm - ref) <= 1e-15 * ref
    old = d.lam * abs(1.0 + d.z0 / d.e_ip) ** 2
    assert abs(old - refs[3]) > 1e-13 * refs[3]


def test_constants_algebra(sweep_cases):
    for _, _, c, d in sweep_cases:
        assert abs(d.A - d.B * d.X) < 1e-14
        assert abs(d.C - d.B * d.sqrtX) < 1e-14
        assert abs(d.C ** 2 - d.A * d.B) < 1e-13


def test_kernel_scale_identity():
    # the row passes strict at j = 12.9, where e^{2ip} - 1 cancels; 3 rows FAIL there
    tols, err_of = {n: row for n, *row in CHECKS}["kernel_scale_identity"]
    d = build_case(0.4024623350854257, 12.183448731400844, -13.683300511063393)[3]
    assert err_of(d, evaluate(d)) <= tols[1]


def test_compact_scale_closed_form(sweep_cases):
    for _, _, c, d in sweep_cases:
        compact = (2.0 / math.pi) * math.tanh(c.j) \
            * (math.cos(c.m) + math.cosh(c.k)) * d.e_ip
        assert abs(d.C - compact) < 1e-12 * abs(d.C)


def test_poles_property(case1):
    _, _, _, d = case1
    poles = d.poles
    assert poles[0] == 1.0 and poles[2] == -1.0
    assert abs(poles[1] - d.e_ip) == 0.0
    assert abs(poles[3] + d.e_ip) == 0.0
    assert abs(d.e_2ip - d.e_ip ** 2) < 1e-16


def test_record_vertices_match_frame(case1):
    _, frame, _, d = case1
    b1, b2, b3, b4 = d.vertices
    assert b1 == -1.0 and b3 == 1.0
    assert abs(b2 - frame.z) < 1e-14
    assert abs(b4 - frame.w) < 1e-14


def test_g_residues_stored_on_record(sweep_cases):
    fields = set(sweep_cases[0][3]._fields)
    assert "g_residues" in fields
    for _, _, _, d in sweep_cases:
        assert isinstance(d.g_residues, tuple)
        want = [-r.conjugate() for r in d.h_residues]
        assert [(g.real.hex(), g.imag.hex()) for g in d.g_residues] \
            == [(w.real.hex(), w.imag.hex()) for w in want]
