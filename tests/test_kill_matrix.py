"""The kill matrix: which verify row FAILs on which mutant, a wrong copy of the
record (d._replace), of checks.evaluate's parts or of a function checks imports."""

import cmath
import itertools
import math

import numpy as np
import pytest

from scherk import checks
from scherk.checks import CHECKS, run_checks
from scherk.harmonic import _log_sums
from scherk.oracles import TAYLOR_RADII
from conftest import build_case

SURFACES = {"case1": (0.3, 1.0, 0.3), "case2": (0.3, 1.0, -0.3),
            "k7": (0.7, 7.5, 6.5), "k-0.8": (1.1, 0.4, -2.0),
            "k7.3": (0.13890206535917143, 8.357027889913319, 6.279161021161783)}
ROWS = [name for name, *_ in CHECKS]


def _times(field, factor, at=None):
    """Record mutant: d's field, its entry at, or all its entries, * factor."""
    def apply(d, mp):
        v = getattr(d, field)
        return d._replace(**{field: v * factor if not isinstance(v, tuple) else
                             tuple(x * factor if at in (None, i) else x
                                   for i, x in enumerate(v))})
    return apply


def _code(name, wrong):
    """Code mutant: the function checks imports as name becomes wrong(exact)."""
    def apply(d, mp):
        mp.setattr(checks, name, wrong(getattr(checks, name)))
        return d
    return apply


def _out(name, change):
    return _code(name, lambda exact: lambda *a: change(exact(*a)))


def _ev(part, change):
    return _out("evaluate", lambda ev: dict(ev, **{part: change(ev)}))


def _f_and_T(change):
    return _code("map_and_height", lambda fT: lambda z, d: change(z, d, *fT(z, d)))


def _values(arcs, order):  # the arcs with the values of the arcs in order
    return tuple((span, arcs[i][1]) for (span, _), i in zip(arcs, order))


def _kres(d, scale=1.0, z0=1.0):
    """K's residues q(pole) h_res of d times scale, with d.z0 * z0 in q."""
    z = d.z0 * z0
    return tuple(scale * d.sqrtX * (zk - z) / (1.0 - zk * z.conjugate()) * r
                 for zk, r in zip(d.poles, d.h_residues))


E6 = 1.0 + 1e-6
MUTANTS = {
    # the height's known wrong constants, and z0 * 1.0001 carried into K
    "1/sin p": lambda d, mp: d._replace(k_residues=_kres(d, 1 / math.sin(d.p))),
    "4 pi": lambda d, mp: d._replace(k_residues=_kres(d, 0.5)),
    "height * -1/2": lambda d, mp: d._replace(k_residues=_kres(d, -0.5)),
    "z0 * 1.0001, in K too": lambda d, mp: d._replace(
        z0=d.z0 * 1.0001, k_residues=_kres(d, z0=1.0001)),
    "K of z0 * 1.0001": lambda d, mp: d._replace(k_residues=_kres(d, z0=1.0001)),
    # one field or entry moved by 1e-6; B and cj survive it
    **{f"{f} * (1+1e-6)": _times(f, E6) for f in (
        "z0", "X", "C", "lam", "p", "e_ip", "h0", "q0_prime", "h0_prime", "B", "cj")},
    **{f"{f}[{i}] * (1+1e-6)": _times(f, E6, i) for f, i in (
        ("h_residues", 0), ("g_residues", 0), ("k_residues", 0), ("vertices", 1))},
    # below every oracle row's tolerance, and the residue identities' 1e-12
    **{f"{f} * (1+{e:.0e})": _times(f, 1.0 + e) for f, e in (
        ("z0", 1e-13), ("C", 1e-11), ("X", 1e-12), ("C", 1e-12), ("lam", 1e-12))},
    **{f"k_residues[{n}] * (1+{e:.0e})": _times("k_residues", 1.0 + e, n)
       for n, e in ((0, 1e-13), (0, 1e-12), (1, 1e-12), (2, 1e-12), (3, 1e-12))},
    "sqrtX turned 1e-6": _times("sqrtX", cmath.exp(1e-6j)),
    **{f"{f} turned {a:.0e}": _times(f, cmath.exp(1j * a)) for f, a in (
        ("e_ip", 1e-11), ("C", 1e-12), ("e_ip", 1e-12))},
    # wrong forms; sqrtX * -1 survives
    **{f"{f} * {x:g}": _times(f, x) for f, x in (
        ("lam", 2.0), ("k_residues", -1.0), ("C", -1.0), ("z0", 1.0001), ("cj", 1.01),
        ("sqrtX", -1.0))},
    "lam / sin p": lambda d, mp: d._replace(lam=d.lam / math.sin(d.p)),
    "k_residues conjugated": lambda d, mp: d._replace(
        k_residues=tuple(r.conjugate() for r in d.k_residues)),
    "C = B X": lambda d, mp: d._replace(C=d.B * d.X),
    "h0 + 1e-5": lambda d, mp: d._replace(h0=d.h0 + 1e-5),
    "ev: arc values rotated": _ev("arcs", lambda ev: _values(ev["arcs"], (1, 2, 3, 0))),
    "ev: arc limits + 2e-3 max|b|": _ev("mids", lambda ev: (
        ev["mids"][0] + 2e-3 * max(abs(v) for _, v in ev["arcs"]), ev["mids"][1])),
    "ev: T at points + 1e-6": _ev("points", lambda ev: (ev["points"][0],
                                                      ev["points"][1] + 1e-6)),
    # only the winding row reads the circle: it winds -1 times backwards
    "ev: circle traversed backwards": _ev("circle", lambda ev: tuple(
        v[::-1] for v in ev["circle"])),
    # code; gauss_map_q * -1 survives
    "kernel_K: conj z0": _code("kernel_K", lambda K: lambda z, d: K(
        z, d._replace(z0=d.z0.conjugate()))),
    "step_boundary: b4, b1 swapped": _out("step_boundary",
                                          lambda arcs: _values(arcs, (1, 0, 2, 3))),
    "f = h + g": _f_and_T(lambda z, d, f, T: (d.h0 + sum(
        _log_sums(z, d, d.h_residues, d.g_residues)), T)),
    "f + 1e-6 |z|^2": _f_and_T(lambda z, d, f, T: (f + 1e-6 * abs(z) ** 2, T)),
    "T + 1e-6 |z|^2": _f_and_T(lambda z, d, f, T: (f, T + 1e-6 * abs(z) ** 2)),
    "T * -1": _f_and_T(lambda z, d, f, T: (f, -T)),
    "T * (1+1e-6)": _f_and_T(lambda z, d, f, T: (f, T * E6)),
    "f conjugated": _f_and_T(lambda z, d, f, T: (np.conj(f), T)),
    "h', g' swapped": _out("_derivatives", lambda hg: hg[::-1]),
    "g' conjugated": _out("_derivatives", lambda hg: (hg[0], np.conj(hg[1]))),
    "gauss_map_q: conj z0": _code("gauss_map_q", lambda q: lambda z, d: q(
        z, d._replace(z0=d.z0.conjugate()))),
    "gauss_map_q * -1": _out("gauss_map_q", lambda q: -q),
    "gauss_curvature * (1+1e-6)": _out("gauss_curvature", lambda k: k * E6),
    "curvature_bound * (1+1e-11)": _out("curvature_bound", lambda b: b * (1 + 1e-11)),
    "center_mixed_derivative * 1.001": _out("center_mixed_derivative",
                                            lambda u: u * 1.001),
    "aligning_rotation + 1e-3": _out("aligning_rotation", lambda a: a + 1e-3),
    "graph_normal: x, y swapped": _out("graph_normal", lambda n: (n[1], n[0], n[2])),
}
SURVIVORS = {"sqrtX * -1", "B * (1+1e-6)", "cj * (1+1e-6)", "gauss_map_q * -1"}

# what the row-rejection tests this matrix replaced asserted, and the kills of
# the Jacobian and winding rows: (row, mutants[, profiles[, surfaces]]), the
# row kills each mutant in both profiles (0 default, 1 strict) and on every
# surface unless fewer are named
_SCALED = ("1/sin p", "4 pi", "height * -1/2")
_RES = tuple(f"k_residues[{n}] * (1+1e-12)" for n in range(4))
EXPECTED = (
    ("kernel_residue_sum", _RES + ("K of z0 * 1.0001",)),
    ("kernel_residue_sign_split", ("lam / sin p", "lam * 2", "lam * (1+1e-12)",
     "K of z0 * 1.0001", "k_residues * -1", "k_residues conjugated")),
    ("kernel_residue_sign_split", _RES, (1,)),
    ("kernel_scale_identity", ("C * (1+1e-12)", "C turned 1e-12", "e_ip turned 1e-12",
                               "C * -1", "C = B X"), (1,)),
    ("curvature_bound_attained", ("z0 * 1.0001", "curvature_bound * (1+1e-11)")),
    ("graph_normal_vs_fd", _SCALED),
    ("graph_normal_vs_fd", ("z0 * 1.0001, in K too",), (0, 1), ("case1", "case2")),
    ("mixed_derivative_vs_fd", _SCALED),
    ("laplacian_defect_fd", ("f + 1e-6 |z|^2", "T + 1e-6 |z|^2")),
    ("boundary_step_values",
     ("ev: arc values rotated", "ev: arc limits + 2e-3 max|b|")),
    ("poisson_extension_agreement", ("h0 + 1e-5",)),
    ("height_vs_contour_quadrature", ("ev: T at points + 1e-6",)),
    ("jacobian_positive_on_grid", ("h', g' swapped",)),
    ("boundary_winding_number", ("f conjugated", "ev: circle traversed backwards")),
)
# mutants that one row alone kills, in both profiles and on every surface
ALONE = {"ev: circle traversed backwards": "boundary_winding_number"}


@pytest.fixture(scope="module")
def errs():
    """{(mutant, surface): the 18 rows' errs}."""
    records = {s: build_case(*params)[3] for s, params in SURFACES.items()}
    out = {}
    for (m, apply), (s, d) in itertools.product(MUTANTS.items(), records.items()):
        with pytest.MonkeyPatch.context() as mp:
            out[m, s] = np.array([e for _, e, *_ in run_checks(apply(d, mp))])
    return out


def kills(errs, profile):
    """{(mutant, surface): the rows that FAIL in the profile}."""
    tols = np.array([tols[profile] for _, tols, _ in CHECKS])
    return {key: {ROWS[i] for i in np.flatnonzero(~(err <= tols))}
            for key, err in errs.items()}


def matrix(errs):
    """Per mutant and row, on how many surfaces the row kills it in strict."""
    strict = kills(errs, 1)
    lines = [f"{'':38}" + "".join(f"{i + 1:3}" for i in range(len(ROWS)))]
    lines += [f"{m:38.38}" + "".join(
        f"{sum(row in strict[m, s] for s in SURFACES) or '.':>3}"
        for row in ROWS) for m in MUTANTS]
    return "\n".join(lines + [f"{i + 1:3} {row}" for i, row in enumerate(ROWS)])


def test_the_replaced_tests_kills_hold(errs):
    by_profile = kills(errs, 0), kills(errs, 1)

    def missing(row, mutants, profiles=(0, 1), surfaces=SURFACES):
        return [(row, m, pr, s) for m in mutants for pr in profiles
                for s in surfaces if row not in by_profile[pr][m, s]]
    lost = [miss for entry in EXPECTED for miss in missing(*entry)]
    assert not lost, f"{lost}\n{matrix(errs)}"


def test_the_lone_kills_are_alone(errs):
    by_profile = kills(errs, 0), kills(errs, 1)
    shared = [(m, pr, s, by_profile[pr][m, s]) for m, row in ALONE.items()
              for pr in (0, 1) for s in SURFACES if by_profile[pr][m, s] != {row}]
    assert not shared, f"{shared}\n{matrix(errs)}"


def test_every_mutant_but_the_survivors_dies_and_every_row_kills(errs):
    killed = {m for (m, _), rows in kills(errs, 1).items() if rows}
    assert killed == set(MUTANTS) - SURVIVORS and SURVIVORS < set(MUTANTS), matrix(errs)
    idle = [(pr, row) for pr in (0, 1)
            for row in set(ROWS).difference(*kills(errs, pr).values())]
    assert not idle, f"{idle}\n{matrix(errs)}"


def test_the_replaced_tests_numbers_hold(errs):
    # + eps |z|^2 moves the mean over |z| = rho by eps rho^2: the circles differ
    inner, outer = TAYLOR_RADII
    for m, s in itertools.product(("f + 1e-6 |z|^2", "T + 1e-6 |z|^2"), SURFACES):
        err = errs[m, s][ROWS.index("laplacian_defect_fd")]
        assert abs(err - 1e-6 * (outer ** 2 - inner ** 2)) < 1e-12, (m, s)
    # a height scale keeps the rotated mixed derivative zero at k = 7
    assert errs["1/sin p", "k7"][ROWS.index("aligned_mixed_derivative_zero")] < 1e-8
