"""The refusal table: library entries (label, call, error, message regex) and CLI
entries (label, argv, stdin, error, message regex), where main exits 2 with one
line `error: <Type>: <message>`.  Their raise sites are every `raise` in src/scherk."""

import ast
import io
import json
import math
import os
import re
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import scherk
from scherk import (DegenerateRightAngle, DegenerateVertices, EqualRapidities, IoError,
                    NewtonDiverged, NotPitot, OutOfDomain, PoleProximity, ScherkError,
                    SelfIntersecting, SurfaceMesh, ToleranceNotMet, ZeroArea,
                    adaptive_quad, angle_parameter, construct_quad, dilatation,
                    export_obj, g_prime, gauss_curvature, h_prime, harmonic_map,
                    height_T, hyperbola_point, hyperbolic_coordinates, jacobian,
                    kernel_K, map_and_height, newton_invert, sample_disk, scherk_data,
                    validate_quadrilateral as validate)
from scherk.checks import run_checks
from scherk.cli import canonical_json, main
from scherk.geometry import HyperbolicCoords as Coords
from scherk.mesh import obj_text
from conftest import build_case

SRC = Path(scherk.__file__).parent
MISSING = Path(__file__).resolve().parent / "no_such_dir"   # never created
D = build_case(0.3, 1.0, 0.3)[3]
MESH = sample_disk(D, n_r=2, n_theta=6)   # 13 vertices
Z, W = hyperbola_point(0.3, 0.3), hyperbola_point(0.3, 1.0)
OVERFLOWING = [(1.7e308, 0), (0, 1.7e308), (-1.7e308, 0), (5, -1.7e308)]


def _square(s=1):
    return [(s * x, s * y) for x, y in ((-1, 0), (0, -1), (1, 0), (0, 1))]


def _doc(vertices):
    return json.dumps({"vertices": vertices})


def _moved(m, s, t, dx):
    """Vertex JSON of construct_quad(m, s, t) with b2 moved by dx."""
    verts = [[v.real, v.imag] for v in construct_quad(m, s, t).vertices]
    verts[1][0] += dx
    return _doc(verts)


def _bad_faces(bad):
    """MESH with a face index bad, then one of -2: the first is named."""
    faces = MESH.faces.copy()
    faces[3, 1], faces[5, 2] = bad, -2
    return SurfaceMesh(MESH.vertices, faces)


LIBRARY = [
    ("three vertices", lambda: validate(_square()[:3]),
     OutOfDomain, r"^exactly four vertices required$"),
    ("vertex 4 nan", lambda: validate([(0, 0), (1, 0), (1, 1), (math.nan, 0)]),
     OutOfDomain, r"^vertices must be finite; vertex 4 is \(nan\+0j\)$"),
    ("vertex 3 inf", lambda: validate([(0, 0), (1, 0), (1, math.inf), (math.nan, 0)]),
     OutOfDomain, r"finite; vertex 3 is \(1\+infj\)$"),
    ("all vertices coincide", lambda: validate([(0.5, -2.0)] * 4),
     DegenerateVertices, r"^all vertices coincide$"),
    ("two vertices coincide", lambda: validate([(0, 0), (0, 0), (1, 1), (0, 1)]),
     DegenerateVertices, r"^vertices 1 and 2 are 0\.000e\+00 apart"),
    ("diameter inf", lambda: validate(_square(1e308)),
     OutOfDomain, r"^quadrilateral diameter inf is out of double range$"),
    # finite differences whose modulus overflows: complex abs raises, not inf
    ("diameter overflows", lambda: validate(OVERFLOWING),
     OutOfDomain, r"^quadrilateral diameter inf is out of double range$"),
    ("collinear", lambda: validate([(0, 0), (1, 0), (2, 0), (3, 0)]),
     ZeroArea, r"^quadrilateral has zero signed area$"),
    ("crossed", lambda: validate([(-2, 0), (1, 0), (0, -1), (0, 1)]),
     SelfIntersecting, r"^nonadjacent sides intersect$"),
    # within 2e-12 of a line: the collinear branch sees two opposite sides overlap
    ("crossed on a line", lambda: validate([
        -0.013791911134231949 - 1.6776910854721036e-12j,
        0.9777750504128204 - 1.157939758282358e-13j, -0.5517236929990799 + 0j,
        -0.7464825272258393 - 5.799779810289084e-13j]),
     SelfIntersecting, r"^nonadjacent sides intersect$"),
    ("not Pitot", lambda: validate([(0, 0), (2, 0), (3, 1), (0, 1)]), NotPitot,
     r"^side-sum defect 3\.488e-01 x perimeter exceeds tol_pitot = 1\.0e-09$"),
    # the side sums overflow a double; the unit-diameter ones do not
    ("not Pitot, side sums inf", lambda: validate(
        [-8e307, -8e307j, 8e307, 3e307 + 5e307j]),
     NotPitot, r"^side-sum defect -1\.200e-01 x perimeter "),
    # the defect is below the perimeter: 1 or more (or nan) would admit all
    *((f"tol_pitot {tol!r}", partial(validate, _square(), tol_pitot=tol),
       OutOfDomain, rf"^tol_pitot must lie in \[0, 1\), got {tol!r}$")
      for tol in (math.nan, math.inf, -1.0, 1.0)),
    *((f"hyperbola_point m = {m!r}", partial(hyperbola_point, m, 1.0), OutOfDomain,
       rf"^m must lie in \[0, pi/2\); got m = {re.escape(repr(m))}$")
      for m in (-1e-300, -0.1, math.pi / 2, 2.0)),
    ("near right angle", lambda: hyperbolic_coordinates(
        *(hyperbola_point(math.pi / 2 - 1e-9, tau) for tau in (0.3, 1.0))),
     DegenerateRightAngle, r"^hyperbola degenerates \(cos m ~ 0\)"),
    ("sin m < 0 branch", lambda: hyperbolic_coordinates(-Z, -W),   # kappa = -sin 0.3
     OutOfDomain, r"branch \(kappa=-0\.29552020666.*use normalize\(\)"),
    ("two hyperbolas", lambda: hyperbolic_coordinates(Z, hyperbola_point(0.8, 1.0)),
     NotPitot, r"^side-sum defect "),
    ("equal rapidities", lambda: hyperbolic_coordinates(Z, Z + 1e-12j),
     EqualRapidities, r"^free vertices coincide in rapidity"),
    ("s = t", lambda: construct_quad(0.3, 0.5, 0.5),
     EqualRapidities, r"^s = t gives a triangle: s=0\.5, t=0\.5$"),
    # params: p -> 0 (j -> inf) is a domain limit; p -> pi (j -> 0) is s = t
    ("p < 1e-8", lambda: angle_parameter(Coords(0.5, 20.0, -20.0, 20.0, 0.0)),
     OutOfDomain, r"^p < 1e-8 at m=0\.5, s=20\.0, t=-20\.0, j=20\.0, p=8\.24"),
    ("p ~ pi", lambda: angle_parameter(Coords(0.5, 0.3 + 1e-9, 0.3 - 1e-9, 1e-9, 0.3)),
     EqualRapidities, r"at s=0\.300000001, t=0\.29999"),
    # s < t: p is even in j, z0, sqrt(X) and h'(0) are not
    ("j < 0", lambda: scherk_data(Coords(0.3, 0.3, 1.0, -0.35, 0.65)),
     OutOfDomain, r"^j < 0 at m=0\.3, s=0\.3, t=1\.0, j=-0\.35"),
    # a nan coordinate passes the j and p tests; an infinite s, t or k gives a nan h0
    *((f"scherk_data {field} = {bad!r}",
       partial(scherk_data, Coords(0.3, 1.0, 0.3, 0.35, 0.65)._replace(**{field: bad})),
       OutOfDomain, rf"^coordinates must be finite; got .*\b{field}={bad!r}(,|$)")
      for field, bad in (("m", math.nan), ("s", math.nan), ("s", math.inf),
                         ("t", math.nan), ("j", math.inf), ("k", math.nan),
                         ("k", -math.inf))),
    # past |j| = 710 sinh overflows, and p ~ 4 e^{-|j|}
    ("sinh j overflows", lambda: scherk_data(Coords(0.3, 1500.0, -10.0, 755.0, 745.0)),
     OutOfDomain, r"^p < 1e-8 at m=0\.3, s=1500\.0, t=-10\.0, j=755\.0, p=0\.0$"),
    *((f"{fn.__name__} at a pole", partial(fn, pole * (1.0 - 1e-12), D), PoleProximity,
       r"^evaluation 1\.00e-12 from a boundary pole$")
      for fn, pole in ((h_prime, 1.0), (g_prime, D.e_ip), (kernel_K, D.e_ip))),
    # one pole guard refuses a nan, an infinite or a far point before numpy warns:
    # h' sums to 0 there, its residues summing to 0, and K overflows
    *((f"{fn.__name__} at {where}", partial(fn, z, D),
       OutOfDomain, rf"^h', g' and K require \|z\| <= 1e9; got {got}$")
      for fn in (h_prime, g_prime, dilatation, jacobian, kernel_K, gauss_curvature)
      for where, z, got in (
          ("nan", np.array([0.1, math.nan]), "a nan point"),
          ("inf i", complex(0.0, math.inf), r"\|z\| = inf"),
          ("[0.1, inf]", np.array([0.1, math.inf]), r"\|z\| = inf"),
          ("1e9 + 1 ulp", np.nextafter(1e9, 2e9), r"\|z\| = 1000000000\.0000001"),
          ("2**256", np.array([2.0 ** 256]), r"\|z\| = 1\.157920892\d*e\+77"))),
    # one disk guard for f and T, before a log is taken: no numpy RuntimeWarning
    *((f"{fn.__name__} at {where}", partial(fn, z, D),
       OutOfDomain, r"^f and T require \|z\| <= 1 - 1e-9; got \|z\| = ")
      for fn in (harmonic_map, height_T, map_and_height)
      for where, z in (("1 - 1e-10", 1.0 - 1e-10), ("1.5", 1.5), ("e^ip", D.e_ip),
                       ("a pole", np.array([0.2, D.poles[2]])))),
    # nan fails every comparison, so both guards test for what passes
    *((f"{fn.__name__} at nan", partial(fn, np.array([0.1, math.nan]), D), OutOfDomain,
       pattern) for fn, pattern in (
           (harmonic_map, r"^f and T require \|z\| <= 1 - 1e-9; got a nan point$"),
           (height_T, r"^f and T require \|z\| <= 1 - 1e-9; got a nan point$"))),
    *((f"sample_disk {kw}", partial(sample_disk, D, **kw), OutOfDomain,
       r"^need n_r >= 1 and n_theta >= 3$") for kw in ({"n_r": 0}, {"n_theta": 2})),
    ("r_max = 1", lambda: sample_disk(D, r_max=1.0),
     OutOfDomain, r"^r_max must lie in \(0, 1\), got 1\.0$"),
    *((f"h_max {h!r}", partial(sample_disk, D, n_r=2, n_theta=4, h_max=h),
       OutOfDomain, rf"^h_max must be a finite positive number, got {h!r}$")
      for h in (-1.0, 0.0, math.nan, math.inf)),
    # export_obj checks the faces before it opens the file
    *((f"{label} face {bad}", partial(fn, _bad_faces(bad), *path),
       OutOfDomain, rf"^face index {bad} outside the 13 vertices$")
      for label, fn, path in (("obj_text", obj_text, ()),
                              ("export_obj", export_obj, (MISSING / "x.obj",)))
      for bad in (-1, 13, 20)),
    ("export_obj to a missing directory", lambda: export_obj(MESH, MISSING / "x.obj"),
     IoError, r"^cannot write OBJ file .*no_such_dir"),
    # the integrable x^-0.9 spike at 1e-300 outlasts the halving depth
    ("quadrature depth", lambda: adaptive_quad(lambda x: x ** -0.9, 1e-300, 1.0),
     ToleranceNotMet, r"^quadrature stalled on \[.*\] at depth \d+$"),
    ("Newton outside the image", lambda: newton_invert(D, 50.0 + 50.0j),
     NewtonDiverged, r"^no residual-decreasing step exists; target may lie outside"),
    *((f"report {bad!r}", partial(canonical_json, bad), ValueError, r"^non-finite number")
      for bad in (math.inf, -math.inf, math.nan, complex(1.0, math.nan))),
    *((f"report {bad!r}", partial(canonical_json, bad), TypeError, r"^cannot serialize ")
      for bad in (None, "x", 3, [1.0, None], {"a": "x"}, np.bool_(True))),
    # the CLI's choices admit only the two names; a library caller could pass any
    *((f"verify profile {bad!r}", partial(run_checks, D, bad), OutOfDomain,
       rf"^profile must be 'default' or 'strict'; got {re.escape(repr(bad))}$")
      for bad in ("Default", "loose", None)),
    ("no such name", lambda: scherk.no_such_name,
     AttributeError, r"^module 'scherk' has no attribute 'no_such_name'$"),
]

HUGE = "1" + "0" * 400   # a JSON integer past the float range
# b2 of case 1 moved by 1e-5 breaks the side sums; b2 of (0.8, 9, 2) moved by
# 0.15 is inside --tol-pitot 1e-3, but 0.077 off the averaged hyperbola
PERTURBED, OFF_HYPERBOLA = _moved(0.3, 1.0, 0.3, 1e-5), _moved(0.8, 9.0, 2.0, 0.15)
# refusals of the steps main takes for every command: load, normalize, solve, build
INPUT_STAGE = [
    ("not Pitot", ("-",), _doc([[0, 0], [2, 0], [3, 1], [0, 1]]),
     NotPitot, r"^side-sum defect 3\.488e-01 x perimeter"),
    ("b2 moved by 1e-5", ("-",), PERTURBED, NotPitot, r"^side-sum defect "),
    ("b2 moved by 0.15", ("-",), OFF_HYPERBOLA, NotPitot, r"^side-sum defect "),
    ("b2 moved by 0.15 at 1e-3", ("-", "--tol-pitot", "1e-3"), OFF_HYPERBOLA,
     OutOfDomain, r"^z does not round-trip through the hyperbola at "
                  r"m=0\.81390364.*: mismatch \S+ > tolerance \S+$"),
    *((f"--tol-pitot {tol}", ("-", "--tol-pitot", tol),
       _doc([[-1, 0], [0.3, 0.5], [1, 0], [0.2, 1.2]]),
       OutOfDomain, rf"^tol_pitot must lie in \[0, 1\), got {float(tol)!r}$")
      for tol in ("nan", "inf", "-1", "1")),
    ("m = 2", ("--params", "2,1,0.3"), None,
     OutOfDomain, r"^m must lie in \[0, pi/2\); got m = 2\.0$"),
    ("--params arity", ("--params", "1,2"), None,
     IoError, r"^--params expects three numbers m,s,t$"),
    ("no input", (), None, IoError, r"^no input: "),
    ("missing file", (str(MISSING / "q.json"),), None,
     IoError, r"^cannot read .*no_such_dir"),
    ("invalid JSON", ("-",), "{nope", IoError, r"^invalid JSON in -: "),
    *((f"JSON {doc}", ("-",), doc, IoError, r'^JSON input must contain "vertices"')
      for doc in ('{"m": 0.3, "s": 1.0}', '{"points": []}')),
    *((f"--params {params}", ("--params", params), None, DegenerateVertices,
       r"^vertices 1 and 3 are 2\.000e\+00 apart, within 1e-12 x the quadrilateral's "
       r"diameter 5\.343e\+12$") for params in ("0.3,30,29", "0.3,-30,-29")),
    # JSON values of the wrong shape, named: true, false and strings (float() reads
    # them), a bare number as a vertex, and a third coordinate, which is not dropped
    *((f"JSON {doc[:40]}", ("-", *extra), doc,
       OutOfDomain, r"^vertices must be pairs of ")
      for doc, extra in (('{"vertices": 5}', ()), ('{"vertices": [[1],[2],[3],[4]]}', ()),
                         (_doc([[-1, 0, 7], [0.309, 0.291], [1, 0], [0.456, 1.123]]),
                          ("--tol-pitot", "1e-3")))),
    *((f"JSON vertices {v[:36]}", ("-",), f'{{"vertices": {v}}}', IoError,
       rf'^JSON "vertices": {pattern}$') for v, pattern in (
        ('[[0,0],["a","b"],[1,0],[1,1]]', r'not a number: "a"'),
        ('[[false,-1],[true,0],[1,0],[0,1]]', r'not a number: false'),
        ('[[-1,0],[0,"-1"],[1,0],[0,1]]', r'not a number: "-1"'),
        ('[[-1,0],"0-1j",[1,0],[0,1]]', r'not an \[x, y\] pair: "0-1j"'),
        ('[-1, [0, -1], 1, [0, 1]]', r'not an \[x, y\] pair: -1'),
        (f'[[-1,0],[0,-1],[{HUGE},0],[0,1]]', r'int too large to convert to float'))),
    *((f"JSON {doc[:40]}", ("-",), doc, IoError, rf"^JSON m,s,t: {pattern}$")
      for doc, pattern in (
        ('{"m": null, "s": 1, "t": 0.3}', r'"m": not a number: null'),
        ('{"m": [0.3], "s": 1, "t": 0.3}', r'"m": not a number: \[0\.3\]'),
        ('{"m": true, "s": 1.0, "t": 0.3}', r'"m": not a number: true'),
        ('{"m": 0.3, "s": "1.0", "t": 0.3}', r'"s": not a number: "1\.0"'),
        ('{"m": 0.3, "s": 1.0, "t": false}', r'"t": not a number: false'),
        (f'{{"m": {HUGE}, "s": 1, "t": 0.3}}', r'"m": int too large to convert to float'))),
    *((f"--params {params}", ("--params", params), None, OutOfDomain,
       rf"^cosh overflows at m=0\.3, tau={tau}$")
      for params, tau in (("0.3,1000,0.3", r"1000\.0"), ("0.3,1,-720", r"-720\.0"))),
    ("JSON s = 1000", ("-",), '{"m": 0.3, "s": 1000, "t": 0.3}',
     OutOfDomain, r"^cosh overflows at m=0\.3, tau=1000\.0$"),
    # p < 1e-8 (j above about 19.8): rapidities 40 and 42 apart are not equal
    *((f"--params {params}", ("--params", params), None, OutOfDomain,
       rf"^p < 1e-8 at m=0\.3\d*, s=.* j={j}, p=")
      for params, j in (("0.3,20,-20", r"20\.0"), ("0.3,25,-17", r"21\.0"))),
]
MESH_ARGS = ("mesh", "--params", "0.3,1.0,0.3", "--nr", "2", "--ntheta", "4")
CLI = [
    *((f"{cmd}: {label}", (cmd, *argv), *rest) for label, argv, *rest in INPUT_STAGE
      for cmd in ("analyze", "verify", "mesh", "asymptotics")),
    # report leaves past the double range are named; verify passes both
    *((f"analyze: square {s}", ("analyze", "-"), _doc(_square(s)), OutOfDomain,
       rf"^report leaf center\.{leaf} = \S+ is out of double range$")
      for s, leaf in ((1e-160, "curvature"), (1e154, "curvature_bound"))),
    ("analyze: diameter overflows", ("analyze", "-"), _doc(OVERFLOWING), OutOfDomain,
     r"^quadrilateral diameter inf is out of double range$"),
    ("mesh: --rmax 0.9999999999", (*MESH_ARGS, "--rmax", "0.9999999999"), None,
     OutOfDomain, r"^r_max=0\.9999999999 puts samples past \|z\| = 1 - 1e-9$"),
    *((f"mesh: --hmax {h}", (*MESH_ARGS, "--hmax", h), None, OutOfDomain,
       rf"^h_max must be a finite positive number, got {float(h)!r}$")
      for h in ("-1", "nan", "inf")),
    ("mesh: unwritable --out", (*MESH_ARGS, "--out", str(MISSING / "m.obj")), None,
     IoError, r"^cannot write OBJ file .*no_such_dir"),
    ("asymptotics: unwritable --out", ("asymptotics", "--params", "0.3,1.0,0.3",
                                       "--out", str(MISSING / "t.csv")), None,
     IoError, rf"^cannot write {re.escape(str(MISSING / 't.csv'))}: "),
]


@cache
def _raised(call):
    """The exception call() raises, or None."""
    try:
        call()
    except Exception as exc:
        return exc


class _Stderr(io.StringIO):
    """stderr that keeps the exception main is handling when it writes."""
    exc = None

    def write(self, text):
        self.exc = self.exc or sys.exc_info()[1]
        return super().write(text)


@cache
def _cli(argv, stdin):
    """(exit code, stdout, stderr, the exception main reported) of one run."""
    out, err = io.StringIO(), _Stderr()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin or "")), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue(), err.exc


def _site(exc):
    """package/file.py:line of the last traceback frame of exc."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{os.path.relpath(frame.filename, SRC.parent)}:{frame.lineno}"


@pytest.mark.parametrize("label, call, error, pattern", LIBRARY,
                         ids=[entry[0] for entry in LIBRARY])
def test_library_refusal(label, call, error, pattern):
    exc = _raised(call)
    assert type(exc) is error and re.search(pattern, str(exc)), repr(exc)


@pytest.mark.parametrize("label, argv, stdin, error, pattern", CLI,
                         ids=[entry[0] for entry in CLI])
def test_cli_refusal(label, argv, stdin, error, pattern):
    code, out, err, exc = _cli(argv, stdin)
    assert (code, out, type(exc)) == (2, "", error) and "Traceback" not in err, err
    line = re.fullmatch(rf"error: {error.__name__}: (.*)\n", err)
    assert line and re.search(pattern, line.group(1)), err


def test_every_raise_is_reached():
    # a bare raise passes on an exception raised elsewhere: not a site
    raises = {f"{SRC.name}/{path.name}:{node.lineno}" for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None}
    caught = [_raised(call) for _, call, *_ in LIBRARY] + [
        _cli(argv, stdin)[3] for _, argv, stdin, *_ in CLI]
    sites = {_site(exc) for exc in caught if exc is not None}
    assert sorted(raises - sites) == [], "no entry reaches these raises"
    assert sorted(sites - raises) == [], "entries refused outside a raise"
    assert set(ScherkError.__subclasses__()) - {type(exc) for exc in caught} == set()


def test_the_neighbours_of_refusals_are_accepted():
    rhombus = _doc([[-1, -1], [1, -1], [1, 1], [-1, 1]])   # m = 0, one more surface
    code, out, err, _ = _cli(("analyze", "-"), rhombus)
    assert (code, err) == (0, "") and json.loads(out)["coordinates"]["m"] == 0.0
    assert _cli(("analyze", "-", "--tol-pitot", "1e-3"), PERTURBED)[0] == 0
    for s in (1e-160, 1e154):   # their report leaves are refused, not verify
        code, _, err, _ = _cli(("verify", "-"), _doc(_square(s)))
        assert (code, err) == (0, ""), s
    # |z| = 1e9, the pole guard's bound, is evaluated without a numpy warning
    for fn in (h_prime, g_prime, dilatation, jacobian, kernel_K, gauss_curvature):
        assert np.all(np.isfinite(fn(np.array([1e9, -1e9j]), D))), fn.__name__


def test_out_of_domain_is_a_value_error():
    # callers that caught the ValueError these refusals once were keep working
    with pytest.raises(ValueError, match=r"^m must lie in \[0, pi/2\)"):
        hyperbola_point(2.0, 1.0)
