"""Command-line interface: report content, determinism, exit codes."""

import ast
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import scherk
from scherk import hyperbolic_coordinates, normalize, sample_disk, scherk_data
from scherk.checks import (CHECKS, evaluate, growth_fit, growth_rays,
                           run_checks)
from scherk.cli import build_report, canonical_json, load_quad, main
from scherk.geometry import DEFAULT_TOL_PITOT
from scherk.mesh import obj_text
from scherk.oracles import taylor
from conftest import (LARGE_K_PARAMS, assert_same_bits, assert_same_text,
                      build_case)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canonical_json_formatting():
    doc = {"b": 1.5, "a": 1 + 2j, "c": [True, False, -0.25]}
    got = canonical_json(doc)
    assert got == '{"a": [1, 2], "b": 1.5, "c": [true, false, -0.25]}'
    assert canonical_json(0.1) == "0.10000000000000001"
    # np.float64 and np.complex128 print as the Python types they subclass
    for value, want in ((np.float64(0.1), "0.10000000000000001"),
                        (np.complex128(1 - 2j), "[1, -2]"),
                        ((1.0, 2.5, 3j), "[1, 2.5, [0, 3]]"),
                        ({"a": np.float64(-0.0)}, '{"a": -0}')):
        assert canonical_json(value) == want, repr(value)


# the package's public names, as the eager imports of the namespace bound them
PUBLIC_NAMES = [
    "AnalyticParts", "DegenerateRightAngle", "DegenerateVertices",
    "EqualRapidities", "HeightKernel", "HyperbolicCoords", "IoError",
    "NewtonDiverged", "NormalizedFrame", "NotPitot", "OutOfDomain",
    "PitotQuad", "PoleProximity", "ScherkData", "ScherkError",
    "SelfIntersecting", "SurfaceMesh", "ToleranceNotMet", "ZeroArea",
    "adaptive_quad", "aligning_rotation", "analysis", "analytic_parts",
    "angle_parameter", "center_mixed_derivative", "center_normal",
    "construct_quad", "contour_height", "curvature_bound",
    "dilatation", "errors", "export_obj", "fd_laplacian", "fd_mixed",
    "g_prime", "gauss_curvature", "gauss_map_q", "geometry", "graph_normal",
    "h_prime", "harmonic", "harmonic_map", "height_T", "hyperbola_point",
    "hyperbolic_coordinates", "jacobian", "kernel_K", "map_and_height",
    "mesh", "newton_invert", "normalize", "numeric_residue", "oracles",
    "params", "poisson_extension", "residues", "rotated_mixed_derivative",
    "sample_disk", "scherk_data", "step_boundary", "taylor",
    "validate_quadrilateral", "weierstrass"]


def test_package_namespace_is_unchanged():
    assert len(PUBLIC_NAMES) == 63
    assert scherk.__all__ == PUBLIC_NAMES
    star = {}
    exec("from scherk import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(scherk))
    for name in PUBLIC_NAMES:
        obj = getattr(scherk, name)
        assert star[name] is obj, name
        if inspect.ismodule(obj):
            assert obj is sys.modules[f"scherk.{name}"], name
        else:
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("scherk."), name
            assert vars(home)[name] is obj, name
    assert scherk.gauss_map_q is scherk.params.gauss_map_q


# One interpreter runs every import probe, in an order that keeps each claim:
# analyze with numpy, dataclasses, inspect and numbers blocked; then, all of
# them unblocked, the numpy.polynomial modules a verify loads; then whether
# the records' modules loaded dataclasses.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import scherk.cli
print(sorted({"numpy", "scherk.harmonic", "scherk.weierstrass", "scherk.oracles",
              "scherk.mesh", "scherk.checks", "dataclasses", "inspect",
              "numbers"} & set(sys.modules)))
blocked = ("numpy", "dataclasses", "inspect", "numbers")
for name in blocked:
    sys.modules[name] = None  # any import of it now raises ImportError
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = scherk.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    print(json.dumps([rc, out.getvalue(), err.getvalue()]))
for name in blocked:
    del sys.modules[name]
import numpy
def polynomial():
    return {m for m in sys.modules if m.startswith("numpy.polynomial")}
before = polynomial()
with contextlib.redirect_stdout(io.StringIO()):
    rc = scherk.cli.main(["verify", "--params", "0.3,1.0,0.3"])
print(rc, sorted(polynomial() - before))
import scherk.checks, scherk.mesh, scherk.oracles
print("dataclasses" in sys.modules)
"""


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """The analyze calls the probe makes and the lines it prints."""
    square = tmp_path_factory.mktemp("probe") / "square.json"
    square.write_text('{"vertices": [[-1, 0], [0, -1], [1, 0], [0, 1]]}')
    calls = [["analyze", "--params", "0.3,1.0,-0.3"], ["analyze", str(square)],
             ["--help"], ["analyze", "--params", "0.3,1.0"],
             ["analyze", "--params", "0.3,1.0,-0.3", "--tol-pitot", "2"]]
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": str(Path(scherk.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return calls, proc.stdout.splitlines()


def test_import_and_analyze_never_load_numpy(capsys, monkeypatch, import_probe):
    calls, lines = import_probe
    # --help wraps at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    want = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        want.append([code, *capsys.readouterr()])
    assert [w[0] for w in want] == [0, 0, 0, 2, 2]
    loaded, *got, _, _ = lines   # the last two: the two tests below
    assert loaded == "[]"
    assert [json.loads(line) for line in got] == want


def test_verify_loads_no_numpy_polynomial(import_probe):
    # the Gauss-Legendre rule is constants, so verify's oracles load no
    # numpy.polynomial module beyond those that import numpy loads
    assert import_probe[1][-2] == "0 []"


def test_records_load_no_dataclasses(import_probe):
    # the records are named tuples; numpy loads inspect but not dataclasses
    assert import_probe[1][-1] == "False"


def test_analyze_params_report(capsys):
    code, out, _ = run(capsys, "analyze", "--params", "0.3,1.0,0.3")
    assert code == 0
    rep = json.loads(out)
    c0 = complex(*rep["center"]["c0"])
    assert abs(c0 - (0.299 + 0.552j)) < 1e-3
    assert abs(rep["coordinates"]["m"] - 0.3) < 1e-12
    assert abs(rep["parameters"]["p"] - 2.4554616339854150) < 1e-12
    assert rep["quad"]["reversed_input"] is False
    assert abs(rep["center"]["curvature"] + 9.0195199228049745) < 1e-10


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv, stdin, golden", [
    (("--params", "0.3,1.0,0.3"), None, "analyze_params_0.3_1.0_0.3.json"),
    (("-",), '{"vertices": [[-1,0],[0,-1],[1,0],[0,1]]}',
     "analyze_square.json")])
def test_analyze_output_is_byte_identical_to_golden(capsys, monkeypatch,
                                                    argv, stdin, golden):
    # every leaf of the report, to the last printed digit
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_help_and_usage_error_are_byte_identical_to_golden(capsys,
                                                          monkeypatch):
    # the five help screens at 80 columns, and the usage error of an option
    # of another command: the commands take their shared input options from
    # one parent parser, and the screens keep each option's place and text
    monkeypatch.setenv("COLUMNS", "80")
    for golden, argv, code in (
            ("help_scherk", ["-h"], 0), ("help_analyze", ["analyze", "-h"], 0),
            ("help_verify", ["verify", "-h"], 0),
            ("help_mesh", ["mesh", "-h"], 0),
            ("help_asymptotics", ["asymptotics", "-h"], 0),
            ("error_analyze_nr", ["analyze", "--nr", "3"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        printed, other = (out, err) if code == 0 else (err, out)
        assert exc.value.code == code and other == "", golden
        assert printed == (GOLDEN / f"{golden}.txt").read_text(), golden


def test_analysis_and_checks_take_no_frame():
    # both layers work in the normalized frame: only cli.build_report and
    # mesh.sample_disk map results back to the input quadrilateral
    import scherk.analysis as analysis
    import scherk.checks as checks
    functions = [f for mod in (analysis, checks) for f in vars(mod).values()
                 if inspect.isfunction(f) and f.__module__ == mod.__name__]
    functions += [err_of for *_, err_of in CHECKS]
    assert len(functions) > len(CHECKS)
    for f in functions:
        assert "frame" not in inspect.signature(f).parameters, f.__qualname__
    assert list(inspect.signature(run_checks).parameters) == ["d", "profile"]
    for *_, err_of in CHECKS:
        assert list(inspect.signature(err_of).parameters) == ["d", "ev"]


def test_analyze_deterministic_output(capsys):
    _, out1, _ = run(capsys, "analyze", "--params", "0.7,0.9,-1.1")
    _, out2, _ = run(capsys, "analyze", "--params", "0.7,0.9,-1.1")
    assert out1 == out2


def test_analyze_vertices_file(capsys, tmp_path):
    q, _, _, _ = build_case(0.3, 1.0, 0.3)
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(
        {"vertices": [[v.real, v.imag] for v in q.vertices]}))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    rep = json.loads(out)
    assert abs(complex(*rep["center"]["c0"]) - (0.299 + 0.552j)) < 1e-3


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"m": 0.3, "s": 1.0, "t": 0.3}'))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 0
    assert abs(json.loads(out)["coordinates"]["s"] - 1.0) < 1e-12


def test_analyze_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--params", "0.3,1.0,0.3",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["coordinates"]["t"] == pytest.approx(0.3)


def test_verify_passes_both_profiles(capsys):
    for profile in ("default", "strict"):
        code, out, _ = run(capsys, "verify", "--params", "0.3,1.0,-0.3",
                           "--tol-profile", profile)
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


def test_verify_graph_rows_are_finite_where_newton_diverged(capsys):
    # Newton inversion of the map diverges on this valid surface; the graph
    # rows read the Taylor jet instead, so they give a finite err, pass, and
    # leave no note.  Its vertices lie 1,520 from the origin: the boundary
    # row, relative to max|b_i|, passes too, and only the strict growth fit
    # (1.3e-3 against 1e-3) fails
    for profile, fails in (("default", []),
                           ("strict", ["radial_growth_slopes"])):
        code, out, err = run(capsys, "verify", "--params", "1.4,8.02,7.98",
                             "--tol-profile", profile)
        assert code == len(fails) and err == ""
        status = {ln.split()[1]: (ln.split()[0],
                                  float(ln.split("err=")[1].split()[0]))
                  for ln in out.splitlines()[:-1]}
        assert len(status) == len(CHECKS)
        for name in ("graph_normal_vs_fd", "mixed_derivative_vs_fd",
                     "aligned_mixed_derivative_zero", "laplacian_defect_fd"):
            verdict, value = status[name]
            assert verdict == "PASS" and math.isfinite(value), name
        assert [name for name, (verdict, _) in status.items()
                if verdict == "FAIL"] == fails


def test_verify_reports_any_library_error_as_a_fail_row(capsys, monkeypatch):
    # a row that raises any ScherkError fails with its reason and the other
    # rows still print
    import scherk.checks as checks
    idx = 10
    name, tols, _ = checks.CHECKS[idx]

    def raises(d, ev):
        raise scherk.ToleranceNotMet("quadrature stalled")

    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:idx] + (
        (name, tols, raises),) + checks.CHECKS[idx + 1:])
    code, out, err = run(capsys, "verify", "--params", "0.3,1.0,-0.3")
    assert code == 1
    lines = out.splitlines()[:-1]
    assert [ln.split()[1] for ln in lines] == [n for n, _, _ in CHECKS]
    row = lines[idx].split()
    assert row[:2] == ["FAIL", name]
    assert float(lines[idx].split("err=")[1].split()[0]) == math.inf
    assert err == f"note: {name}: ToleranceNotMet: quadrature stalled\n"
    assert out.splitlines()[-1].startswith(
        f"{len(CHECKS) - 1}/{len(CHECKS)} checks passed")


def test_analyze_near_right_angle(capsys):
    # the center mixed derivative grows like sec m here; the aligning
    # rotation is still reported, and it is the smallest root
    code, out, _ = run(capsys, "analyze", "--params", "1.5698,-1.845,-4.453")
    assert code == 0
    assert 0.0 <= json.loads(out)["center"]["alpha"] < math.pi / 2


def test_run_checks_lets_other_exceptions_through(case1, monkeypatch):
    import scherk.checks as checks
    _, _, _, d = case1

    def broken(d, ev):
        raise ValueError("not a library error")

    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:1] + (
        ("broken", (1.0, 1.0), broken),))
    with pytest.raises(ValueError, match="not a library error"):
        checks.run_checks(d)


def test_verify_runtime_budget():
    _, _, _, d = build_case(0.3, 1.0, 0.3)
    start = time.perf_counter()
    rows = run_checks(d, profile="default")
    elapsed = time.perf_counter() - start
    assert all(ok for *_, ok in rows)
    assert elapsed < 30.0


# off the sweep, surfaces that failed a row: near |k| = 8 (1 - |z0|^2 from z0),
# at j = 0.024 (h'(0) from the residue sum), k = 7.3 (residues 339 to 42.4), 7, -0.8,
# and k = -12.1 (circle residues 1.2e-7 off with a second, Richardson circle)
REGRESSION_PARAMS = LARGE_K_PARAMS + (
    (1.2381208153591716, 0.3275948943101834, 0.2797940167649149),
    (0.13890206535917143, 8.357027889913319, 6.279161021161783),
    (0.7, 7.5, 6.5), (1.1, 0.4, -2.0),
    (1.1406223083799412, -9.110409515495434, -15.118989933259435))


@pytest.fixture(scope="session")
def row_surfaces(case1, case2, sweep_cases):
    """(d, evaluate(d)) on case1, case2, sweep_cases and REGRESSION_PARAMS."""
    cases = [case1, case2] + sweep_cases + [build_case(*p) for p in REGRESSION_PARAMS]
    return [(d, evaluate(d)) for *_, d in cases]


@pytest.mark.parametrize("name, tols, err_of", CHECKS,
                         ids=[name for name, *_ in CHECKS])
def test_check_row_passes_both_profiles(name, tols, err_of, row_surfaces):
    assert len(row_surfaces) == 160
    for d, ev in row_surfaces:
        err = err_of(d, ev)
        assert all(err <= tol for tol in tols), (
            f"{name}: err {err:.3e} at {tuple(d.coords)}")


def test_evaluate_jet_is_bitwise_taylor(row_surfaces):
    # evaluate reads the jet off the Taylor circles of its one map_and_height
    # call; taylor(d) makes a call of its own, and the two agree to the bit
    for d, ev in row_surfaces:
        for got, want in zip(ev["jet"], taylor(d)):   # coeffs, P, U, V
            assert_same_bits(got, want)


def test_verify_prints_check_rows_in_table_order(capsys):
    names = [name for name, *_ in CHECKS]
    assert len(names) == len(set(names)) == 18
    code, out, _ = run(capsys, "verify", "--params", "0.3,1.0,-0.3")
    assert code == 0
    assert [ln.split()[1] for ln in out.splitlines()[:-1]] == names


def test_verify_has_no_seed_option(capsys):
    # every point verify reads is fixed, so there is nothing to seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--params", "0.3,1.0,0.3", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "--params", "0.3,1.0,0.3")
    assert code == 0
    assert out.splitlines()[-1] == (
        f"{len(CHECKS)}/{len(CHECKS)} checks passed (profile=default)")


def test_mesh_command(capsys, tmp_path):
    path = tmp_path / "out.obj"
    code, out, _ = run(capsys, "mesh", "--params", "0.3,1.0,0.3",
                       "--nr", "3", "--ntheta", "9", "--out", str(path))
    assert code == 0
    assert "wrote 28 vertices" in out
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("f ")) == 9 + 2 * 2 * 9
    code, out, _ = run(capsys, "mesh", "--params", "0.3,1.0,0.3",
                       "--nr", "1", "--ntheta", "3")
    assert code == 0
    assert out.startswith("v ")


def test_mesh_stdout_matches_out_file(capsys, tmp_path):
    argv = ("mesh", "--params", "0.7,0.9,-1.1", "--nr", "4", "--ntheta", "7")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.obj"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()
    _, frame, _, d = build_case(0.7, 0.9, -1.1)
    mesh = sample_disk(d, frame, n_r=4, n_theta=7)
    assert mesh.vertices.shape == (1 + 4 * 7, 3)
    assert mesh.vertices.dtype == np.float64
    assert mesh.faces.shape == (7 + 2 * 3 * 7, 3)
    assert np.issubdtype(mesh.faces.dtype, np.integer)
    assert np.array_equal(np.unique(mesh.faces), np.arange(1 + 4 * 7))


def test_mesh_obj_blocks_match_one_shot_format(capsys, tmp_path):
    # 4 801 vertices and 9 520 faces: several OBJ blocks of each kind
    _, frame, _, d = build_case(0.7, 0.9, -1.1)
    mesh = sample_disk(d, frame, n_r=60, n_theta=80)
    assert mesh.vertices.shape == (4801, 3) and mesh.faces.shape == (9520, 3)
    want = (("v %.17g %.17g %.17g\n" * len(mesh.vertices))
            % tuple(mesh.vertices.ravel().tolist())
            + ("f %d %d %d\n" * len(mesh.faces))
            % tuple((mesh.faces + 1).ravel().tolist())).encode()
    assert len(list(obj_text(mesh))) == 5  # 2 vertex and 3 face blocks
    argv = ("mesh", "--params", "0.7,0.9,-1.1", "--nr", "60", "--ntheta", "80")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert_same_text(out.encode(), want)
    path = tmp_path / "out.obj"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert_same_text(path.read_bytes(), want)


def test_bench_tracer_finds_the_functions_it_names():
    # the traced benchmark looks layer functions up by name; a deleted one
    # fails here, not only in CI's traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = tracing.Tracer().summary(0, {})
    # bench/run.py adds the other two metrics from the run, not the spans
    assert set(out) == {name for name, _ in tracing.LAYER_METRICS} - {
        "cli.verify.checks_failed", "trace.overhead_share"}


def test_no_test_module_binds_a_top_level_name_twice():
    # a second `def test_x` silently replaces the first, which then never runs
    for path in sorted(Path(__file__).parent.glob("*.py")):
        names = [node.name for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))]
        twice = sorted({name for name in names if names.count(name) > 1})
        assert not twice, f"{path.name} binds {twice} more than once"


def test_every_private_top_level_name_in_src_is_read():
    # a helper that a change leaves behind is a top-level _name nothing reads
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(scherk.__file__).parent.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    for path, tree in trees.items():
        bound = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound += [name.id for target in targets for name in ast.walk(target)
                          if isinstance(name, ast.Name)]
        dead = sorted(n for n in bound if n.startswith("_")
                      and not n.startswith("__") and n not in read)
        assert not dead, f"{path} defines {dead}, which nothing in src/scherk reads"


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert abs(namespace["f0"] - namespace["d"].h0) < 1e-15
    assert namespace["mesh"].vertices.shape[1] == 3


def test_asymptotics_command(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "asymptotics", "--params", "0.3,1.0,0.3",
                       "--pole", "2", "--out", str(csv))
    assert code == 0
    assert "rel err" in out
    rel = float(out.rsplit("rel err", 1)[1].strip().rstrip(")\n"))
    assert rel < 0.01
    lines = csv.read_text().splitlines()
    assert lines[0] == "r,T" and len(lines) == 14


def test_asymptotics_prints_the_slope_of_the_growth_row(capsys, case1, case2):
    # the command and the radial_growth_slopes row read one fit, its closed
    # form +-2 cj and its relative error from checks.growth_fit: the command
    # on its own 52 ray heights, the row on verify's evaluation
    for params, (_, _, _, d) in (("0.3,1.0,0.3", case1),
                                     ("0.3,1.0,-0.3", case2)):
        fit = growth_fit(d, evaluate(d)["rays"][1])
        for pole in (1, 2, 3, 4):
            code, out, _ = run(capsys, "asymptotics", "--params", params,
                               "--pole", str(pole))
            assert code == 0
            slope, target, rel = fit[pole - 1]
            assert target == (2, -2, 2, -2)[pole - 1] * d.cj[pole - 1]
            assert out == (f"pole {pole}: fitted slope {slope:.12g} vs closed "
                           f"form {target:.12g} (rel err {rel:.3e})\n")
        row = dict((name, err) for name, err, *_ in run_checks(d))
        assert row["radial_growth_slopes"] == max(rel for *_, rel in fit)


def test_asymptotics_out_writes_the_column_it_fits(capsys, case2, tmp_path):
    # the CSV holds T on the ray toward pole 3, the heights the fit reads
    _, _, _, d = case2
    csv = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "asymptotics", "--params", "0.3,1.0,-0.3",
                       "--pole", "3", "--out", str(csv))
    assert code == 0
    radii, rays = growth_rays(d)[0], evaluate(d)["rays"][1]
    slope, target, rel = growth_fit(d, rays)[2]
    assert out == (f"pole 3: fitted slope {slope:.12g} vs closed form "
                   f"{target:.12g} (rel err {rel:.3e})\n")
    column = np.reshape(rays, (radii.size, 4))[:, 2]
    assert csv.read_text().splitlines() == ["r,T"] + [
        f"{r:.17g},{t:.17g}" for r, t in zip(radii, column)]


def test_m_zero_kites_are_judged_not_refused(capsys, monkeypatch):
    # kites about the diagonal b2b4 (m = 0): s, t = k +- j with j log-uniform
    # in [0.02, 4] and |k| <= 8, placed by a random similarity so that their
    # focal difference is rounding noise about 0.  analyze gives a finite
    # report and verify a verdict (exit 0 or 1), never a refusal (exit 2).
    gen = np.random.default_rng(20261019)
    for _ in range(30):
        j = math.exp(gen.uniform(math.log(0.02), math.log(4.0)))
        k = gen.uniform(-8.0, 8.0)
        a = complex(*gen.normal(size=2))
        b = complex(*gen.normal(size=2))
        kite = [-1, 1j * math.sinh(k - j), 1, 1j * math.sinh(k + j)]
        doc = json.dumps({"vertices": [[(a * v + b).real, (a * v + b).imag]
                                       for v in kite]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 0, (j, k, err)
        report = json.loads(out)
        assert report["coordinates"]["m"] == 0.0
        assert abs(report["coordinates"]["j"] - j) < 1e-6 * (1 + j)
        assert all(math.isfinite(x) for x in _leaves(report))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, _, err = run(capsys, "verify", "-")
        assert code in (0, 1), (j, k, err)


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _leaves(v)]
    return [] if isinstance(obj, (bool, str)) else [obj]


def test_build_report_and_load_quad_helpers():
    class Args:
        params = "0.3,1.0,0.3"
        input = None
        tol_pitot = DEFAULT_TOL_PITOT

    q = load_quad(Args())
    frame, _, _ = normalize(q)
    d = scherk_data(hyperbolic_coordinates(frame.z, frame.w))
    doc = build_report(q, frame, d)
    assert set(doc) == {"quad", "normalization", "coordinates", "parameters",
                        "growth", "center"}
    assert doc["growth"]["lam"] > 0
