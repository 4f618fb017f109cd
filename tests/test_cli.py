"""Command-line interface: report content, determinism, exit codes."""

import ast
import importlib.util
import inspect
import io
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import scherk
from scherk import sample_disk
from scherk.checks import CHECKS, run_checks
from scherk.cli import build_report, canonical_json, load_quad, main
from scherk.geometry import DEFAULT_TOL_PITOT
from scherk.mesh import obj_text
from conftest import build_case


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canonical_json_formatting():
    doc = {"b": 1.5, "a": 1 + 2j, "c": [True, None, "x"], "n": 3}
    got = canonical_json(doc)
    assert got == '{"a": [1, 2], "b": 1.5, "c": [true, null, "x"], "n": 3}'
    assert canonical_json(0.1) == "0.10000000000000001"
    with pytest.raises(ValueError):
        canonical_json(math.inf)


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


def test_exit_two_on_bad_inputs(capsys, tmp_path, monkeypatch):
    # not a Pitot quadrilateral
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"vertices": [[0,0],[2,0],[3,1],[0,1]]}'))
    code, _, err = run(capsys, "analyze", "-")
    assert code == 2 and "NotPitot" in err
    # rhombus: the focal hyperbola degenerates
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"vertices": [[-1,-1],[1,-1],[1,1],[-1,1]]}'))
    code, _, err = run(capsys, "analyze", "-")
    assert code == 2 and "FociCoincide" in err
    # a library ValueError is named like a ScherkError
    code, out, err = run(capsys, "analyze", "--params", "2,1,0.3")
    assert code == 2 and out == ""
    assert err == "error: ValueError: m must lie in (0, pi/2)\n"
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "IoError" in err
    # no input at all
    code, _, err = run(capsys, "analyze")
    assert code == 2
    # wrong --params arity
    code, _, err = run(capsys, "analyze", "--params", "1,2")
    assert code == 2
    # missing file
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 2 and "IoError" in err
    # vertices 1 and 3 are 2 apart, but the diameter is about 5e12: the
    # message gives the separation, the diameter and the relative threshold
    for params in ("0.3,30,29", "0.3,-30,-29"):
        code, _, err = run(capsys, "analyze", "--params", params)
        assert code == 2 and "DegenerateVertices" in err
        assert "2.000e+00 apart" in err and "1e-12" in err
        assert "diameter 5.343e+12" in err
    # an outer ring past the height's bound |z| <= 1 - 1e-9: r_max is named
    code, out, err = run(capsys, "mesh", "--params", "0.3,1.0,0.3", "--rmax",
                         "0.9999999999", "--nr", "2", "--ntheta", "4")
    assert code == 2 and out == ""
    assert "r_max=0.9999999999" in err and "height requires" not in err
    # malformed JSON values: a one-line refusal naming the field
    for doc, field in (('{"vertices": 5}', "vertices"),
                       ('{"vertices": [[1],[2],[3],[4]]}', "vertices"),
                       ('{"vertices": [[0,0],["a","b"],[1,0],[1,1]]}',
                        "vertices"),
                       ('{"m": null, "s": 1, "t": 0.3}', "m,s,t"),
                       ('{"m": [0.3], "s": 1, "t": 0.3}', "m,s,t")):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
    # rapidities whose hyperbola point overflows a float name m and tau
    for params in ("0.3,1000,0.3", "0.3,1,-720"):
        for command in ("analyze", "verify"):
            code, out, err = run(capsys, command, "--params", params)
            assert code == 2 and out == ""
            assert "OutOfDomain" in err and "m=0.3" in err and "tau=" in err
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"m": 0.3, "s": 1000, "t": 0.3}'))
    code, _, err = run(capsys, "analyze", "-")
    assert code == 2 and "OutOfDomain" in err and "tau=1000.0" in err


def test_every_error_type_is_raised():
    # each ScherkError subclass names a failure that the library can reach
    root = Path(scherk.__file__).parent
    raised = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)   # X(...) or X
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    types = [name for name, obj in vars(scherk.errors).items()
             if inspect.isclass(obj) and issubclass(obj, scherk.ScherkError)
             and obj is not scherk.ScherkError]
    assert types
    assert [name for name in types if name not in raised] == []


def test_tol_pitot_flag(capsys, monkeypatch):
    q, _, _, _ = build_case(0.3, 1.0, 0.3)
    verts = [[v.real, v.imag] for v in q.vertices]
    verts[1][0] += 1e-5   # break the side-sum balance slightly
    payload = json.dumps({"vertices": verts})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, err = run(capsys, "analyze", "-")
    assert code == 2 and "NotPitot" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, _, _ = run(capsys, "analyze", "-", "--tol-pitot", "1e-3")
    assert code == 0


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
    # leave no note
    for profile in ("default", "strict"):
        code, out, err = run(capsys, "verify", "--params", "1.4,8.02,7.98",
                             "--tol-profile", profile)
        assert code == 1 and err == ""
        status = {ln.split()[1]: (ln.split()[0],
                                  float(ln.split("err=")[1].split()[0]))
                  for ln in out.splitlines()[:-1]}
        assert len(status) == 21
        for name in ("graph_normal_vs_fd", "mixed_derivative_vs_fd",
                     "aligned_mixed_derivative_zero", "laplacian_defect_fd"):
            verdict, value = status[name]
            assert verdict == "PASS" and math.isfinite(value), name


def test_verify_calls_no_newton_inversion(capsys, monkeypatch):
    # every row, the graph rows included, runs without inverting the map
    def refuse(d, target):
        raise AssertionError("verify called newton_invert")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "scherk" and hasattr(module, "newton_invert"):
            monkeypatch.setattr(module, "newton_invert", refuse)
    for params in ("0.3,1.0,-0.3", "1.4,8.02,7.98", "0.7,7.5,6.5"):
        code, out, err = run(capsys, "verify", "--params", params)
        assert code in (0, 1) and err == ""
        assert len(out.splitlines()) == 22


def test_vertex_with_extra_coordinates_is_refused(capsys, monkeypatch):
    # read as (-1, 0) before, the third coordinate silently dropped
    doc = '{"vertices": [[-1,0,7],[0.309,0.291],[1,0],[0.456,1.123]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "analyze", "-", "--tol-pitot", "1e-3")
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: vertices must be pairs of numbers")
    assert err.count("\n") == 1


def test_verify_reports_any_library_error_as_a_fail_row(capsys, monkeypatch):
    # a row that raises any ScherkError fails with its reason and the other
    # 20 rows still print
    import scherk.checks as checks
    idx = 10
    name, tols, _ = checks.CHECKS[idx]

    def raises(d, frame, seed):
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
    assert out.splitlines()[-1].startswith("20/21 checks passed")


def test_analyze_near_right_angle(capsys):
    # the center mixed derivative grows like sec m here; the aligning
    # rotation is still reported, and it is the smallest root
    code, out, _ = run(capsys, "analyze", "--params", "1.5698,-1.845,-4.453")
    assert code == 0
    assert 0.0 <= json.loads(out)["center"]["alpha"] < math.pi / 2


def test_run_checks_lets_other_exceptions_through(case1, monkeypatch):
    import scherk.checks as checks
    _, frame, _, d = case1

    def broken(d, frame, seed):
        raise ValueError("not a library error")

    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[:1] + (
        ("broken", (1.0, 1.0), broken),))
    with pytest.raises(ValueError, match="not a library error"):
        checks.run_checks(d, frame)


def test_verify_runtime_budget():
    _, frame, _, d = build_case(0.3, 1.0, 0.3)
    start = time.perf_counter()
    rows = run_checks(d, frame, profile="default", seed=0)
    elapsed = time.perf_counter() - start
    assert all(ok for *_, ok in rows)
    assert elapsed < 30.0


@pytest.mark.parametrize("name, tols, err_of", CHECKS,
                         ids=[name for name, *_ in CHECKS])
def test_check_row_passes_both_profiles(name, tols, err_of, case1, case2):
    for _, frame, _, d in (case1, case2):
        err = err_of(d, frame, 0)
        assert all(err <= tol for tol in tols), f"{name}: err {err:.3e}"


def test_verify_prints_check_rows_in_table_order(capsys):
    names = [name for name, *_ in CHECKS]
    assert len(names) == len(set(names)) == 21
    code, out, _ = run(capsys, "verify", "--params", "0.3,1.0,-0.3")
    assert code == 0
    assert [ln.split()[1] for ln in out.splitlines()[:-1]] == names


def test_verify_seed_changes_samples_not_outcome(capsys):
    code1, out1, _ = run(capsys, "verify", "--params", "0.3,1.0,0.3",
                         "--seed", "1")
    code2, out2, _ = run(capsys, "verify", "--params", "0.3,1.0,0.3",
                         "--seed", "2")
    assert code1 == code2 == 0
    assert out1 != out2   # sampled errors differ


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


def test_each_command_builds_its_surface_once(capsys, monkeypatch, tmp_path):
    counts = {}
    names = ("scherk_data", "normalize", "hyperbolic_coordinates")
    for name in names:
        original = getattr(scherk.params, name, None) or getattr(scherk, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "scherk" \
                    and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    for argv in (["analyze"], ["verify"],
                 ["mesh", "--nr", "2", "--ntheta", "6", "--out",
                  str(tmp_path / "m.obj")],
                 ["asymptotics"]):
        counts.update(dict.fromkeys(names, 0))
        code, _, _ = run(capsys, *argv, "--params", "0.3,1.0,0.3")
        assert code == 0
        assert counts == dict.fromkeys(names, 1), argv[0]


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
    assert out.encode() == want
    path = tmp_path / "out.obj"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == want


def test_hyperbola_round_trip_failure_is_a_typed_refusal(capsys):
    params = "1.5705628125801272,-7.537819190044724,-8.393131908211805"
    code, out, err = run(capsys, "analyze", "--params", params)
    assert code == 2 and out == ""
    assert err.startswith("error: OutOfDomain: z does not round-trip through"
                          " the hyperbola at m=1.5705628121355")
    assert re.search(r"mismatch \S+ > tolerance \S+\n$", err)


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


def test_build_report_and_load_quad_helpers(tmp_path):
    class Args:
        params = "0.3,1.0,0.3"
        input = None
        tol_pitot = DEFAULT_TOL_PITOT

    q = load_quad(Args())
    doc = build_report(q)
    assert set(doc) == {"quad", "normalization", "coordinates", "parameters",
                        "growth", "center"}
    assert doc["growth"]["lam"] > 0
