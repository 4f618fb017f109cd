"""Command-line interface.

Input and output only: four subcommands over a common input format (a
JSON file with "vertices" or "m","s","t", or --params m,s,t), each of which
builds the surface record once and formats what the library computes on it:

  analyze      closed-form report of the surface as canonical JSON
  verify       print the rows of the self-check suite (checks.CHECKS)
  mesh         export a triangulated sample of the graph as OBJ
  asymptotics  fit the logarithmic height growth along a boundary ray

Exit codes: 0 success, 1 verify found a failing check, 2 invalid input or
degenerate geometry.
"""

import argparse
import json
import math
import sys

import numpy as np

from .analysis import center_report
from .checks import GROWTH_RADII, _growth_fit, run_checks
from .errors import IoError, ScherkError
from .geometry import (DEFAULT_TOL_PITOT, construct_quad,
                       hyperbolic_coordinates, normalize,
                       validate_quadrilateral)
from .mesh import export_csv, export_obj, obj_text, radial_trace, sample_disk
from .params import scherk_data


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number in report")
    return f"{x:.17g}"


def canonical_json(obj):
    """Deterministic JSON: sorted keys, .17g floats, complex as [re, im]."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {canonical_json(v)}"
                          for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# input handling


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _floats(values, source):
    try:
        return [float(x) for x in values]
    except (TypeError, ValueError) as exc:
        raise IoError(f"{source}: {exc}") from exc


def load_quad(args):
    """Build the validated quadrilateral from CLI arguments."""
    tol = args.tol_pitot
    if args.params:
        parts = args.params.split(",")
        if len(parts) != 3:
            raise IoError("--params expects three numbers m,s,t")
        return construct_quad(*_floats(parts, "--params"), tol_pitot=tol)
    if not args.input:
        raise IoError("no input: pass a JSON file path ('-' for stdin) "
                      "or --params m,s,t")
    try:
        data = json.loads(_read_text(args.input))
    except json.JSONDecodeError as exc:
        raise IoError(f"invalid JSON in {args.input}: {exc}") from exc
    if isinstance(data, dict) and "vertices" in data:
        return validate_quadrilateral(data["vertices"], tol_pitot=tol)
    if isinstance(data, dict) and all(k in data for k in ("m", "s", "t")):
        return construct_quad(*_floats(map(data.get, "mst"), "JSON m,s,t"), tol)
    raise IoError("JSON input must contain \"vertices\" ([[x,y], ...]) "
                  "or the keys \"m\", \"s\", \"t\"")


def _setup(q, tol_pitot):
    frame, _, _ = normalize(q)
    coords = hyperbolic_coordinates(frame.z, frame.w, tol_pitot)
    return frame, coords, scherk_data(coords)


# ---------------------------------------------------------------------------
# analyze


def build_report(q, tol_pitot=DEFAULT_TOL_PITOT):
    """All closed-form data of a validated quadrilateral, as a JSON-ready dict."""
    frame, coords, d = _setup(q, tol_pitot)
    c1, c2, c3, c4 = d.cj
    return {
        "quad": {
            "vertices": [[b.real, b.imag] for b in q.vertices],
            "pitot_residual": q.pitot_residual,
            "perimeter": q.perimeter(),
            "reversed_input": q.reversed_input,
        },
        "normalization": {
            "scale": frame.scale, "shift": frame.shift,
            "z": frame.z, "w": frame.w, "relabeled": frame.relabeled,
        },
        "coordinates": {"m": coords.m, "s": coords.s, "t": coords.t,
                        "j": coords.j, "k": coords.k},
        "parameters": {"p": d.p, "e_ip": d.e_ip, "z0": d.z0, "X": d.X,
                       "sqrt_X": d.sqrtX, "B": d.B, "Z": d.X, "A": d.A,
                       "C": d.C},
        "growth": {"lam": d.lam, "c1": c1, "c2": c2, "c3": c3, "c4": c4},
        "center": center_report(d, frame),
    }


def _emit(text, out):
    if out:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_analyze(args):
    q = load_quad(args)
    report = build_report(q, args.tol_pitot)
    _emit(canonical_json(report) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify / mesh / asymptotics


def cmd_verify(args):
    q = load_quad(args)
    frame, _, d = _setup(q, args.tol_pitot)
    rows = run_checks(d, frame, profile=args.tol_profile, seed=args.seed)
    width = max(len(name) for name, *_ in rows)
    lines = []
    for name, err, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name:<{width}}  err={err:9.3e}  tol={tol:9.3e}")
    n_ok = sum(1 for *_, ok in rows if ok)
    lines.append(f"{n_ok}/{len(rows)} checks passed "
                 f"(profile={args.tol_profile}, seed={args.seed})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_ok == len(rows) else 1


def cmd_mesh(args):
    q = load_quad(args)
    frame, _, d = _setup(q, args.tol_pitot)
    mesh = sample_disk(d, frame, n_r=args.nr, n_theta=args.ntheta,
                       r_max=args.rmax, h_max=args.hmax)
    if args.out:
        export_obj(mesh, args.out)
        sys.stdout.write(
            f"wrote {len(mesh.vertices)} vertices, {len(mesh.faces)} faces "
            f"to {args.out} ({mesh.metadata['clamped']} heights clamped)\n")
    else:
        sys.stdout.writelines(obj_text(mesh))
    return 0


def cmd_asymptotics(args):
    q = load_quad(args)
    _, _, d = _setup(q, args.tol_pitot)
    if args.out:
        export_csv(radial_trace(d, args.pole, GROWTH_RADII), args.out)
    slope, target, rel = _growth_fit(d)[args.pole - 1]
    sys.stdout.write(
        f"pole {args.pole}: fitted slope {slope:.12g} vs closed form "
        f"{target:.12g} (rel err {rel:.3e})\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p):
    p.add_argument("input", nargs="?", default=None,
                   help="JSON input file ('-' for stdin) with \"vertices\" "
                        "or \"m\",\"s\",\"t\"")
    p.add_argument("--params", metavar="M,S,T",
                   help="construct the canonical quadrilateral from m,s,t")
    p.add_argument("--tol-pitot", type=float, default=DEFAULT_TOL_PITOT,
                   help="relative side-sum tolerance (default %(default)g)")
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="scherk",
        description="Saddle-type minimal graphs over Pitot quadrilaterals: "
                    "closed-form construction, verification, and export.")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="print the closed-form report as JSON")
    _add_common(pa)

    pv = sub.add_parser("verify", help="run the oracle self-check suite")
    _add_common(pv)
    pv.add_argument("--tol-profile", choices=("default", "strict"),
                    default="default", help="tolerance profile")
    pv.add_argument("--seed", type=int, default=0,
                    help="seed for randomized check sampling")

    pm = sub.add_parser("mesh", help="export a triangulated surface sample")
    _add_common(pm)
    pm.add_argument("--nr", type=int, default=24, help="number of rings")
    pm.add_argument("--ntheta", type=int, default=48, help="points per ring")
    pm.add_argument("--rmax", type=float, default=0.995, help="outer radius")
    pm.add_argument("--hmax", type=float, default=5.0, help="height clamp")

    ps = sub.add_parser("asymptotics",
                        help="fit logarithmic height growth along a ray")
    _add_common(ps)
    ps.add_argument("--pole", type=int, choices=(1, 2, 3, 4), default=1,
                    help="which boundary pole to approach")
    return ap


_COMMANDS = {
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "mesh": cmd_mesh,
    "asymptotics": cmd_asymptotics,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScherkError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
