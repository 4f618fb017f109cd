"""Command-line interface.

Input and output only: four subcommands share one parent parser's inputs
(a JSON file with "vertices" or "m","s","t", or --params m,s,t).  main loads
the quadrilateral q and builds its normalized frame and surface record d
once; each command takes (args, q, frame, d) and formats what the library
computes on them; frame maps results back to q only in build_report and
mesh.sample_disk:

  analyze      closed-form report of the surface as canonical JSON
  verify       print the rows of the self-check suite (checks.CHECKS)
  mesh         export a triangulated sample of the graph as OBJ
  asymptotics  fit the logarithmic height growth along a boundary ray

Exit codes: 0 success, 1 verify found a failing check, 2 invalid input or
degenerate geometry.

numpy and the array layers (checks, mesh, weierstrass) are imported inside
the commands that use them: analyze, --help and input refusals never load them.
"""

import argparse
import json
import math
import sys

from .analysis import (aligning_rotation, center_mixed_derivative,
                       center_normal, curvature_bound, gauss_curvature,
                       graph_normal)
from .errors import IoError, OutOfDomain, ScherkError
from .geometry import (DEFAULT_TOL_PITOT, construct_quad,
                       hyperbolic_coordinates, normalize,
                       validate_quadrilateral)
from .params import gauss_map_q, scherk_data


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number in report")
    return f"{x:.17g}"


def canonical_json(obj):
    """Deterministic JSON: sorted keys, .17g floats, complex as [re, im]."""
    # a report holds only these types, most frequent first; np.float64 and
    # np.complex128 subclass float and complex
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {canonical_json(v)}"
                          for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, complex):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise IoError(f"{source}: {exc}") from exc


def _json_float(x, source):
    """A number of a JSON document as a float; float() would also read true,
    false and numeric strings."""
    if type(x) not in (int, float):
        raise IoError(f"{source}: not a number: {json.dumps(x)}")
    return _floats([x], source)[0]


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
        vertices, key = data["vertices"], 'JSON "vertices"'
        if isinstance(vertices, list):  # validate checks the pair length
            bare = [v for v in vertices if not isinstance(v, list)]
            if bare:
                raise IoError(f"{key}: not an [x, y] pair: "
                              f"{json.dumps(bare[0])}")
            vertices = [[_json_float(x, key) for x in v] for v in vertices]
        return validate_quadrilateral(vertices, tol_pitot=tol)
    if isinstance(data, dict) and all(k in data for k in ("m", "s", "t")):
        return construct_quad(*(_json_float(data[k], f'JSON m,s,t: "{k}"')
                                for k in "mst"), tol)
    raise IoError("JSON input must contain \"vertices\" ([[x,y], ...]) "
                  "or the keys \"m\", \"s\", \"t\"")


# ---------------------------------------------------------------------------
# analyze


def _leaf(name, form):
    """form(), a nonzero report leaf, refused by name unless a normal double."""
    try:
        value = form()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not sys.float_info.min <= abs(value) < math.inf:
        raise OutOfDomain(f"report leaf {name} = {value!r} is out of double range")
    return value


def build_report(q, frame, d):
    """All closed-form data of the quadrilateral q, its normalized frame and
    its surface record d, as a JSON-ready dict; the center data are mapped
    from the normalized frame back to q here, where |b1 - b3| = 2/|scale|."""
    coords = d.coords
    c1, c2, c3, c4 = d.cj
    curvature, scale = gauss_curvature(0.0 + 0.0j, d), abs(frame.scale)
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
        "center": {
            "c0": complex(frame.invert(d.h0)), "c0_normalized": d.h0,
            "q0": gauss_map_q(0j, d), "q0_prime": d.q0_prime,
            "h0_prime": d.h0_prime, "curvature_normalized": curvature,
            "curvature": _leaf("center.curvature", lambda: curvature * scale ** 2),
            # 4 x is exact, so the bound keeps the bits of its closed form
            "curvature_bound": _leaf("center.curvature_bound", lambda: 4.0
                                     * curvature_bound(d) / (2.0 / scale) ** 2),
            "normal": list(center_normal(d)),
            "graph_normal": list(graph_normal(d)),
            "mixed_derivative": center_mixed_derivative(d),
            "alpha": aligning_rotation(d),
        },
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


def cmd_analyze(args, q, frame, d):
    _emit(canonical_json(build_report(q, frame, d)) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify / mesh / asymptotics


def cmd_verify(args, q, frame, d):
    from .checks import run_checks
    rows = run_checks(d, profile=args.tol_profile)
    width = max(len(name) for name, *_ in rows)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  err={err:9.3e}  "
             f"tol={tol:9.3e}" for name, err, tol, ok in rows]
    n_ok = sum(1 for *_, ok in rows if ok)
    lines.append(f"{n_ok}/{len(rows)} checks passed "
                 f"(profile={args.tol_profile})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_ok == len(rows) else 1


def cmd_mesh(args, q, frame, d):
    from .mesh import export_obj, obj_text, sample_disk
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


def cmd_asymptotics(args, q, frame, d):
    from .checks import growth_fit, growth_rays
    from .weierstrass import height_T
    radii, rays = growth_rays(d)
    heights = height_T(rays, d)
    if args.out:  # the fitted ray, as CSV
        _emit("r,T\n" + "".join(f"{r:.17g},{t:.17g}\n" for r, t in zip(
            radii, heights[:, args.pole - 1])), args.out)
    slope, target, rel = growth_fit(d, heights)[args.pole - 1]
    sys.stdout.write(
        f"pole {args.pole}: fitted slope {slope:.12g} vs closed form "
        f"{target:.12g} (rel err {rel:.3e})\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    common = argparse.ArgumentParser(add_help=False)  # each command's input
    common.add_argument("input", nargs="?", default=None,
                        help="JSON input file ('-' for stdin) with "
                             "\"vertices\" or \"m\",\"s\",\"t\"")
    common.add_argument("--params", metavar="M,S,T",
                        help="construct the canonical quadrilateral from m,s,t")
    common.add_argument("--tol-pitot", type=float, default=DEFAULT_TOL_PITOT,
                        help="relative side-sum tolerance, in [0, 1) "
                             "(default %(default)g)")
    common.add_argument("--out", help="write output to this file")
    ap = argparse.ArgumentParser(
        prog="scherk",
        description="Saddle-type minimal graphs over Pitot quadrilaterals: "
                    "closed-form construction, verification, and export.")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", parents=[common],
                   help="print the closed-form report as JSON")

    pv = sub.add_parser("verify", parents=[common],
                        help="run the oracle self-check suite")
    pv.add_argument("--tol-profile", choices=("default", "strict"),
                    default="default", help="tolerance profile")

    pm = sub.add_parser("mesh", parents=[common],
                        help="export a triangulated surface sample")
    pm.add_argument("--nr", type=int, default=24, help="number of rings")
    pm.add_argument("--ntheta", type=int, default=48, help="points per ring")
    pm.add_argument("--rmax", type=float, default=0.995, help="outer radius")
    pm.add_argument("--hmax", type=float, default=5.0, help="height clamp")

    ps = sub.add_parser("asymptotics", parents=[common],
                        help="fit logarithmic height growth along a ray")
    ps.add_argument("--pole", type=int, choices=(1, 2, 3, 4), default=1,
                    help="which boundary pole to approach")
    return ap


_COMMANDS = {"analyze": cmd_analyze, "verify": cmd_verify, "mesh": cmd_mesh,
             "asymptotics": cmd_asymptotics}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        q = load_quad(args)
        frame, _, _ = normalize(q)
        coords = hyperbolic_coordinates(frame.z, frame.w, args.tol_pitot)
        return _COMMANDS[args.command](args, q, frame, scherk_data(coords))
    except (ScherkError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
