"""Command-line interface.

Four subcommands over a common input format (a JSON file with "vertices"
or "m","s","t", or --params m,s,t):

  analyze      closed-form report of the surface as canonical JSON
  verify       run the self-check suite (closed forms vs numeric oracles)
  mesh         export a triangulated sample of the graph as OBJ
  asymptotics  fit the logarithmic height growth along a boundary ray

Exit codes: 0 success, 1 verify found a failing check, 2 invalid input or
degenerate geometry.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (aligning_rotation, center_mixed_derivative,
                       center_report, curvature_bound, gauss_curvature,
                       graph_normal)
from .errors import IoError, NewtonDiverged, ScherkError
from .geometry import (DEFAULT_TOL_PITOT, construct_quad,
                       hyperbolic_coordinates, normalize,
                       validate_quadrilateral)
from .harmonic import (dilatation, harmonic_center, harmonic_map, jacobian,
                       step_boundary)
from .mesh import export_csv, export_obj, radial_trace, sample_disk
from .oracles import (fd_laplacian, fd_mixed, graph_height_function,
                      kernel_contour_height, newton_invert, numeric_residue,
                      poisson_extension)
from .params import scherk_data
from .weierstrass import asymptotic_constants, gauss_map_q, height_T, kernel_K, residues


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


def load_quad(args):
    """Build the validated quadrilateral from CLI arguments."""
    tol = args.tol_pitot if args.tol_pitot is not None else DEFAULT_TOL_PITOT
    if args.params:
        parts = args.params.split(",")
        if len(parts) != 3:
            raise IoError("--params expects three numbers m,s,t")
        try:
            m, s, t = (float(x) for x in parts)
        except ValueError as exc:
            raise IoError(f"--params: {exc}") from exc
        return construct_quad(m, s, t, tol_pitot=tol)
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
        return construct_quad(float(data["m"]), float(data["s"]),
                              float(data["t"]), tol_pitot=tol)
    raise IoError("JSON input must contain \"vertices\" ([[x,y], ...]) "
                  "or the keys \"m\", \"s\", \"t\"")


def _coord_tol(args):
    """Confocal-check tolerance matching the requested side-sum tolerance."""
    tol = args.tol_pitot if args.tol_pitot is not None else DEFAULT_TOL_PITOT
    return max(1e-8, tol)


def _setup(q, tol=1e-8):
    frame, _, _ = normalize(q)
    coords = hyperbolic_coordinates(frame.z, frame.w, tol=tol)
    return frame, coords, scherk_data(coords)


# ---------------------------------------------------------------------------
# analyze


@dataclass(frozen=True)
class AnalysisReport:
    """All closed-form data of one surface, ready for serialization."""
    quad: dict
    normalization: dict
    coordinates: dict
    parameters: dict
    growth: dict
    center: dict

    def to_dict(self):
        return {
            "quad": self.quad,
            "normalization": self.normalization,
            "coordinates": self.coordinates,
            "parameters": self.parameters,
            "growth": self.growth,
            "center": self.center,
        }


def build_report(q, tol=1e-8):
    """Assemble the AnalysisReport for a validated quadrilateral."""
    frame, coords, d = _setup(q, tol)
    lam, c1, c2, c3, c4 = asymptotic_constants(d)
    rep = center_report(q, tol=tol)
    return AnalysisReport(
        quad={
            "vertices": [[b.real, b.imag] for b in q.vertices],
            "pitot_residual": q.pitot_residual,
            "perimeter": q.perimeter(),
            "reversed_input": q.reversed_input,
        },
        normalization={
            "scale": frame.scale, "shift": frame.shift,
            "z": frame.z, "w": frame.w, "relabeled": frame.relabeled,
        },
        coordinates={"m": coords.m, "s": coords.s, "t": coords.t,
                     "j": coords.j, "k": coords.k},
        parameters={"p": d.p, "e_ip": d.e_ip, "z0": d.z0, "X": d.X,
                    "sqrt_X": d.sqrtX, "B": d.B, "Z": d.Z, "A": d.A,
                    "C": d.C},
        growth={"lam": lam, "c1": c1, "c2": c2, "c3": c3, "c4": c4},
        center={
            "c0": rep.c0,
            "c0_normalized": harmonic_center(d),
            "q0": rep.q0,
            "q0_prime": rep.q0_prime,
            "h0_prime": rep.h0_prime,
            "curvature": rep.curvature_original,
            "curvature_normalized": rep.curvature_normalized,
            "curvature_bound": rep.curvature_bound,
            "normal": list(rep.normal),
            "graph_normal": list(rep.graph_normal),
            "mixed_derivative": rep.mixed_derivative,
            "alpha": rep.alpha,
        },
    )


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
    report = build_report(q, tol=_coord_tol(args))
    _emit(canonical_json(report.to_dict()) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _interior_samples(rng, n, r_max=0.9):
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


def run_checks(q, profile="default", seed=0, tol=1e-8):
    """Closed forms vs independent numerics; returns (name, err, tol, ok) rows.

    Every check compares a formula implemented in this package against a
    route that does not share code with it (quadrature, finite differences,
    small-circle residues, Moebius/vertex identities).  The two profiles
    share the checks and differ only in tolerances.  A check whose Newton
    inversion of the map diverges is a FAIL row with err = inf, and a note
    naming it goes to stderr.
    """
    frame, coords, d = _setup(q, tol)
    rng = np.random.default_rng(seed)
    pick = 0 if profile == "default" else 1
    rows = []

    def add(name, err, tols):
        tol = tols[pick]
        rows.append((name, float(err), float(tol), bool(err <= tol)))

    def add_newton(name, check, tols):
        try:
            err = check()
        except NewtonDiverged as exc:
            print(f"note: {name}: NewtonDiverged: {exc}", file=sys.stderr)
            err = math.inf
        add(name, err, tols)

    zs = _interior_samples(rng, 40)

    # dilatation is exactly the square of the Moebius Gauss-map factor
    err = np.max(np.abs(dilatation(zs, d) - gauss_map_q(zs, d) ** 2))
    add("dilatation_is_moebius_square", err, (1e-10, 1e-12))

    # X is unimodular
    add("unimodular_factor_modulus", abs(abs(d.X) - 1.0), (1e-13, 1e-14))

    # |z0|^2 law
    c = coords
    law = (math.cosh(c.k) - math.cos(c.m)) / (math.cosh(c.k) + math.cos(c.m))
    add("center_modulus_squared_law", abs(abs(d.z0) ** 2 - law), (1e-13, 1e-14))

    # C/(e^{2ip} - 1) collapses to a purely imaginary closed form
    key = d.C / (d.e_2ip - 1.0)
    target = -1j * math.cosh(c.j) * (math.cos(c.m) + math.cosh(c.k)) / (2 * math.pi)
    add("kernel_scale_identity", abs(key - target), (1e-12, 1e-13))

    # kernel residues: closed forms vs small-circle averages
    hk = residues(d)
    err = max(abs(r - numeric_residue(lambda u: kernel_K(u, d), zk))
              for r, zk in zip(hk.residues, hk.poles))
    add("kernel_residues_vs_circle_oracle", err, (1e-7, 1e-8))

    # residues of a rational function vanishing at infinity sum to zero
    add("kernel_residue_sum", abs(sum(hk.residues)), (1e-14, 1e-15))

    # signed closed-form residues (+-i lam |...|^2) match the exact ones
    signs = (1j, -1j, 1j, -1j)
    err = max(abs(r - sg * cjv) for r, sg, cjv in zip(hk.residues, signs, hk.cj))
    add("kernel_residue_sign_split", err, (1e-12, 1e-13))

    # height via log sum vs contour integration of the kernel
    pts = (0.3 + 0.2j, -0.41 + 0.37j, 0.1 - 0.55j)
    err = max(abs(height_T(z, d) - kernel_contour_height(z, d)) for z in pts)
    add("height_vs_contour_quadrature", err, (1e-8, 1e-9))

    add("height_zero_at_center", abs(height_T(0.0, d)), (1e-14, 1e-15))

    # radial growth: fitted log slopes vs +-2 cj
    rs = np.array([1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)])
    logs = np.log(1.0 - rs)
    slope_signs = (1.0, -1.0, 1.0, -1.0)
    err = 0.0
    for zk, sg, cjv in zip(hk.poles, slope_signs, hk.cj):
        ts = height_T(rs * zk, d)
        slope = np.polyfit(logs, ts, 1)[0]
        err = max(err, abs(slope - sg * 2.0 * cjv) / abs(2.0 * cjv))
    add("radial_growth_slopes", err, (5e-3, 1e-3))

    # center curvature closed form and bound attainment
    k0 = gauss_curvature(0.0 + 0.0j, d)
    closed = -(math.pi ** 2 / 4.0) * math.cos(c.m) ** 2 \
        / (math.tanh(c.j) ** 2 * math.cosh(c.k) ** 4)
    add("center_curvature_closed_form", abs(k0 - closed) / abs(closed),
        (1e-12, 1e-13))
    bound = curvature_bound(q)
    attained = abs(k0) * abs(frame.scale) ** 2
    add("curvature_bound_attained", abs(attained - bound) / bound,
        (1e-12, 1e-13))

    # center normal of the graph vs finite differences of the graph
    F = graph_height_function(d)
    c0n = harmonic_center(d)

    def normal_err():
        h = 1e-5
        fu = (F(c0n + h) - F(c0n - h)) / (2 * h)
        fv = (F(c0n + 1j * h) - F(c0n - 1j * h)) / (2 * h)
        nvec = np.array((-fu, -fv, 1.0)) / math.sqrt(fu * fu + fv * fv + 1.0)
        return np.max(np.abs(nvec - np.array(graph_normal(d))))

    add_newton("graph_normal_vs_fd", normal_err, (1e-5, 1e-6))

    # mixed derivative of the graph vs finite differences
    add_newton("mixed_derivative_vs_fd",
               lambda: abs(fd_mixed(F, c0n, h=1e-4)
                           - center_mixed_derivative(d)),
               (1e-3, 1e-4))

    # aligning rotation really kills the rotated mixed derivative
    alpha = aligning_rotation(d)
    rot = np.exp(1j * alpha)

    def F_rot(wp):
        return height_T(newton_invert(d, wp / rot), d)

    add_newton("aligned_mixed_derivative_zero",
               lambda: abs(fd_mixed(F_rot, rot * c0n, h=1e-4)), (1e-3, 1e-4))

    # harmonic map is sense-preserving
    rr = np.linspace(0.03, 0.999, 30)
    th = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    grid = np.outer(rr, np.exp(1j * th)).ravel()
    minjac = float(np.min(jacobian(grid, d)))
    add("jacobian_positive_on_grid", max(0.0, -minjac), (0.0, 0.0))

    # boundary curve winds once around the center
    circle = (1.0 - 1e-4) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
    vals = harmonic_map(circle, d) - c0n
    winding = float(np.sum(np.angle(vals[1:] / vals[:-1]))) / (2.0 * np.pi)
    add("boundary_winding_number", abs(winding - 1.0), (1e-8, 1e-10))

    # harmonic map vs Poisson integral of its boundary step
    sb = step_boundary(d)
    err = max(abs(harmonic_map(z, d) - poisson_extension(z, sb))
              for z in pts)
    add("poisson_extension_agreement", err, (1e-6, 1e-8))

    # component harmonicity / height harmonicity by finite differences
    err = 0.0
    for z in (0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.35j):
        err = max(err, abs(fd_laplacian(lambda u: harmonic_map(u, d).real, z)))
        err = max(err, abs(fd_laplacian(lambda u: harmonic_map(u, d).imag, z)))
        err = max(err, abs(fd_laplacian(lambda u: height_T(u, d), z)))
    add("laplacian_defect_fd", err, (1e-4, 5e-5))

    # f(0) equals the closed-form center
    add("center_value_consistency",
        abs(harmonic_map(0.0 + 0.0j, d) - c0n), (1e-14, 1e-15))

    # radial boundary limits hit the step values mid-arc
    r_near = 1.0 - 1e-6
    err = 0.0
    for (lo, hi), value in sb.arcs:
        mid = 0.5 * (lo + hi)
        err = max(err, abs(harmonic_map(r_near * np.exp(1j * mid), d) - value))
    add("boundary_step_values", err, (1e-3, 1e-4))

    return rows


def cmd_verify(args):
    q = load_quad(args)
    rows = run_checks(q, profile=args.tol_profile, seed=args.seed,
                      tol=_coord_tol(args))
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


# ---------------------------------------------------------------------------
# mesh / asymptotics


def cmd_mesh(args):
    q = load_quad(args)
    frame, _, d = _setup(q, _coord_tol(args))
    mesh = sample_disk(d, frame, n_r=args.nr, n_theta=args.ntheta,
                       r_max=args.rmax, h_max=args.hmax)
    if args.out:
        export_obj(mesh, args.out)
        sys.stdout.write(
            f"wrote {len(mesh.vertices)} vertices, {len(mesh.faces)} faces "
            f"to {args.out} ({mesh.metadata['clamped']} heights clamped)\n")
    else:
        lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
        lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_asymptotics(args):
    q = load_quad(args)
    _, _, d = _setup(q, _coord_tol(args))
    rs = [1.0 - 10.0 ** (-2 - qq / 3.0) for qq in range(13)]
    trace = radial_trace(d, args.pole, rs)
    if args.out:
        export_csv(trace, args.out)
    logs = np.log1p(-np.array([r for r, _ in trace]))
    ts = np.array([t for _, t in trace])
    slope = float(np.polyfit(logs, ts, 1)[0])
    lam, c1, c2, c3, c4 = asymptotic_constants(d)
    target = (2 * c1, -2 * c2, 2 * c3, -2 * c4)[args.pole - 1]
    rel = abs(slope - target) / abs(target)
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
    p.add_argument("--tol-pitot", type=float, default=None,
                   help="relative side-sum tolerance (default 1e-9)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized check sampling")
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
    except ScherkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
