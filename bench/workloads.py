"""Seeded inputs and output checks for the three CLI workloads.

The sampler covers the validity box of the parameter sweep:
m in [0.05, 1.45], j log-uniform in [0.02, 4], k in [-8, 8], with
s = k + j and t = k - j.  It is a randomized Halton sequence (bases 2, 3,
5 with a seeded Cranley-Patterson shift), so no surface repeats and the
surfaces of any run cover the box evenly.  That keeps the share of
surfaces on which `verify` reports a FAIL, and the cost mix of the ops,
close to its box-wide value in every run, without narrowing the box.
"""

import cmath
import json
import math
import os
import re
import traceback
from dataclasses import dataclass

import numpy as np

M_RANGE = (0.05, 1.45)
J_RANGE = (0.02, 4.0)
K_RANGE = (-8.0, 8.0)

MESH_NR, MESH_NTHETA = 200, 400
MESH_VERTICES = 1 + MESH_NR * MESH_NTHETA
MESH_FACES = MESH_NTHETA + 2 * MESH_NTHETA * (MESH_NR - 1)
MESH_RMAX, MESH_HMAX = 0.995, 5.0


def _radical_inverse(i, base):
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


class SurfaceSampler:
    """Seeded stream of distinct surfaces (m, s, t) over the box."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shift = [float(u) for u in self.rng.random(3)]
        self.index = 0

    def next(self):
        self.index += 1
        u = [(_radical_inverse(self.index, b) + sh) % 1.0
             for b, sh in zip((2, 3, 5), self.shift)]
        m = M_RANGE[0] + (M_RANGE[1] - M_RANGE[0]) * u[0]
        lo, hi = math.log(J_RANGE[0]), math.log(J_RANGE[1])
        j = math.exp(lo + (hi - lo) * u[1])
        k = K_RANGE[0] + (K_RANGE[1] - K_RANGE[0]) * u[2]
        return m, k + j, k - j


def params_arg(m, s, t):
    # repr of a plain float round-trips; np.float64 would print as
    # "np.float64(...)" and break --params parsing.
    return f"{float(m)!r},{float(s)!r},{float(t)!r}"


def vertex_json(m, s, t, rng):
    """Vertices of (m, s, t) under a random similarity, order and labels.

    The canonical vertices (-1, z, 1, w) are computed here, independently
    of the library; the similarity has a random rotation, log-uniform
    scale in [0.1, 10] and shift in [-5, 5]^2.  Half the inputs are listed
    clockwise as (b1, b4, b3, b2), and half have their labels rotated by
    two places.  Both keep b1 and b3 opposite, so validation and
    normalize() bring the input back to the sampled coordinates.  Any
    order that puts b2 and b4 at the ends of the first diagonal instead
    (such as b4, b3, b2, b1) describes the same quadrilateral by other
    coordinates, for three in four surfaces outside the box (m near pi/2),
    so it is not sampled.
    """
    def hyperbola(tau):
        return complex(math.sin(m) * math.cosh(tau), math.cos(m) * math.sinh(tau))

    verts = [-1.0 + 0.0j, hyperbola(t), 1.0 + 0.0j, hyperbola(s)]
    a = math.exp(rng.uniform(math.log(0.1), math.log(10.0))) \
        * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    b = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
    verts = [a * v + b for v in verts]
    if rng.random() < 0.5:
        verts = [verts[0]] + verts[:0:-1]
    if rng.random() < 0.5:
        verts = verts[2:] + verts[:2]
    return json.dumps({"vertices": [[v.real, v.imag] for v in verts]})


@dataclass
class Op:
    argv: list
    params: tuple
    index: int
    path: str = None  # file the op reads (vertex JSON) or writes (OBJ)


@dataclass
class Outcome:
    """What the output check found for one op."""
    ok: bool                 # output well formed and matching its oracle
    fingerprint: bytes
    failed_checks: tuple = ()
    reason: str = ""


class Workload:
    """One kind of CLI op; check() is called only for exit codes in valid_codes."""
    name = ""
    chunk = 1
    fingerprint_ops = 1
    tail_pct = 50.0
    valid_codes = (0,)

    def __init__(self, workdir):
        self.workdir = workdir

    def refusal(self, rc, err):
        """Name of the error by which the command refused a valid surface,
        or None.  No command but `verify` refuses."""
        return None

    def make_ops(self, sampler, n):
        return [self.make_op(sampler) for _ in range(n)]

    def outcome(self, op, rc, out, lib):
        """check(), with an exception it raises turned into a failed outcome."""
        try:
            return self.check(op, rc, out, lib)
        except Exception:
            return Outcome(False, out.encode(), reason=traceback.format_exc())

    def cleanup(self, ops):
        for op in ops:
            if op.path and os.path.exists(op.path):
                os.remove(op.path)


def _all_finite(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    return all(_all_finite(v) for v in obj)


class AnalyzeSweep(Workload):
    """`scherk analyze`: half --params, half vertex-JSON files."""
    name = "analyze_sweep"
    chunk = 256
    fingerprint_ops = 256
    # p99 of ~8000 ops moved by 10% between runs with host stalls; p98 by 3%.
    tail_pct = 98.0

    def make_op(self, sampler):
        m, s, t = sampler.next()
        if sampler.index % 2:
            return Op(["analyze", "--params", params_arg(m, s, t)], (m, s, t),
                      sampler.index)
        path = os.path.join(self.workdir, f"quad-{sampler.index}.json")
        with open(path, "w") as fh:
            fh.write(vertex_json(m, s, t, sampler.rng))
        return Op(["analyze", path], (m, s, t), sampler.index, path)

    def check(self, op, rc, out, lib):
        fp = out.encode()
        rep = json.loads(out)
        if not _all_finite(rep):
            return Outcome(False, fp, reason="non-finite number")
        c = rep["coordinates"]
        coords = lib.HyperbolicCoords(c["m"], c["s"], c["t"], c["j"], c["k"])
        d = lib.scherk_data(coords)
        scale = complex(*rep["normalization"]["scale"])
        shift = complex(*rep["normalization"]["shift"])
        oracle = lib.poisson_extension(0.0, lib.step_boundary(d)) / scale + shift
        c0 = complex(*rep["center"]["c0"])
        if abs(c0 - oracle) > 1e-9 * (1.0 + abs(c0)):
            return Outcome(False, fp,
                           reason=f"c0 {c0} vs Poisson oracle {oracle}")
        return Outcome(True, fp)


class VerifySweep(Workload):
    """`scherk verify` with the default profile, --params input."""
    name = "verify_sweep"
    chunk = 16
    fingerprint_ops = 64
    tail_pct = 95.0
    valid_codes = (0, 1)
    # Errors a check raises while it computes on a surface that passed input
    # validation; the CLI reports them as "error: <name>: ..." with exit 2.
    CHECK_ERRORS = ("NewtonDiverged", "StencilOutOfDomain", "ToleranceNotMet",
                    "PoleProximity", "NoRootFound")

    def refusal(self, rc, err):
        match = re.fullmatch(r"error: (\w+): .*\n", err)
        if rc == 2 and match and match.group(1) in self.CHECK_ERRORS:
            return match.group(1)
        return None

    def make_op(self, sampler):
        m, s, t = sampler.next()
        return Op(["verify", "--params", params_arg(m, s, t)], (m, s, t),
                  sampler.index)

    def check(self, op, rc, out, lib):
        fp = f"{rc}\n{out}".encode()
        lines = out.splitlines()
        rows = [ln.split() for ln in lines[:-1]]
        failed = tuple(r[1] for r in rows if r[0] == "FAIL")
        well_formed = (rows and all(r[0] in ("PASS", "FAIL") for r in rows)
                       and lines[-1].startswith(
                           f"{len(rows) - len(failed)}/{len(rows)} checks passed")
                       and (rc == 0) == (not failed))
        if not well_formed:
            return Outcome(False, fp, failed, "malformed verify table")
        return Outcome(True, fp, failed)


class MeshLarge(Workload):
    """`scherk mesh --nr 200 --ntheta 400 --out <file>`, --params input."""
    name = "mesh_large"
    chunk = 1
    fingerprint_ops = 4
    tail_pct = 60.0

    def make_op(self, sampler):
        m, s, t = sampler.next()
        path = os.path.join(self.workdir, f"mesh-{sampler.index}.obj")
        return Op(["mesh", "--params", params_arg(m, s, t), "--nr", str(MESH_NR),
                   "--ntheta", str(MESH_NTHETA), "--out", path], (m, s, t),
                  sampler.index, path)

    def check(self, op, rc, out, lib):
        with open(op.path, "rb") as fh:
            data = fh.read()
        # The message names the output file, whose directory is random.
        fp = out.replace(op.path, "<out>").encode() + data
        # Parsed without per-token Python objects, so that the check stays
        # well below the peak memory of the command it checks.
        split = data.find(b"\nf ") + 1
        vpart, fpart = data[:split], data[split:]
        shape = (vpart.count(b"\n"), vpart.count(b"v "),
                 fpart.count(b"\n"), fpart.count(b"f "))
        if shape != (MESH_VERTICES,) * 2 + (MESH_FACES,) * 2 \
                or not vpart.startswith(b"v ") or not fpart.endswith(b"\n"):
            return Outcome(False, fp, reason=f"OBJ layout {shape}")
        verts = np.fromstring(vpart.replace(b"v ", b"").decode(), sep=" ")
        faces = np.fromstring(fpart.replace(b"f ", b"").decode(),
                              dtype=np.int64, sep=" ")
        if verts.size != 3 * MESH_VERTICES or faces.size != 3 * MESH_FACES \
                or not np.all(np.isfinite(verts)) or faces.min() < 1 \
                or faces.max() > MESH_VERTICES:
            return Outcome(False, fp, reason="bad vertex or face values")
        verts = verts.reshape(-1, 3)
        # Heights against contour quadrature of the kernel, at a few
        # vertices inside r <= 0.9 (rings are r_i = r_max sin(pi i/2n_r)).
        q = lib.construct_quad(*op.params)
        frame, _, _ = lib.normalize(q)
        d = lib.scherk_data(lib.hyperbolic_coordinates(frame.z, frame.w))
        n_inner = int(2 * MESH_NR / math.pi * math.asin(0.9 / MESH_RMAX))
        rng = np.random.default_rng(op.index)
        for _ in range(3):
            ring = int(rng.integers(1, n_inner + 1))
            a = int(rng.integers(MESH_NTHETA))
            r = MESH_RMAX * math.sin(math.pi * ring / (2 * MESH_NR))
            z = r * cmath.exp(2j * math.pi * a / MESH_NTHETA)
            h = verts[1 + (ring - 1) * MESH_NTHETA + a, 2]
            if abs(h) >= MESH_HMAX:
                continue
            ref = lib.oracles.kernel_contour_height(z, d) / abs(frame.scale)
            if abs(h - ref) > 1e-8 * (1.0 + abs(ref)):
                return Outcome(False, fp,
                               reason=f"height {h} vs contour {ref} at z={z}")
        return Outcome(True, fp)


WORKLOADS = {w.name: w for w in (AnalyzeSweep, VerifySweep, MeshLarge)}
