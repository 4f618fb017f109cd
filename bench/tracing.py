"""Outside-in tracing of the scherk layers.

Every public function of each layer module is wrapped, and the wrapper is
bound under every name that holds the original in any scherk module: a
``from .harmonic import harmonic_map`` copies the binding, so patching the
defining module alone would miss its callers.  Module-level dicts that hold
a layer function (``cli._COMMANDS``) are patched the same way.

Spans stay in memory as (name, start, end, parent, op, points, error) and
are written out when the run ends.  Self time is a span's duration minus
the durations of its direct children; calls are synchronous, so children
never overlap.
"""

import functools
import gzip
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "geometry", "params", "harmonic", "weierstrass",
          "analysis", "oracles", "mesh")
# Layers whose first argument is an evaluation point (scalar or array).
POINT_LAYERS = ("harmonic", "weierstrass")
# Functions whose second argument is the path of the file they write.
WRITERS = ("mesh.export_obj",)
NEWTON = "oracles.newton_invert"
FD = ("oracles.fd_laplacian", "oracles.fd_mixed")

# Per-layer metrics reported with --trace 1, with their units.  Values are
# per traced op unless the unit says otherwise.
LAYER_METRICS = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("self_ms", "ms/op"), ("calls", "count/op"),
                        ("errors", "count/op"))]
    + [
        ("cli.build_parser.self_ms", "ms/op"),
        ("cli.canonical_json.self_ms", "ms/op"),
        ("geometry.hyperbolic_coordinates.calls", "count/op"),
        ("params.scherk_data.calls", "count/op"),
        ("harmonic.analytic_parts.calls", "count/op"),
        ("weierstrass.residues.calls", "count/op"),
        ("weierstrass.kernel_K.calls", "count/op"),
        ("weierstrass.kernel_K.self_ms", "ms/op"),
        ("oracles.numeric_residue.self_ms", "ms/op"),
        ("oracles.adaptive_quad.calls", "count/op"),
        ("oracles.adaptive_quad.self_ms", "ms/op"),
        ("oracles.poisson_extension.self_ms", "ms/op"),
        ("oracles.fd.self_ms", "ms/op"),
        ("oracles.newton_invert.calls", "count/op"),
        ("oracles.newton_invert.self_ms", "ms/op"),
        ("oracles.newton_invert.accept_ratio", "ratio"),
        ("cli.verify.checks_failed", "count/op"),
        ("harmonic.points", "count/op"),
        ("weierstrass.points", "count/op"),
        ("harmonic.ns_per_point", "ns"),
        ("weierstrass.ns_per_point", "ns"),
        ("mesh.sample_disk.self_ms", "ms/op"),
        ("mesh.export_obj.self_ms", "ms/op"),
        ("mesh.export_obj.bytes", "B/op"),
        ("trace.overhead_share", "ratio"),
    ])


def _points(z):
    if isinstance(z, np.ndarray):
        return z.size
    if isinstance(z, (int, float, complex, np.number)):
        return 1
    return 0


class Tracer:
    """Wraps the scherk layers; install() before a traced op, uninstall() after."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.bytes_written = {}
        self.op = -1
        self._wrappers = {}
        self._patches = []
        for layer in LAYERS:
            mod = importlib.import_module(f"scherk.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{name}")

    def _wrap(self, fn, qualname):
        nid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        count_points = qualname.split(".")[0] in POINT_LAYERS
        writes = qualname in WRITERS
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            points = _points(args[0]) if count_points and args else 0
            error = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, tracer.op, points, error)
            if writes:
                tracer.bytes_written[qualname] = (
                    tracer.bytes_written.get(qualname, 0)
                    + os.path.getsize(args[1]))
            return result

        return functools.wraps(fn)(wrapper)

    def _swap(self, container, key, value):
        if inspect.isfunction(value) and value in self._wrappers:
            self._patches.append((container, key, value))
            container[key] = self._wrappers[value]

    def install(self):
        for modname, mod in list(sys.modules.items()):
            if modname != "scherk" and not modname.startswith("scherk."):
                continue
            ns = vars(mod)
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        self._swap(value, k2, v2)
                else:
                    self._swap(ns, key, value)

    def uninstall(self):
        for container, key, value in reversed(self._patches):
            container[key] = value
        self._patches.clear()

    def summary(self, n_ops, scales):
        """Per-op layer metrics from the recorded spans of n_ops traced ops.

        Span times are multiplied by scales[op], the reference-speed factor
        of the op they belong to.
        """
        names, spans = self.names, self.spans
        layer_of = [n.split(".")[0] for n in names]
        child_ns = [0] * len(spans)
        for nid, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        fn_self = [0] * len(names)
        fn_calls = [0] * len(names)
        fn_errors = [0] * len(names)
        points = dict.fromkeys(LAYERS, 0)
        under_newton = [False] * len(spans)
        newton_iters = newton_trials = 0
        newton_id = names.index(NEWTON)
        h_prime_id = names.index("harmonic.h_prime")
        map_id = names.index("harmonic.harmonic_map")
        for i, (nid, t0, t1, parent, op, pts, error) in enumerate(spans):
            fn_self[nid] += ((t1 - t0) - child_ns[i]) * scales.get(op, 1.0)
            fn_calls[nid] += 1
            fn_errors[nid] += error
            if parent < 0 or layer_of[spans[parent][0]] != layer_of[nid]:
                points[layer_of[nid]] += pts
            if parent >= 0:
                under_newton[i] = (under_newton[parent]
                                   or spans[parent][0] == newton_id)
                if under_newton[i]:
                    newton_iters += nid == h_prime_id
                    newton_trials += nid == map_id

        per_op = 1.0 / max(n_ops, 1)
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for layer in LAYERS:
            ids = [i for i, lay in enumerate(layer_of) if lay == layer]
            layer_self[layer] = sum(fn_self[i] for i in ids)
            out[f"{layer}.self_ms"] = layer_self[layer] * 1e-6 * per_op
            out[f"{layer}.calls"] = sum(fn_calls[i] for i in ids) * per_op
            out[f"{layer}.errors"] = sum(fn_errors[i] for i in ids) * per_op

        def fn(qualname):
            return names.index(qualname)

        for q in ("cli.build_parser", "cli.canonical_json",
                  "weierstrass.kernel_K", "oracles.numeric_residue",
                  "oracles.adaptive_quad", "oracles.poisson_extension",
                  "oracles.newton_invert", "mesh.sample_disk",
                  "mesh.export_obj"):
            out[f"{q}.self_ms"] = fn_self[fn(q)] * 1e-6 * per_op
        for q in ("geometry.hyperbolic_coordinates", "params.scherk_data",
                  "harmonic.analytic_parts", "weierstrass.residues",
                  "weierstrass.kernel_K", "oracles.adaptive_quad",
                  "oracles.newton_invert"):
            out[f"{q}.calls"] = fn_calls[fn(q)] * per_op
        out["oracles.fd.self_ms"] = sum(fn_self[fn(q)] for q in FD) * 1e-6 * per_op
        out["oracles.newton_invert.accept_ratio"] = (
            newton_iters / newton_trials if newton_trials else 0.0)
        for layer in POINT_LAYERS:
            out[f"{layer}.points"] = points[layer] * per_op
            out[f"{layer}.ns_per_point"] = (
                layer_self[layer] / points[layer] if points[layer] else 0.0)
        out["mesh.export_obj.bytes"] = (
            self.bytes_written.get("mesh.export_obj", 0) * per_op)
        return out

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tpoints\terror\n")
            for nid, t0, t1, parent, op, pts, error in self.spans:
                fh.write(f"{self.names[nid]}\t{t0}\t{t1}\t{parent}\t{op}"
                         f"\t{pts}\t{int(error)}\n")
