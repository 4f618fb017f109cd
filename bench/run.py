"""Benchmark of the scherk CLI, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Each op is one `scherk.cli.main(argv)` call on a fresh surface, made
in-process by one caller in a closed loop, with stdout captured in memory.
Outputs are checked outside the timed region.  `--trace 0` reports the
end-to-end metrics; `--trace 1` wraps the library's public functions and
reports per-layer metrics from the traced half of the ops.  The last line
of stdout is one JSON object; a full record (machine, seed, output
fingerprint, verify FAIL counts) goes to .bench_out/.  See bench/README.md.
"""

import argparse
import collections
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")
WORKLOAD_NAMES = ("analyze_sweep", "verify_sweep", "mesh_large")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
WARMUP_OPS = 2
CAL_EVERY_S = 0.01
REFERENCE_IMPORT_S = 0.15
TAIL_LADDER = (50.0, 60.0, 75.0, 90.0, 95.0)
END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("pass_share", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="timed op wall time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cli_env():
    """Environment of a fresh CLI process: the caller's, plus src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env):
    """Wall times of fresh interpreters importing scherk.cli, raw and at
    reference speed.

    Process start-up is slowed by a busy host differently from the
    calibration kernel, so each probe is scaled by a probe of the same kind
    that runs no scherk code: a fresh interpreter importing numpy, timed
    just before and just after it and taken to last REFERENCE_IMPORT_S.
    """
    def probe(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    probe("import scherk.cli")  # writes the bytecode cache
    refs = [probe("import numpy")]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(probe("import scherk.cli"))
        refs.append(probe("import numpy"))
    return raw, [t * REFERENCE_IMPORT_S / ((a + b) / 2)
                 for t, a, b in zip(raw, refs, refs[1:])]


def execute(cli, argv):
    """One timed CLI call: (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    tb = ""
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            tb = traceback.format_exc()
        t1 = time.perf_counter()
    return t1 - t0, rc, out.getvalue(), err.getvalue() + tb


def percentile(sorted_vals, pct):
    """Linear-interpolation percentile of an ascending list."""
    pos = pct / 100.0 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_latency(lat, target):
    """Latency at the workload's tail percentile, lowered along TAIL_LADDER
    until at least ten samples lie beyond it.  Returns (pct, value, beyond)."""
    vals = sorted(lat)
    for pct in [target] + [p for p in reversed(TAIL_LADDER) if p < target]:
        value = percentile(vals, pct)
        beyond = sum(v > value for v in vals)
        if beyond >= 10:
            break
    return pct, value, beyond


def op_rate(records, key):
    """Completed ops per second of op time (`key`: raw or reference-speed)."""
    done = sum(r["status"] in ("pass", "verdict_fail", "refused")
               for r in records)
    return done / sum(r[key] for r in records)


def machine_info(numpy_version):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def judge(wl, op, rc, out, err, scherk, fingerprint):
    """Status of one op from its exit code and output check; feeds the
    output to `fingerprint` unless that is None.  The output is dropped on
    return, so it does not add to the next op's peak memory."""
    refusal = None if rc in wl.valid_codes else wl.refusal(rc, err)
    if refusal is not None:
        fp = f"{rc}\n{err}".encode()
        result = {"status": "refused", "refusal": refusal,
                  "reason": err.strip(), "failed_checks": ()}
    elif rc not in wl.valid_codes:
        fp = f"{rc}\n{err}".encode()
        result = {"status": "aborted", "reason": err.strip()[-2000:],
                  "failed_checks": ()}
    else:
        outcome = wl.outcome(op, rc, out, scherk)
        fp = outcome.fingerprint
        result = {"failed_checks": outcome.failed_checks}
        if not outcome.ok:
            result.update(status="wrong", reason=outcome.reason)
        else:
            result["status"] = "pass" if rc == 0 else "verdict_fail"
    if fingerprint is not None:
        fingerprint.update(len(fp).to_bytes(8, "little") + fp)
    return result


def run_ops(wl, sampler, seconds, scherk, cal, tracer, coin):
    """Closed loop until the timed op time reaches `seconds`.

    The calibration kernel runs after every CAL_EVERY_S of op time, and
    WINDOW times right before and right after any op longer than that, so
    every op has kernel samples close by on both sides.  With a tracer, one
    op of each consecutive pair (chosen by `coin`) is traced and the other
    is not, so both halves see the same input mix.
    """
    records = []
    fingerprint = hashlib.sha256()
    timed = since_cal = 0.0
    long_op = True
    while timed < seconds:
        ops = wl.make_ops(sampler, wl.chunk)
        try:
            for op in ops:
                i = len(records)
                traced = tracer is not None and (
                    coin.random() < 0.5 if i % 2 == 0 else not records[-1]["traced"])
                if long_op:
                    cal.sample()
                if traced:
                    tracer.op = i
                    tracer.install()
                mark = cal.mark()
                try:
                    lat, rc, out, err = execute(scherk.cli, op.argv)
                finally:
                    if traced:
                        tracer.uninstall()
                since_cal += lat
                long_op = lat >= CAL_EVERY_S
                if long_op:
                    cal.sample()
                    since_cal = 0.0
                elif since_cal >= CAL_EVERY_S:
                    cal.sample(1)
                    since_cal = 0.0
                rec = {"index": op.index, "lat": lat, "rc": rc, "traced": traced,
                       "mark": mark}
                rec.update(judge(wl, op, rc, out, err, scherk,
                                 fingerprint if i < wl.fingerprint_ops else None))
                records.append(rec)
                timed += lat
                if timed >= seconds:
                    break
        finally:
            wl.cleanup(ops)
    cal.sample()
    for rec in records:
        rec["ref_lat"] = rec["lat"] * cal.scale(rec.pop("mark"))
    return records, fingerprint.hexdigest()


def end_to_end(wl, records, setup_raw, setup_ref):
    lat = [r["ref_lat"] for r in records]
    pct, tail, beyond = tail_latency(lat, wl.tail_pct)
    wall = [r["lat"] for r in records]
    n_pass = sum(r["status"] == "pass" for r in records)
    metrics = {
        "ops_per_s": op_rate(records, "ref_lat"),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "pass_share": n_pass / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_ref),
    }
    extra = {"fail_share": 1.0 - metrics["pass_share"],
             "tail_percentile": pct, "tail_samples_beyond": beyond,
             "samples": len(lat),
             "wall_ops_per_s": op_rate(records, "lat"),
             "wall_latency_p50_ms": statistics.median(wall) * 1e3,
             "wall_latency_tail_ms": percentile(sorted(wall), pct) * 1e3,
             "wall_setup_s": statistics.median(setup_raw)}
    return metrics, extra


def per_layer(tracer, records):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    metrics = tracer.summary(
        len(traced), {i: r["ref_lat"] / r["lat"] for i, r in enumerate(records)
                      if r["traced"]})
    metrics["cli.verify.checks_failed"] = (
        sum(len(r["failed_checks"]) for r in traced) / max(len(traced), 1))
    mean_traced = statistics.fmean(r["ref_lat"] for r in traced)
    mean_plain = statistics.fmean(r["ref_lat"] for r in plain)
    metrics["trace.overhead_share"] = mean_traced / mean_plain - 1.0
    return metrics, {"traced_ops": len(traced), "untraced_ops": len(plain)}


def run_workload(args):
    setup_env = cli_env()
    for name in BLAS_THREAD_VARS:  # this process only, not the setup probes
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scherk
    import scherk.cli
    import calibration
    import tracing
    import workloads
    if Path(scherk.__file__).resolve().parent != SRC / "scherk":
        raise RuntimeError(f"imported scherk from {scherk.__file__}, not {SRC}")

    cal = calibration.Calibrator()
    for _ in range(WARMUP_OPS):
        calibration.kernel()
    setup_raw, setup_ref = (measure_setup(setup_env) if args.trace == 0
                            else ([], []))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        sampler = workloads.SurfaceSampler(args.seed)
        warm_ops = wl.make_ops(sampler, WARMUP_OPS)
        try:
            for op in warm_ops:
                execute(scherk.cli, op.argv)
        finally:
            wl.cleanup(warm_ops)
        tracer = tracing.Tracer() if args.trace else None
        coin = np.random.default_rng([args.seed, 1])
        t0 = time.perf_counter()
        records, digest = run_ops(wl, sampler, args.seconds, scherk, cal,
                                  tracer, coin)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(tracer, records)
        units = dict(tracing.LAYER_METRICS)
    else:
        metrics, extra = end_to_end(wl, records, setup_raw, setup_ref)
        units = dict(END_TO_END)
    status = collections.Counter(r["status"] for r in records)
    failed = status["aborted"] + status["wrong"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(np.__version__),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra, "setup_wall_s": setup_raw, "setup_ref_s": setup_ref,
        "calibration_s": cal.samples, "run_wall_s": wall,
        "status_counts": dict(status),
        "exit_codes": dict(collections.Counter(str(r["rc"]) for r in records)),
        "verify_fail_counts": dict(collections.Counter(
            c for r in records for c in r["failed_checks"])),
        "verify_refusals": dict(collections.Counter(
            r["refusal"] for r in records if "refusal" in r)),
        "latencies_ms": [round(r["lat"] * 1e3, 4) for r in records],
        "ref_latencies_ms": [round(r["ref_lat"] * 1e3, 4) for r in records],
        "output_sha256": digest,
        "output_sha256_ops": min(wl.fingerprint_ops, len(records)),
        "failures": [{"index": r["index"], "status": r["status"], "rc": r["rc"],
                      "reason": r["reason"]}
                     for r in records if "reason" in r][:20],
    }
    if tracer is not None:
        # One spans file per workload, from its latest traced run.
        record["spans_file"] = str(OUT_DIR / f"{args.workload}-spans.tsv.gz")
        tracer.write(record["spans_file"])
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={len(records)} wall={wall:.1f}s "
          f"status={dict(status)}")
    m = record["machine"]
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']}")
    for name, unit in units.items():
        print(f"{args.workload:<14} {name:<40} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:<14} {'fail_share':<40} {extra['fail_share']:>14.6g} "
              f"ratio  (commands that exit non-zero, raise or fail the check)")
        if record["verify_refusals"]:
            print(f"{args.workload:<14} verify refused {status['refused']} valid"
                  f" surfaces with exit 2: {record['verify_refusals']}")
        print(f"{args.workload:<14} latency_tail_ms is p{extra['tail_percentile']:g}"
              f" with {extra['tail_samples_beyond']} of {extra['samples']}"
              " samples beyond it")
    print(f"{args.workload:<14} output_sha256 {digest} "
          f"(first {record['output_sha256_ops']} ops)")
    for f in record["failures"][:3]:
        print(f"# {f['status']} op {f['index']} (exit {f['rc']}): "
              f"{f['reason'].splitlines()[-1] if f['reason'] else ''}")
    print(json.dumps({
        "correct": status["wrong"] == 0, "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if status["wrong"] == 0 else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        result = json.loads(lines.pop()) if proc.returncode == 0 else None
        print("\n".join(lines), flush=True)
        if result is None:
            code = code or proc.returncode
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "scherk" / "cli.py").is_file():
        print(f"error: {SRC / 'scherk'} not found; run the benchmark from a "
              "checkout of the scherk repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
