#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1    # every workload, as a table

Run from the repository root.  The run first measures set-up (import,
input generation and stack or service construction) in ``SETUP_REPEATS``
fresh interpreters, then repeats the workload's unit of work until
``--seconds`` is spent, checking every unit's outputs.

``--trace 0`` reports the end-to-end metrics (medians over units).
``--trace 1`` alternates untraced and traced units and reports the
per-layer table of the traced ones (see ``perfbench/layers.py``), the
tracing overhead, and the attribution closure.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record, with provenance.  The run refuses to start when ``REPRO_DELTA`` or
``REPRO_INVARIANTS`` is set, since either would change what is measured.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

GUARDED_ENV = ("REPRO_DELTA", "REPRO_INVARIANTS")
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_probe(args) -> int:
    """Child mode: import, generate inputs, build the stack; print the time."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.construct(workload.prepare(args.seed))
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


def measure_setup(args) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def provenance(args) -> dict:
    import numpy

    from repro.runner.cache import code_version

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "code_version": code_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "command": [sys.executable, *sys.argv],
        "seed": args.seed,
        "env": {var: os.environ.get(var) for var in GUARDED_ENV},
    }


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


def run_units(workload, inputs, seconds: float, trace: bool):
    """Repeat units until ``seconds`` is spent; alternates tracing if asked.

    Stops before a unit that would end more than half a unit past the
    budget, so the unit count tracks ``seconds`` and not timing noise.
    Garbage from the previous unit is collected before each unit starts,
    so no unit pays for another's and peak memory is one unit's.
    """
    from perfbench.layers import LayerTracer
    from perfbench.workloads import Clock

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if trace and len(plain) > len(traced):
            tracer = LayerTracer()
            tracer.install()
            try:
                result = workload.run_unit(inputs, Clock(tracer))
            finally:
                tracer.uninstall()
            traced.append((result, tracer))
        else:
            plain.append(workload.run_unit(inputs, Clock()))
        n = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / n >= seconds and (not trace or traced):
            return plain, traced


def end_to_end(units, setup_times) -> dict:
    latencies = [v for u in units for v in u.latencies_ms]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    return {
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "cpu_s": (statistics.median(u.cpu_s for u in units), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        # the mean, not the median: controller-replay's latency is
        # multimodal (covered commits near 1 ms, install transactions at
        # 2 + 4k ms), so its median jumps between modes run to run
        "latency_mean_ms": (statistics.fmean(latencies), "ms"),
        "latency_p99_ms": (percentile(latencies, 99), "ms"),
        "throughput_per_s": (statistics.median(u.throughput_per_s for u in units), "1/s"),
    }


def per_layer(plain, traced) -> tuple[dict, dict]:
    """Per-unit means of the traced units' layer figures; closure record."""
    from perfbench.layers import CLOSURE_TOLERANCE, LAYERS, PUMPS

    n = len(traced)
    self_s, calls, busy, counters = {}, {}, {}, {}
    rules = stats = remainder = 0.0
    closures = []
    for unit, tracer in traced:
        s, c, b = tracer.totals()
        for d, src in ((self_s, s), (calls, c), (busy, b), (counters, tracer.counters)):
            for k, v in src.items():
                d[k] = d.get(k, 0.0) + v
        closures.append(tracer.closure(unit.wall_s))
        remainder += closures[-1]["remainder_s"]
        rules += sum(prog.rules_installed for prog in tracer.programmers)
        stats += sum(svc.samples for svc in tracer.stats_services)
    units = [u for u, _ in traced]
    events = sum(u.detail.get("events", 0) for u in units)
    predictions = sum(u.detail.get("predictions", 0) for u in units)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
        m[f"{layer}.calls"] = (calls.get(layer, 0) / n, "count")
    m["simnet.engine.events"] = (events / n, "count")
    m["simnet.netflow.samples"] = (counters.get("netflow.samples", 0.0) / n, "count")
    m["simnet.netflow.scan_ratio"] = (
        ratio(counters.get("netflow.live", 0.0), counters.get("netflow.seen", 0.0)), "ratio")
    m["simnet.network.settles"] = (counters.get("network.settles", 0.0) / n, "count")
    m["simnet.network.flow_starts"] = (counters.get("network.flow_starts", 0.0) / n, "count")
    m["simnet.fairshare.solves"] = (counters.get("fairshare.solves", 0.0) / n, "count")
    m["simnet.fairshare.solved_share"] = (
        ratio(counters.get("fairshare.flows_solved", 0.0),
              counters.get("fairshare.live_at_solve", 0.0)), "ratio")
    m["core.allocate_calls"] = (counters.get("core.allocate_calls", 0.0) / n, "count")
    m["core.predictions"] = (predictions / n, "count")
    m["sdn.rules_installed"] = (rules / n, "count")
    m["sdn.install_txns"] = (counters.get("sdn.install_txns", 0.0) / n, "count")
    m["sdn.stats_samples"] = (stats / n, "count")
    m["sdn.place_calls"] = (counters.get("sdn.place_calls", 0.0) / n, "count")
    for stage in PUMPS.values():
        m[f"pipeline.{stage}.busy_s"] = (busy.get(stage, 0.0) / n, "s")
    m["pipeline.mods_per_txn"] = (
        ratio(counters.get("sdn.mods", 0.0), counters.get("sdn.install_txns", 0.0)), "ratio")
    m.update(replay_layer_metrics(units))
    plain_wall = statistics.median(u.wall_s for u in plain)
    traced_wall = statistics.median(u.wall_s for u in units)
    closure_err = max(c["error"] for c in closures)
    m["trace.untraced_s"] = (remainder / n, "s")
    m["trace.closure_err"] = (closure_err, "frac")
    m["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    closure = {
        "units": closures,
        "tolerance": CLOSURE_TOLERANCE,
        "ok": all(c["ok"] for c in closures),
    }
    return m, closure


def replay_layer_metrics(units) -> dict:
    """Pipeline ingress/queue figures the replay client and ledger saw."""
    rungs = [r for u in units for r in u.detail.get("rungs", [])]
    offers = sum(r["offers"] for r in rungs)
    intents = sum(r["intents_in"] for r in rungs)
    waits = [v for r in rungs for v in r["ingress_wait_ms"]]
    lags = [v for r in rungs if r["rate"] is not None for v in r["lag_ms"]]
    return {
        "pipeline.ingress.rejected_ratio": (
            sum(r["rejected"] for r in rungs) / offers if offers else 0.0, "ratio"),
        "pipeline.ingress.wait_ms": (percentile(waits, 50) if waits else 0.0, "ms"),
        "pipeline.queue.high_water": (max((r["high_water"] for r in rungs), default=0), "count"),
        "pipeline.coalesced_ratio": (
            sum(r["intents_coalesced"] for r in rungs) / intents if intents else 0.0, "ratio"),
        "replay.generator_lag_p99_ms": (percentile(lags, 99) if lags else 0.0, "ms"),
    }


def run_all(args, workloads) -> int:
    """Run every workload in its own process and print one table."""
    ok = True
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: exited {out.returncode}")
            ok = False
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:34s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    stray = [var for var in GUARDED_ENV if var in os.environ]
    if stray:
        print(f"refusing to run with {', '.join(stray)} set: unset it", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    import repro  # noqa: F401  (fail fast when the program's sources are missing)

    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_times = [] if args.trace else measure_setup(args)
    inputs = workload.prepare(args.seed)
    plain, traced = run_units(workload, inputs, args.seconds, bool(args.trace))
    units = plain + [u for u, _ in traced]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    errors = [e for u in units for e in u.errors]
    flags = [f for u in units for f in u.flags]

    record = {
        "workload": args.workload,
        "provenance": provenance(args),
        "units": {"plain": len(plain), "traced": len(traced)},
        "setup_s": setup_times,
        "unit_wall_s": [u.wall_s for u in plain],
        "errors": errors[:20],
        "flags": flags[:20],
    }
    if args.trace:
        metrics, closure = per_layer(plain, traced)
        record["closure"] = closure
        correct = not failed and closure["ok"]
        if not closure["ok"]:
            print(f"attribution closure failed: {closure}", file=sys.stderr)
    else:
        metrics = end_to_end(plain, setup_times)
        correct = not failed
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for f in flags[:20]:
        print(f"warning: {f}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
