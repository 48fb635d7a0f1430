#!/usr/bin/env python3
"""Show that the benchmark's gates can fail.

    python3 perfbench/selftest.py

Each case feeds a check a deliberately wrong input — a perturbed
paper-grid reference, a storm flow that did not send its bytes, a
replay ledger that does not balance, an unbalanced span record, a stray
``REPRO_*`` switch — and asserts that the check reports it.  Exits 0
only when every gate both passes on good input and fails on bad input.
"""

import os
import subprocess
import sys
import shutil
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    REFERENCE_PATH,
    Clock,
    ControllerReplay,
    PaperGrid,
    PodStorm,
    check_cell,
    check_storm,
)

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
FAILURES: list[str] = []


def expect(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}", flush=True)
    if not ok:
        FAILURES.append(name)


def paper_grid_reference() -> None:
    """A reference perturbed in its last digit makes the cell check fail."""
    import json

    from repro.experiments.common import run_experiment

    seed = 1
    reference = json.loads(REFERENCE_PATH.read_text())["paper-grid"][str(seed)]
    label, make, sched, ratio = next(
        c for c in PaperGrid.cells() if c[0].startswith("sort") and c[2] == "ecmp"
    )
    result = run_experiment(make(), scheduler=sched, ratio=ratio, seed=seed)
    events = result.sim.events_processed
    ref = dict(reference[label])
    expect("paper-grid: committed reference passes", not check_cell(label, result, events, ref))
    bumped = dict(ref, jct=ref["jct"] * (1 + 1e-15) + 1e-12)
    expect("paper-grid: perturbed JCT fails", bool(check_cell(label, result, events, bumped)))
    expect("paper-grid: perturbed event count fails",
           bool(check_cell(label, result, events, dict(ref, events=ref["events"] + 1))))
    fetch = next(f for f in result.run.fetches if not f.local)
    fetch.wire_bytes += 1024.0  # one KiB the probe never saw
    expect("paper-grid: broken NetFlow conservation fails",
           bool(check_cell(label, result, events, None)))


def pod_storm_bytes() -> None:
    """A flow that did not send exactly its size fails the storm check."""
    storm = PodStorm()
    inputs = storm.prepare(3, nflows=400)
    sim, flows = storm.build(inputs)
    sim.run()
    failed, _ = check_storm(sim, flows)
    expect("pod-storm: intact storm passes", failed == 0)
    flows[7].size += 1.0  # one byte short
    failed, _ = check_storm(sim, flows)
    expect("pod-storm: short flow fails", failed == 1)


def replay_ledger() -> None:
    """A tape whose expected intent count is off fails the ledger check."""
    replay = ControllerReplay()
    replay.LADDER = (2000.0,)
    replay.REPORT_RATE = 2000.0
    replay.RUNG_S = 0.2
    replay.BURST_MSGS = 200
    inputs = replay.prepare(5)
    unit = replay.run_unit(inputs, Clock())
    expect("controller-replay: intact ledger passes", unit.failed == 0)
    inputs["expected"] = [n + 1 for n in inputs["expected"]]
    unit = replay.run_unit(inputs, Clock())
    expect("controller-replay: wrong intent count fails", unit.failed == unit.attempted)


def closure() -> None:
    """An unbalanced span record fails the attribution closure."""
    import time

    from perfbench.layers import LayerTracer

    tracer = LayerTracer()
    tracer.active = True
    t0 = time.perf_counter()
    tracer.span("core", lambda: tracer.span("sdn", lambda: sum(range(100_000))))
    wall = time.perf_counter() - t0
    expect("closure: nested spans balance", tracer.closure(wall)["ok"])
    tracer.acc().self_s["core"] += wall / 10  # a child's time counted twice
    expect("closure: double-counted time is detected", not tracer.closure(wall)["ok"])


def environment_guard() -> None:
    """A stray REPRO_DELTA / REPRO_INVARIANTS refuses the run."""
    for var in ("REPRO_DELTA", "REPRO_INVARIANTS"):
        env = dict(os.environ, **{var: "off"})
        out = subprocess.run(
            RUN + ["--workload", "pod-storm", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        expect(f"env guard: {var} set refuses the run",
               out.returncode != 0 and '"correct"' not in out.stdout)


def bare_checkout() -> None:
    """Without the program's sources the run fails and prints no result."""
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pod-storm", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
        )
        expect("bare checkout: run fails without a result",
               out.returncode != 0 and '"correct"' not in out.stdout)


def main() -> int:
    for case in (paper_grid_reference, pod_storm_bytes, replay_ledger, closure,
                 environment_guard, bare_checkout):
        case()
    print(f"{len(FAILURES)} gate(s) did not behave" if FAILURES else "every gate can fail")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
