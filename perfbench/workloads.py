"""The three benchmark workloads.

Each workload has ``prepare(seed)`` (input generation), ``construct``
(what set-up builds besides the inputs) and ``run_unit(inputs, clock)``
(one fixed unit of work).  ``run_unit`` builds the stack the unit
consumes and times only the work itself through ``clock``, so a traced
unit (see :mod:`perfbench.layers`) builds with the patches in place but
attributes only the measured region.  Every unit checks its outputs and
reports how many operations it attempted and how many failed a check.

* ``paper-grid`` — the paper-figure cells, run serially.
* ``pod-storm`` — a pod-local flow arrival/departure storm on
  ``fat_tree(8)``, driving the fluid network directly.
* ``controller-replay`` — the threaded ``PipelineService`` fed by one
  open-loop client on a ladder of offered rates plus one unpaced burst.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: byte-conservation checks allow float summation error only.
CONSERVATION_RTOL = 1e-9

#: step-marker events fire after every other event sharing their instant.
MARK_PRIORITY = 1 << 30


@dataclass
class UnitResult:
    """What one unit of work measured and checked."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    #: operation latencies of the unit, milliseconds.
    latencies_ms: list[float]
    #: work completed per second (see each workload's docstring).
    throughput_per_s: float
    errors: list[str] = field(default_factory=list)
    #: benchmark-health warnings (not failures of the program).
    flags: list[str] = field(default_factory=list)
    #: workload-specific figures for the record and the traced table.
    detail: dict = field(default_factory=dict)


class Clock:
    """Times a unit's measured regions; switches the tracer on inside them."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def time(self, fn: Callable[[], object]) -> tuple[object, float]:
        """Run ``fn`` in the measured region; returns (result, wall seconds)."""
        if self.tracer is not None:
            self.tracer.active = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = fn()
        finally:
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if self.tracer is not None:
                self.tracer.active = False
        self.wall_s += wall
        self.cpu_s += cpu
        return out, wall


def _step_marks(sim, step: float) -> list[float]:
    """Stamp wall time every ``step`` simulated seconds while events remain.

    The marker reschedules itself only while other events are queued, so
    it never keeps a drained simulation alive.  Returns the stamp list
    (filled as the simulation runs).
    """
    stamps: list[float] = []

    def mark() -> None:
        stamps.append(time.perf_counter())
        if sim.pending:
            sim.schedule(step, mark, priority=MARK_PRIORITY)

    sim.schedule(step, mark, priority=MARK_PRIORITY)
    return stamps


def _step_latencies_ms(start: float, stamps: list[float]) -> list[float]:
    edges = [start, *stamps]
    return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


# ======================================================================
# paper-grid
# ======================================================================
class PaperGrid:
    """The ROADMAP baseline cells: Nutch 5e6 pages at 1:20 and Sort
    12 GB / 20 reducers at 1:10, each under ``pythia`` and ``ecmp``.

    An operation is one cell — what a user of ``repro run`` waits for —
    so latency is a cell's wall time and throughput is cells completed
    per wall second.
    """

    name = "paper-grid"

    @staticmethod
    def cells() -> list[tuple[str, Callable, str, float]]:
        from repro.workloads.nutch import nutch_indexing_job
        from repro.workloads.sort import sort_job

        specs = (
            ("nutch-5Mpages@1:20", lambda: nutch_indexing_job(pages=5e6), 20.0),
            ("sort-12GB-r20@1:10", lambda: sort_job(input_gb=12.0, num_reducers=20), 10.0),
        )
        return [
            (f"{name}/{sched}", make, sched, ratio)
            for name, make, ratio in specs
            for sched in ("pythia", "ecmp")
        ]

    def prepare(self, seed: int) -> dict:
        from repro.experiments.common import run_experiment  # noqa: F401  (import cost)
        from repro.simnet.topology import two_rack

        two_rack()
        reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
        cells = self.cells()
        for _label, make, _sched, _ratio in cells:
            make()
        return {
            "seed": seed,
            "cells": cells,
            "reference": reference.get("paper-grid", {}).get(str(seed), {}),
        }

    def construct(self, inputs: dict) -> None:
        """Nothing to pre-build: each cell's stack is part of its run."""

    def run_unit(self, inputs: dict, clock: Clock) -> UnitResult:
        from repro.experiments.common import run_experiment

        seed = inputs["seed"]
        latencies: list[float] = []
        errors: list[str] = []
        cells: dict[str, dict] = {}
        failed = predictions = events_total = 0
        for label, make, sched, ratio in inputs["cells"]:
            spec = make()
            result, wall = clock.time(
                lambda: run_experiment(spec, scheduler=sched, ratio=ratio, seed=seed)
            )
            latencies.append(wall * 1e3)
            events = result.sim.events_processed
            events_total += events
            predictions += result.policy_stats.get("predictions", 0)
            cells[label] = {"jct": result.jct, "events": events, "wall_s": wall}
            bad = check_cell(label, result, events, inputs["reference"].get(label))
            if bad:
                failed += 1
                errors += bad
        return UnitResult(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            attempted=len(inputs["cells"]),
            failed=failed,
            latencies_ms=latencies,
            throughput_per_s=len(inputs["cells"]) / clock.wall_s,
            errors=errors,
            detail={"cells": cells, "events": events_total, "predictions": predictions},
        )


def check_cell(label: str, result, events: int, ref: Optional[dict]) -> list[str]:
    """A cell's output checks: reference match, then conservation."""
    errors = []
    if ref is not None:
        if result.jct != ref["jct"]:
            errors.append(f"{label}: jct {result.jct!r} != reference {ref['jct']!r}")
        if events != ref["events"]:
            errors.append(f"{label}: events {events} != reference {ref['events']}")
    run = result.run
    if run.completed_at is None:
        errors.append(f"{label}: job did not complete")
    if any(f.end is None for f in run.fetches):
        errors.append(f"{label}: unfinished shuffle fetches")
    shuffled = sum(f.wire_bytes for f in run.fetches if not f.local)
    sourced = sum(result.netflow.total_sourced(s) for s in result.netflow.servers())
    if abs(sourced - shuffled) > CONSERVATION_RTOL * max(shuffled, 1.0):
        errors.append(f"{label}: NetFlow sourced {sourced!r} != shuffled {shuffled!r}")
    return errors


# ======================================================================
# pod-storm
# ======================================================================
class PodStorm:
    """Pod-local arrival/departure storm on ``fat_tree(8)``.

    ``WAVES`` arrival waves ``WAVE_S`` apart, each aimed at one pod, as
    in ``benchmarks/test_storm_100k.py``.  Operation latency is the wall
    time to advance one wave interval of simulated time; throughput is
    flows completed per wall second.
    """

    name = "pod-storm"
    K = 8
    WAVES = 100
    WAVE_S = 0.25
    NFLOWS = 4_000

    def prepare(self, seed: int, nflows: Optional[int] = None) -> dict:
        from repro.simnet.paths import KPathCache
        from repro.simnet.topology import fat_tree

        nflows = nflows or self.NFLOWS
        topo = fat_tree(self.K)
        hosts = [h.name for h in topo.hosts()]
        per_pod = len(hosts) // self.K
        cache = KPathCache(topo, 4)
        rng = np.random.default_rng(seed)
        plan = []
        for i in range(nflows):
            wave = i % self.WAVES
            base = (wave % self.K) * per_pod
            a, b = rng.choice(per_pod, size=2, replace=False)
            src, dst = hosts[base + int(a)], hosts[base + int(b)]
            paths = cache.paths_links(src, dst)
            lids = paths[int(rng.integers(0, len(paths)))]
            plan.append((wave, src, dst, float(2e7 + 1e6 * wave), list(lids)))
        return {"seed": seed, "plan": plan}

    def build(self, inputs: dict, delta: bool = True):
        from repro.simnet.engine import Simulator
        from repro.simnet.flows import TCP, FiveTuple, Flow
        from repro.simnet.network import Network
        from repro.simnet.topology import fat_tree

        sim = Simulator()
        net = Network(sim, fat_tree(self.K), delta=delta)
        flows = []
        for i, (wave, src, dst, size, lids) in enumerate(inputs["plan"]):
            f = Flow(
                src=src,
                dst=dst,
                size=size,
                five_tuple=FiveTuple(f"ip{src}", f"ip{dst}", 50060, 30000 + i, TCP),
            )
            sim.schedule(wave * self.WAVE_S, net.start_flow, f, lids)
            flows.append(f)
        return sim, flows

    def construct(self, inputs: dict) -> None:
        self.build(inputs)

    def run_unit(self, inputs: dict, clock: Clock, delta: bool = True) -> UnitResult:
        sim, flows = self.build(inputs, delta=delta)
        stamps = _step_marks(sim, self.WAVE_S)
        start = time.perf_counter()
        clock.time(lambda: sim.run(max_events=50 * len(flows)))
        failed, errors = check_storm(sim, flows)
        return UnitResult(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            attempted=len(flows),
            failed=failed,
            latencies_ms=_step_latencies_ms(start, stamps),
            throughput_per_s=len(flows) / clock.wall_s,
            errors=errors,
            detail={"events": sim.events_processed - len(stamps)},
        )


def check_storm(sim, flows) -> tuple[int, list[str]]:
    """(failed flows, errors): every flow completes and sends exactly its
    size, and the event queue drains (if not, every flow counts failed)."""
    bad = [
        f
        for f in flows
        if f.end_time is None or abs(f.bytes_sent - f.size) > CONSERVATION_RTOL * f.size
    ]
    errors = [f"pod-storm: flow {f.fid} sent {f.bytes_sent!r} of {f.size!r}" for f in bad[:5]]
    if sim.pending:
        errors.append(f"pod-storm: {sim.pending} events left queued")
        return len(flows), errors
    return len(bad), errors


# ======================================================================
# controller-replay
# ======================================================================
def _recording_registry():
    """A metrics registry that keeps every ``pipeline.e2e_seconds`` sample."""
    from repro.obs.metrics import Histogram, MetricsRegistry

    class RecordingHistogram(Histogram):
        def __init__(self, name: str) -> None:
            super().__init__(name)
            self.samples: list[float] = []

        def observe(self, value: float) -> None:
            super().observe(value)
            self.samples.append(value)

    class RecordingRegistry(MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            self.e2e = RecordingHistogram("pipeline.e2e_seconds")

        def histogram(self, name, bounds=None):
            if name == self.e2e.name:
                return self.e2e
            return super().histogram(name, bounds)

    return RecordingRegistry()


def expected_intents(records) -> int:
    """Intents a tape routes: (prediction, reducer) pairs whose bound
    destination differs from the source (same-host legs are dropped)."""
    locs = {}
    for rec in records:
        if rec.kind == "loc":
            locs[(rec.msg.job, rec.msg.reducer_id)] = rec.msg.server
    return sum(
        1
        for rec in records
        if rec.kind == "pred"
        for r in range(len(rec.msg.reducer_bytes))
        if locs[(rec.msg.job, r)] != rec.msg.src_server
    )


class ControllerReplay:
    """``PipelineService`` (2 shards) fed by one open-loop client thread.

    Each rung of ``LADDER`` offers ``RUNG_S`` seconds of a synthetic tape
    at a fixed rate to a fresh service, then ``BURST_MSGS`` messages are
    offered unpaced.  A message's latency runs from its *due* time (so
    ingress backpressure waits count) to the install commit of the demand
    delta it was folded into, plus the modelled switch-programming time.
    Samples are per delta, stamped with the earliest due time folded in —
    an upper bound for every message in the delta.
    """

    name = "controller-replay"
    LADDER = (2000.0, 4000.0, 8000.0, 16000.0)
    REPORT_RATE = 2000.0
    RUNG_S = 1.0
    BURST_MSGS = 3232
    NJOBS, NREDUCERS, REPREDICT = 4, 4, 2
    #: share of the latency limit the generator may run late at p99; a
    #: later generator would distort the rung's latency by more than
    #: this, so the rung cannot count as sustained.
    LAG_SHARE = 0.1
    DRAIN_TIMEOUT_S = 30.0

    @staticmethod
    def latency_limit_s() -> float:
        """The p99 limit: the controller's modelled rule-install budget for
        one full install transaction (``control_rtt + per_rule_latency *
        pipeline_batch_max``)."""
        from repro.core.config import PythiaConfig

        cfg = PythiaConfig()
        return cfg.control_rtt + cfg.per_rule_latency * cfg.pipeline_batch_max

    def _tape(self, hosts, nmsgs: int, seed: int):
        from repro.pipeline import synthetic_tape

        nmaps = max(1, (nmsgs - self.NJOBS * self.NREDUCERS) // (self.NJOBS * self.REPREDICT))
        return synthetic_tape(
            hosts, njobs=self.NJOBS, nmaps=nmaps, nreducers=self.NREDUCERS,
            repredict=self.REPREDICT, seed=seed,
        )

    def prepare(self, seed: int) -> dict:
        from repro.pipeline import PipelineService  # noqa: F401  (import cost)
        from repro.simnet.topology import two_rack

        hosts = [h.name for h in two_rack().worker_hosts()]
        rungs = [
            (rate, self._tape(hosts, int(rate * self.RUNG_S), seed * 16 + i))
            for i, rate in enumerate(self.LADDER)
        ]
        rungs.append((None, self._tape(hosts, self.BURST_MSGS, seed * 16 + len(self.LADDER))))
        return {"seed": seed, "rungs": rungs, "expected": [expected_intents(t.records) for _, t in rungs]}

    def build_service(self):
        from repro.core.config import PythiaConfig
        from repro.pipeline import PipelineService

        registry = _recording_registry()
        service = PipelineService(config=PythiaConfig(pipeline_mode="staged"), registry=registry)
        return service, registry

    def construct(self, inputs: dict) -> None:
        self.build_service()

    def run_unit(self, inputs: dict, clock: Clock) -> UnitResult:
        limit_ms = self.latency_limit_s() * 1e3
        lag_limit_ms = self.LAG_SHARE * limit_ms
        rungs = []
        flags: list[str] = []
        errors: list[str] = []
        attempted = failed = 0
        for (rate, tape), expected in zip(inputs["rungs"], inputs["expected"]):
            service, registry = self.build_service()
            rung, _ = clock.time(lambda: self._drive(service, registry, tape, rate))
            core = service.core
            bad = []
            if not rung["drained"]:
                bad.append(f"rate {rate}: service did not drain (backlog {core.backlog()})")
            if core.intents_in != expected:
                bad.append(f"rate {rate}: intents_in {core.intents_in} != tape's {expected}")
            if core.intents_in != core.intents_installed + core.intents_coalesced:
                bad.append(f"rate {rate}: intent ledger does not balance")
            if core.double_installs:
                bad.append(f"rate {rate}: {core.double_installs} double installs")
            attempted += len(tape)
            if bad:
                failed += len(tape)
                errors += bad
            rung.update(
                rate=rate,
                events=service.sim.events_processed,
                predictions=core.predictions_in,
                intents_in=core.intents_in,
                intents_coalesced=core.intents_coalesced,
                high_water=max(q["high_water"] for q in core.snapshot()["queues"].values()),
            )
            if not generator_kept_schedule(rung, lag_limit_ms):
                flags.append(
                    f"rate {rate}: generator lag p99 {_p99(rung['lag_ms']):.1f} ms > "
                    f"{lag_limit_ms:.1f} ms; the rung did not offer its stated rate"
                )
            rungs.append(rung)
        report = next(r for r in rungs if r["rate"] == self.REPORT_RATE)
        return UnitResult(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            attempted=attempted,
            failed=failed,
            latencies_ms=report["latencies_ms"],
            throughput_per_s=sustained_rate(rungs, limit_ms, lag_limit_ms),
            errors=errors,
            flags=flags,
            detail={
                "rungs": rungs,
                "events": sum(r["events"] for r in rungs),
                "predictions": sum(r["predictions"] for r in rungs),
            },
        )

    def _drive(self, service, registry, tape, rate: Optional[float]) -> dict:
        """Open-loop replay of one tape; returns the rung's measurements."""
        due_of: dict[int, float] = {}
        local = threading.local()
        monotonic = time.monotonic
        core = service.core

        # Intents are stamped with the due time of the message whose
        # binding produced them; every other clock read is the wall clock.
        def clock() -> float:
            due = getattr(local, "due", None)
            return monotonic() if due is None else due

        def stamped(receive):
            def receive_stamped(msg):
                local.due = due_of.get(id(msg))
                try:
                    return receive(msg)
                finally:
                    local.due = None

            return receive_stamped

        core.clock = clock
        core.collector.receive_prediction = stamped(core.collector.receive_prediction)
        core.collector.receive_reducer_location = stamped(core.collector.receive_reducer_location)

        lags: list[float] = []
        waits: list[float] = []
        retries = 0
        service.start()
        try:
            start = monotonic() + 0.005
            accepted_at = 0.0
            for i, rec in enumerate(tape.records):
                if rate is None:
                    due = monotonic()
                else:
                    due = start + i / rate
                    pause = due - monotonic()
                    if pause > 0:
                        time.sleep(pause)
                first = monotonic()
                if accepted_at <= due:
                    lags.append(max(0.0, first - due))
                due_of[id(rec.msg)] = due
                while not service.submit(rec.kind, rec.msg):
                    retries += 1
                    time.sleep(0.0005)
                accepted_at = monotonic()
                waits.append(accepted_at - due)
            last_due = due
            drained = service.drain(timeout=self.DRAIN_TIMEOUT_S)
            tail_s = monotonic() - last_due
        finally:
            service.stop()
        return {
            "drained": drained,
            "latencies_ms": [v * 1e3 for v in registry.e2e.samples],
            "lag_ms": [v * 1e3 for v in lags],
            "ingress_wait_ms": [v * 1e3 for v in waits],
            "offers": len(tape) + retries,
            "rejected": retries,
            "tail_ms": tail_s * 1e3,
        }


def _p99(values) -> float:
    return float(np.percentile(values, 99)) if values else float("inf")


def generator_kept_schedule(rung: dict, lag_limit_ms: float) -> bool:
    """False flags a rung whose client ran too late to offer its rate."""
    return not rung["lag_ms"] or _p99(rung["lag_ms"]) <= lag_limit_ms


def sustained_rate(rungs: list[dict], limit_ms: float, lag_limit_ms: float) -> float:
    """Highest offered rate whose p99 meets ``limit_ms`` without a backlog.

    A rung is met when its generator kept to schedule (p99 lag within
    ``lag_limit_ms``) and both its p99 latency and its tail — last due
    time to fully drained, which grows with any backlog — are within
    the limit.  Above the highest met rung of an unbroken run from the
    bottom, the figure is interpolated in log-rate towards the next
    rung's score, so it moves continuously instead of jumping a rung.
    """
    paced = sorted((r for r in rungs if r["rate"] is not None), key=lambda r: r["rate"])

    def score(r) -> float:
        return max(_p99(r["latencies_ms"]), r["tail_ms"])

    def kept_schedule(r) -> bool:
        return generator_kept_schedule(r, lag_limit_ms)

    best = -1
    for r in paced:
        if not (kept_schedule(r) and score(r) <= limit_ms):
            break
        best += 1
    if best < 0:
        low = paced[0]
        return low["rate"] * limit_ms / score(low)
    if best == len(paced) - 1 or not kept_schedule(paced[best + 1]):
        return paced[best]["rate"]
    lo, hi = paced[best], paced[best + 1]
    s_lo, s_hi = score(lo), score(hi)
    frac = (limit_ms - s_lo) / (s_hi - s_lo) if s_hi > s_lo else 1.0
    return float(lo["rate"] * (hi["rate"] / lo["rate"]) ** min(1.0, max(0.0, frac)))


WORKLOADS = {w.name: w for w in (PaperGrid(), PodStorm(), ControllerReplay())}
