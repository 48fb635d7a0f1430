"""Shared experiment harness: build the stack, run jobs, collect results.

``run_experiment`` (one job) and ``run_cluster_experiment`` (a fleet)
are the entry points every figure reproduction and example uses.  Both
go through :func:`run_jobs`, which takes the control-plane stack from
:func:`repro.stack.build_stack` (simulator, topology, network, SDN
controller with the requested scheduler), layers the Hadoop cluster,
instrumentation middleware, NetFlow probes and background traffic on
top, lets a driver submit the jobs, runs them to completion, and tears
periodic services down so the event queue drains deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.core.collector import PredictionCollector
from repro.core.config import PythiaConfig
from repro.hadoop.cluster import ClusterConfig, HadoopCluster
from repro.hadoop.job import JobRun, JobSpec
from repro.hadoop.jobtracker import JobTracker
from repro.instrumentation.decoder import SpillDecoder
from repro.instrumentation.middleware import (
    InstrumentationConfig,
    InstrumentationMiddleware,
)
from repro.instrumentation.overhead import InstrumentationCostModel
from repro.faults import ChaosEngine, ChaosSchedule, InvariantChecker
from repro.faults import runtime as faults_runtime
from repro.sdn.controller import Controller
from repro.sdn.policy import FailureRepairService
from repro.simnet.background import BackgroundRamp, BackgroundTraffic
from repro.simnet.engine import Simulator
from repro.simnet.netflow import NetFlowCollector
from repro.simnet.topology import Topology, two_rack
from repro.stack import build_stack
from repro.workloads.cluster import ClusterJob, ClusterWorkload

#: submits a run's jobs: called with the simulator, the jobtracker and
#: a ``finish`` callback (stop the periodic services) that the driver
#: invokes once its last job has completed; returns the list the driver
#: appends each submitted ``JobRun`` to.
Driver = Callable[[Simulator, JobTracker, Callable[[], None]], list[JobRun]]


@dataclass
class RunResult:
    """Everything one experiment run produced."""

    scheduler: str
    ratio: Optional[float]
    seed: int
    run: JobRun
    netflow: NetFlowCollector
    topology: Topology
    sim: Simulator
    collector: Optional[PredictionCollector] = None
    policy_stats: dict = field(default_factory=dict)
    controller: Optional[Controller] = None
    #: metrics snapshot (empty unless the run had a real registry).
    metrics: dict = field(default_factory=dict)
    tracer: Optional[obs.Tracer] = None
    #: invariant-checker snapshot (empty unless checking was enabled).
    invariants: dict = field(default_factory=dict)
    #: per-kind chaos injection counts (empty unless chaos ran).
    faults_injected: dict = field(default_factory=dict)
    #: every job's trace in submission order (canonical (arrival, key)
    #: order for fleets); a solo run holds its one job here too, so
    #: fleet consumers need no branching.
    jobs: list[JobRun] = field(default_factory=list)
    #: the ClusterWorkload name for fleet runs ("" for solo runs).
    workload_name: str = ""
    #: job_id -> JCT of the same spec run alone on the same fabric —
    #: the slowdown denominator (populated by run_cluster_experiment).
    isolated_jct: dict = field(default_factory=dict)

    @property
    def jct(self) -> float:
        """Job completion time in seconds (fleet runs: the first job's)."""
        return self.run.jct


def run_experiment(
    spec: JobSpec,
    scheduler: str = "pythia",
    ratio: Optional[float] = None,
    seed: int = 0,
    topology_factory: Callable[[], Topology] = two_rack,
    cluster_config: Optional[ClusterConfig] = None,
    pythia_config: Optional[PythiaConfig] = None,
    netflow_interval: float = 1.0,
    model_instrumentation_cost: bool = False,
    fault: Optional[Callable[[Simulator, Topology], None]] = None,
    registry: Optional[obs.MetricsRegistry] = None,
    tracer: Optional[obs.Tracer] = None,
    invariants: Optional[bool] = None,
    chaos: Optional[Callable[[Topology], ChaosSchedule]] = None,
    background_ramp: Optional[BackgroundRamp] = None,
) -> RunResult:
    """Run one job under one scheduler and return its trace.

    A solo run is a nameless one-job fleet (``workload_name == ""``)
    submitted through :func:`run_cluster_experiment`.

    Parameters
    ----------
    scheduler:
        ``"pythia"``, ``"ecmp"`` or ``"hedera"``.
    ratio:
        Over-subscription ratio N (the paper's 1:N); None = unloaded.
    model_instrumentation_cost:
        Apply the §V-C 2-5 % CPU cost of the middleware to task times
        (only meaningful with the pythia scheduler).
    fault:
        Optional hook to schedule topology faults, e.g.
        ``lambda sim, topo: sim.schedule(30, topo.fail_cable, "tor0", "trunk0")``.
    registry / tracer:
        Optional observability sinks; when given, every subsystem built
        for this run binds its instruments there and the result carries
        ``metrics`` (a snapshot) and ``tracer``.
    invariants:
        Run the :mod:`repro.faults.invariants` checker at every network
        settle point and once after the run.  ``None`` (the default)
        reads the ``REPRO_INVARIANTS`` environment variable (see
        :func:`repro.faults.runtime.resolve_invariants`), so CI can
        turn checking on for an entire suite without touching call
        sites.  Violations raise :class:`~repro.faults.InvariantViolation`.
    chaos:
        Optional schedule factory, e.g.
        ``lambda topo: random_schedule(topo, seed=7)``.  The resulting
        :class:`~repro.faults.ChaosSchedule` is injected through the
        simulator's event queue; injection counts land in
        ``RunResult.faults_injected``.
    background_ramp:
        Optional :class:`~repro.simnet.background.BackgroundRamp` — a
        stepped background surge on one trunk path (the forecastable
        step scenario ``forecast_efficacy`` evaluates), on top of
        whatever ``ratio`` already placed.
    """
    return run_cluster_experiment(
        ClusterWorkload(name="", jobs=[ClusterJob(key=0, tenant="", at=0.0, spec=spec)]),
        scheduler=scheduler,
        ratio=ratio,
        seed=seed,
        topology_factory=topology_factory,
        cluster_config=cluster_config,
        pythia_config=pythia_config,
        netflow_interval=netflow_interval,
        model_instrumentation_cost=model_instrumentation_cost,
        fault=fault,
        registry=registry,
        tracer=tracer,
        invariants=invariants,
        chaos=chaos,
        background_ramp=background_ramp,
        isolated_baselines=False,
    )


def run_cluster_experiment(
    workload: ClusterWorkload,
    scheduler: str = "pythia",
    ratio: Optional[float] = None,
    seed: int = 0,
    topology_factory: Callable[[], Topology] = two_rack,
    cluster_config: Optional[ClusterConfig] = None,
    pythia_config: Optional[PythiaConfig] = None,
    netflow_interval: float = 1.0,
    model_instrumentation_cost: bool = False,
    fault: Optional[Callable[[Simulator, Topology], None]] = None,
    registry: Optional[obs.MetricsRegistry] = None,
    tracer: Optional[obs.Tracer] = None,
    invariants: Optional[bool] = None,
    chaos: Optional[Callable[[Topology], ChaosSchedule]] = None,
    background_ramp: Optional[BackgroundRamp] = None,
    isolated_baselines: bool = True,
) -> RunResult:
    """Run a multi-tenant fleet on one shared fabric and return its trace.

    Jobs are submitted in the workload's canonical ``(arrival, key)``
    order — arrivals at time 0 directly, later ones through scheduled
    events — so fleet outcomes are invariant under permutations of the
    job list, and a one-job workload replays the single-job path
    bit-for-bit (each job's RNG stream comes from its stable key, not
    its submission rank).

    ``isolated_baselines`` additionally runs every job's spec alone on
    an identical fabric (same scheduler/ratio/seed) and records the
    resulting JCTs in ``RunResult.isolated_jct`` — the denominators of
    the per-job *slowdown* metric.  Baselines run outside the fleet's
    observability context so a registry or invariant checker attached
    to the fleet never sees them.
    """
    ordered = workload.sorted_jobs()

    def _drive(
        sim: Simulator, jobtracker: JobTracker, finish: Callable[[], None]
    ) -> list[JobRun]:
        jobtracker.configure_tenants(workload.tenants)
        runs: list[JobRun] = []
        remaining = len(ordered)

        def _done(_run: JobRun) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                finish()

        def _submit(job: ClusterJob) -> None:
            runs.append(
                jobtracker.submit(
                    job.spec, on_complete=_done, tenant=job.tenant, seed_key=job.key
                )
            )

        # Time-0 arrivals are submitted directly; later ones arrive
        # through the event queue, which fires equal-time events in
        # scheduling order — so ``runs`` fills in canonical order.
        for job in ordered:
            if job.at <= 0.0:
                _submit(job)
            else:
                sim.schedule_at(job.at, _submit, job)
        return runs

    result = run_jobs(
        _drive,
        ordered[0].spec.predicted_overhead,
        scheduler=scheduler,
        ratio=ratio,
        seed=seed,
        topology_factory=topology_factory,
        cluster_config=cluster_config,
        pythia_config=pythia_config,
        netflow_interval=netflow_interval,
        model_instrumentation_cost=model_instrumentation_cost,
        fault=fault,
        registry=registry,
        tracer=tracer,
        invariants=invariants,
        chaos=chaos,
        background_ramp=background_ramp,
    )
    result.workload_name = workload.name
    if isolated_baselines:
        for job, run in zip(ordered, result.jobs):
            solo = run_experiment(
                job.spec,
                scheduler=scheduler,
                ratio=ratio,
                seed=seed,
                topology_factory=topology_factory,
                cluster_config=cluster_config,
                pythia_config=pythia_config,
                netflow_interval=netflow_interval,
                model_instrumentation_cost=model_instrumentation_cost,
                invariants=False,
            )
            result.isolated_jct[run.job_id] = solo.jct
    return result


def run_jobs(
    drive: Driver,
    predicted_overhead: float,
    scheduler: str = "pythia",
    ratio: Optional[float] = None,
    seed: int = 0,
    topology_factory: Callable[[], Topology] = two_rack,
    cluster_config: Optional[ClusterConfig] = None,
    pythia_config: Optional[PythiaConfig] = None,
    netflow_interval: float = 1.0,
    model_instrumentation_cost: bool = False,
    fault: Optional[Callable[[Simulator, Topology], None]] = None,
    registry: Optional[obs.MetricsRegistry] = None,
    tracer: Optional[obs.Tracer] = None,
    invariants: Optional[bool] = None,
    chaos: Optional[Callable[[Topology], ChaosSchedule]] = None,
    background_ramp: Optional[BackgroundRamp] = None,
) -> RunResult:
    """Build the full experiment stack, let ``drive`` submit jobs, run.

    The stack is assembled in a fixed order — control plane
    (:func:`~repro.stack.build_stack`), Hadoop, instrumentation,
    NetFlow, background traffic, faults, chaos, then the driver's
    submissions — because construction order decides how same-instant
    events break ties.  ``predicted_overhead`` configures
    the middleware's spill decoder.  The remaining parameters are those
    of :func:`run_experiment`.  ``RunResult.jobs`` lists the driver's
    runs in submission order; ``RunResult.run`` is the first of them.
    """
    setting = faults_runtime.resolve_invariants(invariants)
    checker = InvariantChecker(every=setting[0], scope=setting[1]) if setting else None
    with obs.use(registry=registry, tracer=tracer), faults_runtime.use_checker(checker):
        stack = build_stack(scheduler, pythia_config, topology_factory)
        sim, topology, network, controller = (
            stack.sim, stack.topology, stack.network, stack.controller
        )
        pythia, hedera, pythia_config = stack.pythia, stack.hedera, stack.config
        rng = np.random.default_rng(seed)
        controller.start()
        repair = FailureRepairService(network, stack.policy)

        cluster_config = cluster_config or ClusterConfig()
        if pythia is not None and model_instrumentation_cost:
            cost = InstrumentationCostModel()
            cluster_config.instrumentation_inflation = cost.mean_dc_fraction()
        cluster = HadoopCluster(topology, cluster_config)
        jobtracker = JobTracker(sim, network, cluster, stack.policy, rng)

        if pythia is not None:
            # The endpoint is the collector itself in "off" mode and the
            # staged pipeline's ingress driver in "staged" mode.
            InstrumentationMiddleware(
                sim,
                jobtracker,
                pythia.collector_endpoint,
                InstrumentationConfig(
                    mgmt_latency=pythia_config.mgmt_latency,
                    decoder=SpillDecoder(predicted_overhead),
                ),
                rng,
            )

        netflow = NetFlowCollector(sim, network, interval=netflow_interval)
        background = BackgroundTraffic(network, rng)
        background.populate(ratio)
        if background_ramp is not None:
            background.schedule_ramp(sim, background_ramp)

        if fault is not None:
            fault(sim, topology)

        chaos_engine: Optional[ChaosEngine] = None
        if chaos is not None:
            schedule = chaos(topology)
            chaos_engine = ChaosEngine(
                sim,
                network,
                controller=controller,
                collector=pythia.collector if pythia is not None else None,
                seed=schedule.seed,
            )
            chaos_engine.apply(schedule)

        def _finish() -> None:
            controller.stop()
            background.teardown()

        jobs = drive(sim, jobtracker, _finish)
        sim.run()
        unfinished = [r.spec.name for r in jobs if r.completed_at is None]
        if unfinished:
            raise RuntimeError(
                f"jobs {unfinished!r} did not complete (event queue drained early)"
            )
        if checker is not None:
            # Final end-of-run checkpoint regardless of the sampling stride.
            checker.check()

        stats: dict = {"repairs": repair.repairs, "stranded": repair.stranded}
        if chaos_engine is not None:
            stats.update(
                install_retries=controller.programmer.install_retries,
                install_failures=controller.programmer.install_failures,
                crashes=controller.crashes,
                resyncs=controller.resyncs,
                rules_resynced=controller.rules_resynced,
                stats_samples_skipped=controller.stats_service.samples_skipped,
            )
        if pythia is not None:
            stats.update(
                rule_hits=pythia.policy.rule_hits,
                fallbacks=pythia.policy.fallbacks,
                rules_installed=controller.programmer.rules_installed,
                peak_rules=controller.programmer.peak_table_size,
                predictions=pythia.collector.predictions_received,  # type: ignore[union-attr]
            )
            if pythia.pipeline is not None:
                stats["pipeline"] = pythia.pipeline.snapshot()
            if pythia.forecast is not None:
                stats.update(pythia.forecast.snapshot())
                if pythia.rerouter is not None:
                    stats.update(
                        forecast_reroutes=pythia.rerouter.reroutes,
                        forecast_reroutes_skipped_stale=pythia.rerouter.skipped_stale,
                    )
        if hedera is not None:
            stats.update(reroutes=hedera.reroutes)
        return RunResult(
            scheduler=scheduler,
            ratio=ratio,
            seed=seed,
            run=jobs[0],
            netflow=netflow,
            topology=topology,
            sim=sim,
            collector=pythia.collector if pythia is not None else None,
            policy_stats=stats,
            controller=controller,
            metrics=registry.snapshot() if registry is not None else {},
            tracer=tracer,
            invariants=checker.snapshot() if checker is not None else {},
            faults_injected=dict(chaos_engine.injected) if chaos_engine is not None else {},
            jobs=jobs,
        )


def run_pair(
    spec_factory: Callable[[], JobSpec],
    ratio: Optional[float],
    seed: int = 0,
    **kwargs,
) -> tuple[RunResult, RunResult]:
    """Run the same workload under ECMP and Pythia (one table row)."""
    ecmp = run_experiment(spec_factory(), scheduler="ecmp", ratio=ratio, seed=seed, **kwargs)
    pythia = run_experiment(spec_factory(), scheduler="pythia", ratio=ratio, seed=seed, **kwargs)
    return ecmp, pythia
