"""Command-line interface: run experiments and regenerate paper figures.

Usage (installed as ``python -m repro``):

    python -m repro list
    python -m repro run --workload sort --scale 0.05 --scheduler pythia --ratio 10
    python -m repro compare --workload nutch --ratio 20
    python -m repro figure fig3 --scale 0.2 --seeds 1
    python -m repro sweep --workload sort --workers 4 --cache-dir .sweep-cache
    python -m repro forecast --seeds 1 2 --ratios 5
    python -m repro metrics --workload sort --ratio 10
    python -m repro trace --workload sort --subsystem allocator
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import obs

from repro.analysis.report import format_table
from repro.analysis.speedup import speedup
from repro.analysis.timeline import job_timeline, phase_fractions, render_timeline
from repro.experiments.common import run_experiment
from repro.forecast.models import FORECASTERS
from repro.stack import SCHEDULERS
from repro.workloads import HIBENCH, make_workload

FIGURES = ("fig1a", "fig1b", "fig3", "fig4", "fig5", "overhead", "ablations")


def _parse_ratio(value: str) -> Optional[float]:
    if value.lower() in ("none", "0"):
        return None
    return float(value.removeprefix("1:"))


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads: ", ", ".join(sorted(HIBENCH)))
    print("schedulers:", ", ".join(SCHEDULERS))
    print("figures:   ", ", ".join(FIGURES))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = make_workload(args.workload, scale=args.scale)
    pythia_config = None
    if args.forecast_mode != "off":
        from repro.core.config import PythiaConfig

        pythia_config = PythiaConfig(forecast_mode=args.forecast_mode)
    res = run_experiment(
        spec,
        scheduler=args.scheduler,
        ratio=args.ratio,
        seed=args.seed,
        pythia_config=pythia_config,
    )
    print(f"{spec.name} under {args.scheduler}"
          f" (oversubscription {'none' if args.ratio is None else f'1:{args.ratio:g}'}):"
          f" JCT = {res.jct:.1f}s")
    fr = phase_fractions(res.run)
    print("phase coverage: " + ", ".join(f"{k} {v:.0%}" for k, v in fr.items()))
    if res.policy_stats:
        print("scheduler stats:", res.policy_stats)
    if args.timeline:
        print(render_timeline(job_timeline(res.run)))
    if args.export is not None:
        from repro.analysis.export import export_run

        path = export_run(res, args.export)
        print(f"measurements written to {path}")
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.experiments.mix import run_mix
    from repro.workloads.mix import synthesize_mix

    rows = []
    for scheduler in args.schedulers:
        res = run_mix(
            synthesize_mix(n_jobs=args.jobs, seed=args.seed),
            scheduler=scheduler,
            ratio=args.ratio,
            seed=args.seed,
        )
        rows.append((scheduler, res.mean_jct, res.p95_jct, res.makespan))
    print(
        format_table(
            ["scheduler", "mean JCT (s)", "p95 JCT (s)", "makespan (s)"], rows
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for scheduler in args.schedulers:
        jcts = [
            run_experiment(
                make_workload(args.workload, scale=args.scale),
                scheduler=scheduler,
                ratio=args.ratio,
                seed=s,
            ).jct
            for s in args.seeds
        ]
        rows.append((scheduler, sum(jcts) / len(jcts)))
    base = rows[0][1]
    print(
        format_table(
            ["scheduler", "JCT (s)", "vs first (%)"],
            [(name, jct, 100.0 * speedup(base, jct)) for name, jct in rows],
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fig1a":
        from repro.experiments.fig1a_sequence import run_fig1a

        print(run_fig1a().render(width=90))
    elif name == "fig1b":
        from repro.experiments.fig1b_adversarial import run_fig1b

        for sched in ("ecmp", "pythia"):
            r = run_fig1b(sched)
            print(
                f"{sched}: flow-1 via {r.flow1_trunk} in {r.flow1_seconds:.1f}s, "
                f"flow-2 via {r.flow2_trunk} in {r.flow2_seconds:.1f}s"
            )
    elif name == "fig3":
        from repro.experiments.fig3_nutch import render_fig3, run_fig3

        print(render_fig3(run_fig3(pages=5e6 * args.scale, seeds=args.seeds)))
    elif name == "fig4":
        from repro.experiments.fig4_sort import render_fig4, run_fig4

        print(render_fig4(run_fig4(input_gb=48.0 * args.scale, seeds=args.seeds)))
    elif name == "fig5":
        from repro.experiments.fig5_prediction import run_fig5

        print(run_fig5(input_gb=60.0 * args.scale, seed=args.seeds[0]).render())
    elif name == "overhead":
        from repro.experiments.overhead import render_overhead, run_overhead
        from repro.workloads import nutch_indexing_job, sort_job

        rows = [
            run_overhead(lambda: sort_job(input_gb=24.0 * args.scale), seed=args.seeds[0]),
            run_overhead(lambda: nutch_indexing_job(pages=5e6 * args.scale), seed=args.seeds[0]),
        ]
        print(render_overhead(rows))
    elif name == "ablations":
        from repro.experiments import ablations as ab

        print(ab.render_ablation("A1 — aggregation", ab.ablate_aggregation(seed=args.seeds[0])))
        print(ab.render_ablation("A1b — allocators", ab.ablate_allocators(seed=args.seeds[0])))
        print(ab.render_ablation("A2 — schedulers", ab.ablate_schedulers(seed=args.seeds[0])))
        print(ab.render_ablation("A3a — k paths", ab.ablate_k_paths(seed=args.seeds[0])))
        print(ab.render_ablation("A3b — install latency", ab.ablate_install_latency(seed=args.seeds[0])))
    else:  # pragma: no cover — argparse restricts choices
        raise ValueError(name)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a (ratio x scheduler x seed) grid on the parallel runner."""
    from repro.analysis.speedup import speedup
    from repro.runner import run_cells, sweep_grid

    if args.arrival_rates:
        return _fleet_sweep(args)
    cells = sweep_grid(
        lambda: make_workload(args.workload, scale=args.scale),
        schedulers=args.schedulers,
        ratios=args.ratios,
        seeds=args.seeds,
    )
    report = run_cells(cells, workers=args.workers, cache_dir=args.cache_dir)

    per_ratio = len(args.schedulers) * len(args.seeds)
    means: dict[tuple[int, str], list[float]] = {}
    for idx, (cell, summary) in enumerate(zip(cells, report.summaries)):
        means.setdefault((idx // per_ratio, cell.scheduler), []).append(summary.jct)
    rows = []
    for i, ratio in enumerate(args.ratios):
        label = "none" if ratio is None else f"1:{ratio:g}"
        jcts = [
            sum(means[(i, s)]) / len(means[(i, s)]) for s in args.schedulers
        ]
        rows.append((label, *jcts, 100.0 * speedup(jcts[0], jcts[-1])))
    headers = (
        ["oversub"]
        + [f"{s} (s)" for s in args.schedulers]
        + [f"{args.schedulers[-1]} vs {args.schedulers[0]} (%)"]
    )
    print(format_table(headers, rows))
    print(
        f"cells: {len(cells)} total, {report.cache_hits} from cache, "
        f"{report.executed} executed ({report.invalidations} invalidated) "
        f"in {report.elapsed_seconds:.1f}s with {args.workers} worker(s)"
    )
    if args.cache_dir is not None:
        print(
            f"cache: {args.cache_dir} (hit rate {100.0 * report.hit_rate:.0f}%, "
            f"manifest {report.manifest_path})"
        )
    if args.min_cache_hit_rate is not None and report.hit_rate < args.min_cache_hit_rate:
        print(
            f"error: cache hit rate {report.hit_rate:.2f} below required "
            f"{args.min_cache_hit_rate:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _fleet_sweep(args: argparse.Namespace) -> int:
    """Multi-tenant mode of ``repro sweep``: arrival-rate x scheduler."""
    from repro.experiments.multi_tenant import format_fleet_table, multi_tenant_sweep

    ratio = args.ratios[0] if args.ratios else 10.0
    rows, report = multi_tenant_sweep(
        arrival_rates=args.arrival_rates,
        schedulers=args.schedulers,
        seeds=args.seeds,
        ratio=ratio,
        n_jobs=args.fleet_jobs,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(format_fleet_table(rows))
    print(
        f"fleet cells: {len(rows)} total, {report.cache_hits} from cache, "
        f"{report.executed} executed ({report.invalidations} invalidated) "
        f"in {report.elapsed_seconds:.1f}s with {args.workers} worker(s)"
    )
    if args.min_cache_hit_rate is not None and report.hit_rate < args.min_cache_hit_rate:
        print(
            f"error: cache hit rate {report.hit_rate:.2f} below required "
            f"{args.min_cache_hit_rate:.2f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _telemetry_run(args: argparse.Namespace, tracer: Optional[obs.Tracer] = None):
    """Run one instrumented experiment for the telemetry commands."""
    registry = obs.MetricsRegistry()
    spec = make_workload(args.workload, scale=args.scale)
    res = run_experiment(
        spec,
        scheduler=args.scheduler,
        ratio=args.ratio,
        seed=args.seed,
        registry=registry,
        tracer=tracer,
    )
    return registry, res


def _cmd_metrics(args: argparse.Namespace) -> int:
    registry, res = _telemetry_run(args)
    metrics = registry.snapshot()
    hits = metrics.get("routing.kpath_cache_hits", {}).get("value", 0)
    misses = metrics.get("routing.kpath_cache_misses", {}).get("value", 0)
    if hits + misses:
        # derived rate next to the raw counters: the one-glance health
        # number for the routing memo (1.0 = fully warm control plane)
        metrics["routing.kpath_cache_hit_rate"] = {
            "type": "derived",
            "value": hits / (hits + misses),
        }
    snapshot = {
        "run": {
            "workload": res.run.spec.name,
            "scheduler": res.scheduler,
            "ratio": res.ratio,
            "seed": res.seed,
            "jct_seconds": res.jct,
        },
        "metrics": metrics,
    }
    print(json.dumps(snapshot, indent=2 if args.indent else None))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    tracer = obs.Tracer(capacity=args.capacity)
    _registry, _res = _telemetry_run(args, tracer=tracer)
    events = tracer.events(subsystem=args.subsystem, kind=args.kind)
    if args.limit is not None:
        events = events[-args.limit:]
    for ev in events:
        print(json.dumps(ev.to_dict()))
    if tracer.dropped:
        print(
            f"note: ring buffer dropped {tracer.dropped} older events "
            f"(capacity {tracer.capacity})",
            file=sys.stderr,
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one job under a seeded fault schedule with invariants on."""
    from repro.faults import InvariantViolation, random_schedule

    spec = make_workload(args.workload, scale=args.scale)
    tracer = obs.Tracer()

    def schedule_factory(topo):
        return random_schedule(
            topo,
            seed=args.chaos_seed,
            flaps=args.flaps,
            switch_outages=args.switch_outages,
            controller_outages=args.outages,
            stats_freezes=args.freezes,
            prediction_faults=args.prediction_faults,
            horizon=(args.horizon[0], args.horizon[1]),
        )

    try:
        res = run_experiment(
            spec,
            scheduler=args.scheduler,
            ratio=args.ratio,
            seed=args.seed,
            tracer=tracer,
            invariants=not args.no_invariants,
            chaos=schedule_factory,
        )
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION during {spec.name} under {args.scheduler}:")
        print(exc)
        return 1
    print(
        f"{spec.name} under {args.scheduler} survived chaos seed "
        f"{args.chaos_seed}: JCT = {res.jct:.1f}s"
    )
    if res.faults_injected:
        injected = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(res.faults_injected.items())
        )
        print(f"faults injected: {injected}")
    else:
        print("faults injected: none (schedule was empty)")
    if res.invariants:
        print(
            f"invariants: {res.invariants['checkpoints']} checkpoints, "
            f"{res.invariants['checks_run']} checks, "
            f"{res.invariants['violations']} violations"
        )
    if res.policy_stats:
        print("degradation stats:", res.policy_stats)
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    """Forecast-efficacy sweeps (tentpole evaluation)."""
    from repro.experiments.forecast_efficacy import (
        forecast_efficacy_sweep,
        forecast_lead_time_curve,
        format_efficacy,
        format_lead_time,
    )
    from repro.workloads import sort_job

    def spec_factory():
        return sort_job(input_gb=16.0 * args.scale)

    rows = forecast_efficacy_sweep(
        spec_factory=spec_factory,
        modes=args.modes,
        ratios=args.ratios,
        seeds=args.seeds,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(format_efficacy(rows))
    if args.lead_times:
        curve = forecast_lead_time_curve(
            mode=args.lead_time_mode,
            horizons=args.lead_times,
            spec_factory=spec_factory,
            ratio=args.ratios[0],
            seeds=args.seeds,
            workers=args.workers,
            cache_dir=args.cache_dir,
        )
        print()
        print(format_lead_time(curve))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    """Run one Pythia job with message recording on and save the tape."""
    from repro.core.config import PythiaConfig
    from repro.pipeline import MessageTape

    spec = make_workload(args.workload, scale=args.scale)
    res = run_experiment(
        spec,
        scheduler="pythia",
        ratio=args.ratio,
        seed=args.seed,
        pythia_config=PythiaConfig(record_messages=True),
    )
    tape = MessageTape.from_collector(res.collector)
    tape.save(args.out)
    print(
        f"recorded {len(tape)} messages over {tape.duration:.1f}s "
        f"({spec.name}, seed {args.seed}) -> {args.out}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the controller as a staged-pipeline service.

    With ``--tape`` the tape is replayed in-process at ``--rate``; with
    ``--port`` the service accepts the same JSONL stream over TCP from
    ``repro replay --connect`` until an eof record arrives.  Either way
    the service drains fully and prints its stats ledger as JSON.
    """
    from repro.core.config import PythiaConfig
    from repro.pipeline import MessageTape, PipelineService, ReplayClient
    from repro.pipeline.service import TOPOLOGIES, serve_tcp

    if args.tape is None and args.port is None:
        print("serve needs --tape FILE (in-process) or --port N (TCP)",
              file=sys.stderr)
        return 2
    config = PythiaConfig(
        pipeline_mode="staged",
        pipeline_shards=args.shards,
        pipeline_queue_capacity=args.queue_capacity,
        pipeline_batch_max=args.batch_max,
        pipeline_coalesce=not args.no_coalesce,
    )
    service = PipelineService(
        topology_factory=TOPOLOGIES[args.topology], config=config
    )
    service.start()
    client_stats = None
    try:
        if args.tape is not None:
            tape = MessageTape.load(args.tape)
            client_stats = ReplayClient(tape, rate=args.rate).run(service.submit)
        else:
            done = serve_tcp(service, args.port)
            print(f"listening on 127.0.0.1:{args.port} "
                  "(send an eof record to finish)", file=sys.stderr)
            done.wait()
        drained = service.drain(timeout=args.drain_timeout)
    finally:
        service.stop()
    snap = service.snapshot()
    if client_stats is not None:
        snap["client"] = client_stats
    snap["drained"] = drained
    print(json.dumps(snap, indent=2 if args.indent else None))
    return 0 if drained else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """Stream a recorded tape to a running ``repro serve --port``."""
    from repro.pipeline import MessageTape
    from repro.pipeline.service import replay_tcp

    host, _, port = args.connect.rpartition(":")
    tape = MessageTape.load(args.tape)
    stats = replay_tcp(tape, host or "127.0.0.1", int(port), rate=args.rate)
    print(json.dumps(stats))
    return 0


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="sort", choices=sorted(HIBENCH))
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--scheduler", default="pythia", choices=SCHEDULERS)
    p.add_argument("--ratio", type=_parse_ratio, default=10.0,
                   help="over-subscription 1:N (e.g. 10 or 1:10; none = unloaded)")
    p.add_argument("--seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Pythia (IPDPS 2014) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schedulers and figures")

    run_p = sub.add_parser("run", help="run one workload under one scheduler")
    run_p.add_argument("--workload", default="sort", choices=sorted(HIBENCH))
    run_p.add_argument("--scale", type=float, default=0.05)
    run_p.add_argument("--scheduler", default="pythia", choices=SCHEDULERS)
    run_p.add_argument("--ratio", type=_parse_ratio, default=None,
                       help="over-subscription 1:N (e.g. 10 or 1:10; none = unloaded)")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--forecast-mode", default="off",
                       choices=["off", *FORECASTERS],
                       help="score allocations against forecast link load "
                            "and reroute elephants proactively (pythia only)")
    run_p.add_argument("--timeline", action="store_true",
                       help="print the job's sequence diagram")
    run_p.add_argument("--export", default=None, metavar="FILE",
                       help="write the run's measurements as JSON")

    cmp_p = sub.add_parser("compare", help="compare schedulers on one workload")
    cmp_p.add_argument("--workload", default="sort", choices=sorted(HIBENCH))
    cmp_p.add_argument("--scale", type=float, default=0.05)
    cmp_p.add_argument("--ratio", type=_parse_ratio, default=10.0)
    cmp_p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    cmp_p.add_argument("--schedulers", nargs="+", default=list(SCHEDULERS))

    fig_p = sub.add_parser("figure", help="regenerate one paper figure")
    fig_p.add_argument("name", choices=FIGURES)
    fig_p.add_argument("--scale", type=float, default=0.2)
    fig_p.add_argument("--seeds", type=int, nargs="+", default=[1])

    met_p = sub.add_parser("metrics", help="run one job and emit its metrics as JSON")
    _add_telemetry_args(met_p)
    met_p.add_argument("--indent", action="store_true", help="pretty-print the JSON")

    trc_p = sub.add_parser("trace", help="run one job and emit its trace as JSON lines")
    _add_telemetry_args(trc_p)
    trc_p.add_argument("--capacity", type=int, default=65536,
                       help="trace ring-buffer capacity (oldest events drop)")
    trc_p.add_argument("--limit", type=int, default=None,
                       help="print only the last N events")
    trc_p.add_argument("--subsystem", default=None,
                       help="filter by subsystem (sim, network, allocator, ...)")
    trc_p.add_argument("--kind", default=None,
                       help="filter by event kind (flow_start, placement, ...)")

    chaos_p = sub.add_parser(
        "chaos", help="fault-injection runs with the invariant checker on"
    )
    chaos_sub = chaos_p.add_subparsers(dest="chaos_command", required=True)
    chr_p = chaos_sub.add_parser(
        "run", help="run one workload under a seeded random fault schedule"
    )
    _add_telemetry_args(chr_p)
    chr_p.add_argument("--chaos-seed", type=int, default=7,
                       help="seed of the random fault schedule")
    chr_p.add_argument("--flaps", type=int, default=2,
                       help="number of inter-switch link flaps")
    chr_p.add_argument("--switch-outages", type=int, default=0,
                       help="number of core/trunk switch outages")
    chr_p.add_argument("--outages", type=int, default=1,
                       help="number of controller crash/restore cycles")
    chr_p.add_argument("--freezes", type=int, default=1,
                       help="number of link-stats staleness windows")
    chr_p.add_argument("--prediction-faults", type=int, default=0,
                       help="number of prediction loss/error windows")
    chr_p.add_argument("--horizon", type=float, nargs=2, default=[5.0, 40.0],
                       metavar=("LO", "HI"),
                       help="fault injection window (seconds)")
    chr_p.add_argument("--no-invariants", action="store_true",
                       help="skip the runtime invariant checker")

    sweep_p = sub.add_parser(
        "sweep",
        help="run a ratio x scheduler x seed grid on the parallel runner "
             "with the content-addressed result cache",
    )
    sweep_p.add_argument("--workload", default="sort", choices=sorted(HIBENCH))
    sweep_p.add_argument("--scale", type=float, default=0.05)
    sweep_p.add_argument("--ratios", type=_parse_ratio, nargs="+",
                         default=[None, 5.0, 10.0, 20.0],
                         help="over-subscription points (e.g. none 5 10 20)")
    sweep_p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    sweep_p.add_argument("--schedulers", nargs="+", default=["ecmp", "pythia"],
                         choices=SCHEDULERS)
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="process-pool width (1 = in-process serial)")
    sweep_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="content-addressed result cache root "
                              "(repeat sweeps are served from it)")
    sweep_p.add_argument("--min-cache-hit-rate", type=float, default=None,
                         metavar="FRAC",
                         help="exit non-zero if the cache served less than "
                              "this fraction of cells (CI guard)")
    sweep_p.add_argument("--arrival-rates", type=float, nargs="+", default=None,
                         metavar="RATE",
                         help="multi-tenant mode: sweep a Poisson job stream "
                              "at these arrival rates (jobs/s) instead of the "
                              "single-job grid; reports fleet p50/p99 JCT, "
                              "slowdown and Jain fairness")
    sweep_p.add_argument("--fleet-jobs", type=int, default=5,
                         help="jobs per fleet workload in --arrival-rates mode")

    fc_p = sub.add_parser(
        "forecast",
        help="forecast-efficacy sweep: ecmp/hedera/pythia vs pythia+forecast "
             "on the step-background scenario",
    )
    fc_p.add_argument("--scale", type=float, default=0.05,
                      help="sort input = 16 GB x scale")
    fc_p.add_argument("--modes", nargs="+",
                      default=["ewma", "ar"],
                      choices=list(FORECASTERS))
    fc_p.add_argument("--ratios", type=_parse_ratio, nargs="+", default=[5.0, 10.0])
    fc_p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    fc_p.add_argument("--workers", type=int, default=1)
    fc_p.add_argument("--cache-dir", default=None, metavar="DIR")
    fc_p.add_argument("--lead-times", type=float, nargs="+", default=None,
                      metavar="H",
                      help="also sweep these forecast horizons (seconds) "
                           "for the accuracy-vs-lead-time curve")
    fc_p.add_argument("--lead-time-mode", default="ar",
                      choices=list(FORECASTERS),
                      help="forecaster for the lead-time curve")

    mix_p = sub.add_parser("mix", help="run a multi-tenant job stream")
    mix_p.add_argument("--jobs", type=int, default=8)
    mix_p.add_argument("--ratio", type=_parse_ratio, default=10.0)
    mix_p.add_argument("--seed", type=int, default=1)
    mix_p.add_argument("--schedulers", nargs="+", default=["ecmp", "pythia"])

    rec_p = sub.add_parser(
        "record", help="run one job and save its prediction stream as a tape"
    )
    _add_telemetry_args(rec_p)
    rec_p.add_argument("--out", default="tape.jsonl", metavar="FILE",
                       help="JSONL tape destination")

    srv_p = sub.add_parser(
        "serve",
        help="run the controller as a staged-pipeline service fed by a "
             "replayed tape (in-process or over TCP)",
    )
    srv_p.add_argument("--topology", default="two_rack",
                       choices=sorted(["two_rack", "leaf_spine", "fat_tree"]))
    srv_p.add_argument("--shards", type=int, default=2,
                       help="collector shards (one thread each)")
    srv_p.add_argument("--queue-capacity", type=int, default=256)
    srv_p.add_argument("--batch-max", type=int, default=64,
                       help="max messages per stage batch / flow-mods per install")
    srv_p.add_argument("--no-coalesce", action="store_true",
                       help="disable superseded-prediction coalescing")
    srv_p.add_argument("--tape", default=None, metavar="FILE",
                       help="replay this tape in-process and exit when drained")
    srv_p.add_argument("--rate", type=float, default=None,
                       help="replay pacing in messages/sec (default: max rate)")
    srv_p.add_argument("--port", type=int, default=None,
                       help="accept the tape over TCP instead (see `repro replay`)")
    srv_p.add_argument("--drain-timeout", type=float, default=30.0)
    srv_p.add_argument("--indent", action="store_true",
                       help="pretty-print the final stats JSON")

    rep_p = sub.add_parser(
        "replay", help="stream a recorded tape to a running `repro serve --port`"
    )
    rep_p.add_argument("--tape", required=True, metavar="FILE")
    rep_p.add_argument("--connect", default="127.0.0.1:9177",
                       metavar="HOST:PORT")
    rep_p.add_argument("--rate", type=float, default=None,
                       help="pacing in messages/sec (default: max rate)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.forecast_mode != "off" and args.scheduler != "pythia":
        parser.error(
            f"--forecast-mode {args.forecast_mode} needs --scheduler pythia "
            f"(got {args.scheduler})"
        )
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "forecast": _cmd_forecast,
        "mix": _cmd_mix,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "record": _cmd_record,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
