"""Parallel sweep executor: fan experiment cells over a process pool.

The paper's evaluation is a grid — workload x scheduler x
over-subscription ratio x seed — and every cell is an independent
deterministic simulation, so the grid is embarrassingly parallel.  This
module turns a grid into :class:`SweepCell` records (the deterministic
cell -> seed mapping lives in :func:`sweep_grid`: each cell carries its
explicit seed, never a position-derived one, so execution order and
worker count cannot change any cell's RNG stream), executes the cells
either inline or over a ``ProcessPoolExecutor``, and memoises each
cell's :class:`~repro.runner.summary.RunSummary` in a content-addressed
:class:`~repro.runner.cache.ResultCache`.

Determinism: ``run_experiment`` builds a fresh simulator and a fresh
``default_rng(seed)`` per call, so a cell's outcome depends only on its
parameters — parallel results are bit-identical to serial ones
(``tests/runner/test_parallel_determinism.py`` holds that line against
the golden digests).  Worker processes reset the process-global
``obs``/invariant-checker contexts on startup so a registry or checker
installed in the parent (inherited by fork) is never shared across
concurrently running cells.

Resumability: every completed cell is written to the cache before the
sweep moves on, and a manifest file (one per sweep digest) records each
cell's key and how it was satisfied.  Re-running an interrupted sweep
re-executes only the missing cells.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro import obs
from repro.core.config import PythiaConfig
from repro.faults import runtime as faults_runtime
from repro.hadoop.cluster import ClusterConfig
from repro.hadoop.job import JobSpec
from repro.runner.cache import (
    ResultCache,
    UncacheableCell,
    canonical,
    code_version,
    digest,
)
from repro.runner.summary import RunSummary
from repro.simnet.topology import two_rack
from repro.workloads.cluster import ClusterWorkload

MANIFEST_VERSION = 1

#: sentinel statuses a manifest records per cell.
CACHED, EXECUTED, UNCACHEABLE = "cached", "executed", "uncacheable"


@dataclass(frozen=True)
class SweepCell:
    """One grid point: a workload under one scheduler/ratio/seed.

    ``spec`` is either a single :class:`JobSpec` (the classic solo-job
    cell) or a :class:`~repro.workloads.cluster.ClusterWorkload` (a
    multi-tenant fleet cell); both are plain dataclasses, so the cache
    key and the worker boundary handle them identically.
    """

    spec: Union[JobSpec, ClusterWorkload]
    scheduler: str
    ratio: Optional[float]
    seed: int

    @property
    def label(self) -> str:
        ratio = "none" if self.ratio is None else f"1:{self.ratio:g}"
        return f"{self.spec.name}/{self.scheduler}/{ratio}/seed{self.seed}"


@dataclass
class SweepReport:
    """What a sweep produced and how the work was satisfied."""

    #: one summary per cell, in cell order.
    summaries: list[RunSummary]
    cache_hits: int = 0
    cache_misses: int = 0
    invalidations: int = 0
    #: cells actually executed this invocation (== misses with a cache).
    executed: int = 0
    elapsed_seconds: float = 0.0
    manifest_path: Optional[Path] = None

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def sweep_grid(
    spec_factory: Callable[[], JobSpec],
    schedulers: Sequence[str],
    ratios: Sequence[Optional[float]],
    seeds: Sequence[int],
) -> list[SweepCell]:
    """Expand a grid into cells, ratio-major then scheduler then seed.

    Each cell is assigned its seed directly from ``seeds`` — the
    mapping is a pure function of the grid definition, independent of
    execution order, worker count, or which cells are cache hits.
    """
    return [
        SweepCell(spec=spec_factory(), scheduler=scheduler, ratio=ratio, seed=seed)
        for ratio in ratios
        for scheduler in schedulers
        for seed in seeds
    ]


def cell_key(cell: SweepCell, run_kwargs: Optional[dict] = None) -> str:
    """Content digest addressing ``cell``'s result in the cache.

    Covers everything that can change the outcome: the spec, scheduler,
    ratio, seed, the *effective* Pythia/cluster configs, topology and
    invariant checking (defaults are normalised so ``pythia_config=None``
    and an explicit default-constructed config address the same entry,
    and ``invariants=None`` keys on what ``REPRO_INVARIANTS`` selects),
    any further run kwargs, and the repro code version.  Raises
    :class:`~repro.runner.cache.UncacheableCell` when a kwarg has no
    canonical form (e.g. a lambda fault hook).
    """
    kwargs = dict(run_kwargs or {})
    payload = {
        "spec": cell.spec,
        "scheduler": cell.scheduler,
        "ratio": cell.ratio,
        "seed": cell.seed,
        "topology": kwargs.pop("topology_factory", None) or two_rack,
        "pythia_config": kwargs.pop("pythia_config", None) or PythiaConfig(),
        "cluster_config": kwargs.pop("cluster_config", None) or ClusterConfig(),
        "invariants": faults_runtime.resolve_invariants(kwargs.pop("invariants", None)),
        "kwargs": kwargs,
        "code_version": code_version(),
    }
    return digest(payload)


def _reset_worker_context() -> None:
    """Drop contexts a forked worker inherited from its parent.

    A registry/tracer or invariant checker installed in the parent is
    process-global state; sharing one instance across pool workers
    would interleave unrelated cells' telemetry (and, for the checker,
    watch simulators that no longer exist).  Each worker starts from
    the no-op defaults; ``run_experiment`` re-installs per-run contexts
    as usual.
    """
    obs.set_registry(None)
    obs.set_tracer(None)
    faults_runtime.set_checker(None)


def _execute_cell(cell: SweepCell, run_kwargs: dict) -> RunSummary:
    """Run one cell to completion (in the parent or a pool worker)."""
    from repro.experiments.common import run_cluster_experiment, run_experiment

    runner = (
        run_cluster_experiment
        if isinstance(cell.spec, ClusterWorkload)
        else run_experiment
    )
    result = runner(
        cell.spec,
        scheduler=cell.scheduler,
        ratio=cell.ratio,
        seed=cell.seed,
        **run_kwargs,
    )
    return RunSummary.from_result(result)


def _manifest_path(cache: ResultCache, sweep_digest: str) -> Path:
    return cache.root / f"sweep-{sweep_digest}.manifest.json"


def _load_manifest(path: Path) -> Optional[dict]:
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None
    if data.get("version") != MANIFEST_VERSION:
        return None
    return data


def run_cells(
    cells: Sequence[SweepCell],
    *,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    run_kwargs: Optional[dict] = None,
) -> SweepReport:
    """Execute a sweep, serving repeats from the cache.

    Parameters
    ----------
    workers:
        Process-pool width; 1 runs every cell inline.  Results are
        bit-identical either way.
    cache_dir:
        Root of the content-addressed result cache; None disables
        caching (every cell executes).
    run_kwargs:
        Extra keyword arguments forwarded to ``run_experiment`` for
        every cell (topology_factory, cluster_config, ...).  With
        ``workers > 1`` they must be picklable, and per-run observability
        sinks (``registry``/``tracer``) are rejected — a pool worker
        cannot mutate the parent's instruments.
    """
    run_kwargs = dict(run_kwargs or {})
    if workers > 1:
        for forbidden in ("registry", "tracer"):
            if run_kwargs.get(forbidden) is not None:
                raise ValueError(
                    f"run_kwargs[{forbidden!r}] is per-process state and cannot "
                    f"cross a worker boundary; use workers=1 for telemetry runs"
                )
    started = time.perf_counter()
    registry = obs.get_registry()
    executed_counter = registry.counter("runner.cells_executed")

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    keys: list[Optional[str]] = []
    for cell in cells:
        if cache is None:
            keys.append(None)
            continue
        try:
            keys.append(cell_key(cell, run_kwargs))
        except UncacheableCell:
            keys.append(None)

    report = SweepReport(summaries=[None] * len(cells))  # type: ignore[list-item]

    # Phase 1: serve what the cache already holds.
    pending: list[int] = []
    for i, key in enumerate(keys):
        summary = cache.get(key) if cache is not None and key is not None else None
        if summary is not None:
            report.summaries[i] = summary
        else:
            pending.append(i)
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses
        report.invalidations = cache.invalidations

    # Phase 2: execute the missing cells, inline or over the pool.
    if pending:
        if workers <= 1 or len(pending) == 1:
            fresh = [_execute_cell(cells[i], run_kwargs) for i in pending]
        else:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                initializer=_reset_worker_context,
            ) as pool:
                fresh = list(
                    pool.map(_execute_cell, [cells[i] for i in pending],
                             [run_kwargs] * len(pending))
                )
        for i, summary in zip(pending, fresh):
            report.summaries[i] = summary
            if cache is not None and keys[i] is not None:
                cache.put(keys[i], summary)
        report.executed = len(pending)
        executed_counter.inc(len(pending))

    # Phase 3: record the sweep manifest (resume/inspection aid).
    if cache is not None:
        sweep_digest = digest([k or f"uncacheable:{cells[i].label}"
                               for i, k in enumerate(keys)])
        path = _manifest_path(cache, sweep_digest)
        prior = _load_manifest(path)
        executed_set = set(pending)
        entries = []
        for i, (cell, key) in enumerate(zip(cells, keys)):
            if key is None:
                status = UNCACHEABLE
            elif i in executed_set:
                status = EXECUTED
            else:
                status = CACHED
            entries.append(
                {"index": i, "cell": cell.label, "key": key, "status": status}
            )
        manifest = {
            "version": MANIFEST_VERSION,
            "sweep": sweep_digest,
            "code_version": code_version(),
            "completions": (prior or {}).get("completions", 0) + 1,
            "cells": entries,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        tmp.replace(path)
        report.manifest_path = path

    report.elapsed_seconds = time.perf_counter() - started
    return report


__all__ = [
    "SweepCell",
    "SweepReport",
    "cell_key",
    "run_cells",
    "sweep_grid",
    "canonical",
]
