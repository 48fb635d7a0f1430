"""Workload-mix experiment: a stream of jobs under one scheduler.

Measures what a cluster operator would: per-job completion times and
makespan for a synthetic multi-tenant job stream, under ECMP vs Pythia
on the loaded 2-rack testbed.  The stream runs as a one-tenant fleet
through :func:`~repro.experiments.common.run_cluster_experiment`; the
collector/aggregator handle all concurrent jobs' predictions
simultaneously (keyed by unique job ids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import PythiaConfig
from repro.experiments.common import run_cluster_experiment
from repro.workloads.cluster import trace_workload
from repro.workloads.mix import JobArrival, synthesize_mix


@dataclass
class MixResult:
    """Aggregate outcome of one job-stream run."""
    scheduler: str
    ratio: Optional[float]
    jcts: dict[str, float] = field(default_factory=dict)
    makespan: float = 0.0

    @property
    def mean_jct(self) -> float:
        """Mean job completion time across the stream."""
        return float(np.mean(list(self.jcts.values())))

    @property
    def p95_jct(self) -> float:
        """95th-percentile job completion time."""
        return float(np.percentile(list(self.jcts.values()), 95))


def run_mix(
    arrivals: Optional[list[JobArrival]] = None,
    scheduler: str = "pythia",
    ratio: Optional[float] = 10,
    seed: int = 1,
    pythia_config: Optional[PythiaConfig] = None,
) -> MixResult:
    """Run a job stream to completion under one scheduler."""
    arrivals = arrivals if arrivals is not None else synthesize_mix(seed=seed)
    res = run_cluster_experiment(
        trace_workload(arrivals),
        scheduler=scheduler,
        ratio=ratio,
        seed=seed,
        pythia_config=pythia_config,
        isolated_baselines=False,
    )
    return MixResult(
        scheduler=scheduler,
        ratio=ratio,
        jcts={run.job_id: run.jct for run in res.jobs},
        makespan=max(float(run.completed_at) for run in res.jobs),
    )


def compare_mix(
    ratio: Optional[float] = 10,
    n_jobs: int = 8,
    seed: int = 1,
) -> dict[str, MixResult]:
    """The same stream under ECMP and Pythia."""
    out: dict[str, MixResult] = {}
    for scheduler in ("ecmp", "pythia"):
        arrivals = synthesize_mix(n_jobs=n_jobs, seed=seed)
        out[scheduler] = run_mix(arrivals, scheduler=scheduler, ratio=ratio, seed=seed)
    return out
