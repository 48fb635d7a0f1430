"""Chained-job experiment: run job i+1 when job i completes.

Iterative analytics (PageRank, k-means, BFS) execute as a *chain* of
MapReduce jobs whose shuffle pattern repeats every round — per-round
savings from network scheduling compound across the chain.  The chain
runs on the shared harness (:func:`~repro.experiments.common.run_jobs`);
only the submission loop is its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.config import PythiaConfig
from repro.experiments.common import run_jobs
from repro.hadoop.job import JobRun, JobSpec
from repro.hadoop.jobtracker import JobTracker
from repro.simnet.engine import Simulator


@dataclass
class ChainResult:
    """Outcome of one sequential job chain."""
    scheduler: str
    ratio: Optional[float]
    iteration_jcts: list[float] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def mean_iteration(self) -> float:
        """Mean per-iteration completion time."""
        return float(np.mean(self.iteration_jcts))


def run_chain(
    specs: list[JobSpec],
    scheduler: str = "pythia",
    ratio: Optional[float] = 10,
    seed: int = 1,
    pythia_config: Optional[PythiaConfig] = None,
) -> ChainResult:
    """Execute the chain sequentially inside one simulation."""
    if not specs:
        raise ValueError("empty chain")
    if scheduler not in ("ecmp", "pythia"):
        raise ValueError(f"chain experiment supports ecmp/pythia, not {scheduler!r}")

    def _drive(
        sim: Simulator, jobtracker: JobTracker, finish: Callable[[], None]
    ) -> list[JobRun]:
        runs: list[JobRun] = []
        queue = list(specs)

        def _submit_next() -> None:
            runs.append(jobtracker.submit(queue.pop(0), on_complete=_on_done))

        def _on_done(_run: JobRun) -> None:
            if queue:
                _submit_next()
            else:
                finish()

        sim.schedule(0.0, _submit_next)
        return runs

    res = run_jobs(
        _drive,
        specs[0].predicted_overhead,
        scheduler=scheduler,
        ratio=ratio,
        seed=seed,
        pythia_config=pythia_config,
    )
    return ChainResult(
        scheduler=scheduler,
        ratio=ratio,
        iteration_jcts=[run.jct for run in res.jobs],
        total_seconds=float(res.jobs[-1].completed_at),
    )
