"""Golden-trace matrix: definition, digest computation, refresh script.

The differential regression suite (``tests/integration/test_golden_traces.py``)
runs a small workload x scheduler x seed matrix and compares each run's
digest — job completion time and total simulator events — against the
committed ``tests/golden/digests.json``.  Any engine change that shifts
either number for any cell shows up as a diff with the exact cell named.

Refreshing after an *intentional* behaviour change::

    PYTHONPATH=src python tests/golden/refresh.py

then inspect ``git diff tests/golden/digests.json`` and commit it
together with the change that explains it.  Never refresh to silence a
diff you cannot explain — that is the regression the suite exists to
catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
FLEET_DIGESTS = HERE / "fleet_digests.json"
NETFLOW_SERIES = HERE / "netflow_series.json"

SCHEDULERS = ("ecmp", "pythia", "hedera")
SEEDS = (1, 2, 3)
WORKLOADS = ("sort", "nutch")

#: the fleet matrix mirrors the solo one at multi-tenant scale: a
#: 2-tenant sort+nutch mix with staggered arrivals under each scheduler.
FLEET_SCHEDULERS = ("ecmp", "pythia")
FLEET_SEEDS = (1, 2)

#: the matrix cell whose NetFlow probe series (the measured curve of
#: Figure 5) is pinned sample by sample.
NETFLOW_CELL = ("sort", "pythia", 1)


def make_spec(workload: str):
    """Small, fast instances of the two paper workloads."""
    from repro.workloads import nutch_indexing_job, sort_job

    if workload == "sort":
        return sort_job(input_gb=1.5, num_reducers=4)
    if workload == "nutch":
        return nutch_indexing_job(pages=1e5, num_reducers=4)
    raise ValueError(workload)


def cell_key(workload: str, scheduler: str, seed: int) -> str:
    return f"{workload}/{scheduler}/seed{seed}"


def run_cell(workload: str, scheduler: str, seed: int) -> dict:
    """One matrix cell -> its digest."""
    from repro.experiments.common import run_experiment

    res = run_experiment(
        make_spec(workload), scheduler=scheduler, ratio=10.0, seed=seed
    )
    return {
        "jct_seconds": res.jct,
        "events_processed": res.sim.events_processed,
    }


def run_netflow_cell() -> dict[str, dict]:
    """The pinned cell's sampled NetFlow series, per sourcing server."""
    from repro.experiments.common import run_experiment

    workload, scheduler, seed = NETFLOW_CELL
    res = run_experiment(make_spec(workload), scheduler=scheduler, ratio=10.0, seed=seed)
    out = {}
    for server in res.netflow.servers():
        times, values = res.netflow.series(server)
        out[server] = {"times": times.tolist(), "values": values.tolist()}
    return out


def make_fleet_workload():
    """The golden 2-tenant sort+nutch mix with staggered arrivals."""
    from repro.workloads import (
        ClusterJob,
        ClusterWorkload,
        Tenant,
        nutch_indexing_job,
        sort_job,
    )

    return ClusterWorkload(
        name="golden-fleet",
        jobs=[
            ClusterJob(key=0, tenant="prod", at=0.0,
                       spec=sort_job(input_gb=1.0, num_reducers=4)),
            ClusterJob(key=1, tenant="adhoc", at=5.0,
                       spec=nutch_indexing_job(pages=1e5, num_reducers=4)),
            ClusterJob(key=2, tenant="prod", at=12.0,
                       spec=sort_job(input_gb=0.5, num_reducers=4)),
        ],
        tenants=[Tenant(name="prod", weight=2.0), Tenant(name="adhoc")],
    )


def fleet_cell_key(scheduler: str, seed: int) -> str:
    return f"fleet/{scheduler}/seed{seed}"


def run_fleet_cell(scheduler: str, seed: int) -> dict:
    """One fleet matrix cell -> its digest (per-job JCTs + event count)."""
    from repro.experiments.common import run_cluster_experiment

    res = run_cluster_experiment(
        make_fleet_workload(),
        scheduler=scheduler,
        ratio=10.0,
        seed=seed,
        isolated_baselines=False,
    )
    return {
        "jct_seconds": {run.job_id: run.jct for run in res.jobs},
        "events_processed": res.sim.events_processed,
    }


def compute_digests() -> dict[str, dict]:
    """Run the full matrix."""
    out: dict[str, dict] = {}
    for workload in WORKLOADS:
        for scheduler in SCHEDULERS:
            for seed in SEEDS:
                out[cell_key(workload, scheduler, seed)] = run_cell(
                    workload, scheduler, seed
                )
    return out


def compute_fleet_digests() -> dict[str, dict]:
    """Run the fleet matrix."""
    return {
        fleet_cell_key(scheduler, seed): run_fleet_cell(scheduler, seed)
        for scheduler in FLEET_SCHEDULERS
        for seed in FLEET_SEEDS
    }


def load_digests() -> dict[str, dict]:
    return json.loads(DIGESTS.read_text())


def load_fleet_digests() -> dict[str, dict]:
    return json.loads(FLEET_DIGESTS.read_text())


def load_netflow_series() -> dict[str, dict]:
    return json.loads(NETFLOW_SERIES.read_text())


def main() -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    digests = compute_digests()
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    fleet = compute_fleet_digests()
    FLEET_DIGESTS.write_text(json.dumps(fleet, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fleet)} fleet digests to {FLEET_DIGESTS}")
    series = run_netflow_cell()
    NETFLOW_SERIES.write_text(json.dumps(series, sort_keys=True) + "\n")
    print(f"wrote the NetFlow series of {len(series)} servers to {NETFLOW_SERIES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
