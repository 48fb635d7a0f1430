"""Differential golden-trace regression suite.

Each cell of a small workload x scheduler x seed matrix is re-run and
its digest (JCT, total simulator events) compared against the committed
``tests/golden/digests.json``.  JCT must match to relative 1e-9 (the
engine is deterministic; the tolerance only absorbs cross-platform
libm noise) and the event count must match exactly.

After an intentional engine change, refresh with::

    PYTHONPATH=src python tests/golden/refresh.py

and commit the diff alongside the change that explains it.
"""

import pytest

from repro.simnet.flows import Flow
from repro.simnet.netflow import NetFlowCollector
from tests.golden.refresh import (
    FLEET_SCHEDULERS,
    FLEET_SEEDS,
    SCHEDULERS,
    SEEDS,
    WORKLOADS,
    cell_key,
    fleet_cell_key,
    load_digests,
    load_fleet_digests,
    load_netflow_series,
    run_cell,
    run_fleet_cell,
    run_netflow_cell,
)

_MATRIX = [
    (w, s, seed) for w in WORKLOADS for s in SCHEDULERS for seed in SEEDS
]

_FLEET_MATRIX = [(s, seed) for s in FLEET_SCHEDULERS for seed in FLEET_SEEDS]


@pytest.fixture(scope="module")
def golden():
    return load_digests()


def test_digests_cover_the_whole_matrix():
    golden = load_digests()
    assert sorted(golden) == sorted(cell_key(*cell) for cell in _MATRIX)


@pytest.mark.parametrize(
    "workload,scheduler,seed", _MATRIX, ids=[cell_key(*c) for c in _MATRIX]
)
def test_golden_trace(golden, workload, scheduler, seed):
    key = cell_key(workload, scheduler, seed)
    expected = golden[key]
    actual = run_cell(workload, scheduler, seed)
    assert actual["events_processed"] == expected["events_processed"], (
        f"{key}: event count drifted — if intentional, refresh with "
        f"`PYTHONPATH=src python tests/golden/refresh.py`"
    )
    assert actual["jct_seconds"] == pytest.approx(
        expected["jct_seconds"], rel=1e-9
    ), f"{key}: JCT drifted"


@pytest.fixture(scope="module")
def fleet_golden():
    return load_fleet_digests()


def test_fleet_digests_cover_the_whole_matrix():
    golden = load_fleet_digests()
    assert sorted(golden) == sorted(fleet_cell_key(*cell) for cell in _FLEET_MATRIX)


@pytest.mark.parametrize(
    "scheduler,seed", _FLEET_MATRIX, ids=[fleet_cell_key(*c) for c in _FLEET_MATRIX]
)
def test_fleet_golden_trace(fleet_golden, scheduler, seed):
    """The 2-tenant sort+nutch mix replays bit-identically per job."""
    key = fleet_cell_key(scheduler, seed)
    expected = fleet_golden[key]
    actual = run_fleet_cell(scheduler, seed)
    assert actual["events_processed"] == expected["events_processed"], (
        f"{key}: event count drifted — if intentional, refresh with "
        f"`PYTHONPATH=src python tests/golden/refresh.py`"
    )
    assert sorted(actual["jct_seconds"]) == sorted(expected["jct_seconds"])
    for job_id, jct in expected["jct_seconds"].items():
        assert actual["jct_seconds"][job_id] == pytest.approx(jct, rel=1e-9), (
            f"{key}: JCT of {job_id} drifted"
        )


def test_netflow_series_golden():
    """The Figure 5 probe series: same sample instants, same values.

    Times and sample counts must match exactly (the probe samples at
    flow events and ticks, so a moved sample means a changed schedule);
    values to rel 1e-12, which only admits a different float summation
    order of the same per-flow byte counters.
    """
    expected = load_netflow_series()
    actual = run_netflow_cell()
    assert sorted(actual) == sorted(expected)
    for server, exp in expected.items():
        act = actual[server]
        assert act["times"] == exp["times"], f"{server}: sample instants drifted"
        assert act["values"] == pytest.approx(exp["values"], rel=1e-12, abs=0.0), (
            f"{server}: sampled cumulative bytes drifted"
        )


def test_netflow_sample_reads_only_live_flows(monkeypatch):
    """Each NetFlow sample reads at most one byte counter per live shuffle flow."""
    reads = [0]
    counting = [False]
    checked = []
    bytes_sent = Flow.bytes_sent

    def counted(flow):
        if counting[0] and flow.is_shuffle():
            reads[0] += 1
        return bytes_sent.fget(flow)

    sample = NetFlowCollector._sample

    def audited(collector):
        live = sum(1 for f in collector.network.archive if f.active and f.is_shuffle())
        reads[0] = 0
        counting[0] = True
        try:
            sample(collector)
        finally:
            counting[0] = False
        checked.append((reads[0], live))

    monkeypatch.setattr(Flow, "bytes_sent", property(counted, bytes_sent.fset))
    monkeypatch.setattr(NetFlowCollector, "_sample", audited)
    run_netflow_cell()
    assert len(checked) > 100, f"only {len(checked)} samples — cell too small to gate"
    over = [(r, live) for r, live in checked if r > live]
    assert not over, f"{len(over)} samples read more counters than live flows, e.g. {over[0]}"
