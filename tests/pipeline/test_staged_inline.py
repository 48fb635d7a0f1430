"""Integration: the staged pipeline inline in the simulator.

The staged path must produce the same scheduling outcome as the
monolithic chain for an identical run, conserve every accepted intent,
and survive a controller outage mid-run without losing or
double-installing rules.
"""

import pytest

from repro.core.config import PythiaConfig
from repro.experiments.common import run_experiment
from repro.faults import ChaosSchedule, ControllerOutage
from repro.workloads import sort_job


def _run(pipeline_mode, chaos=None, **cfg):
    return run_experiment(
        sort_job(input_gb=2.0, num_reducers=4),
        scheduler="pythia",
        ratio=10.0,
        seed=1,
        pythia_config=PythiaConfig(pipeline_mode=pipeline_mode, **cfg),
        invariants=chaos is not None,
        chaos=chaos,
    )


def test_staged_matches_monolithic_outcome():
    off = _run("off")
    staged = _run("staged")
    assert staged.jct == pytest.approx(off.jct, rel=1e-12)
    assert (
        staged.policy_stats["rules_installed"]
        == off.policy_stats["rules_installed"]
    )
    snap = staged.policy_stats["pipeline"]
    assert snap["backlog"] == 0
    assert snap["intents_in"] > 0
    assert (
        snap["intents_in"]
        == snap["intents_installed"] + snap["intents_coalesced"]
    )
    assert snap["double_installs"] == 0
    assert snap["overflow"] == 0
    # off mode records no pipeline section at all
    assert "pipeline" not in off.policy_stats


def test_staged_single_shard_also_conserves():
    staged = _run("staged", pipeline_shards=1, pipeline_coalesce=False)
    snap = staged.policy_stats["pipeline"]
    assert snap["intents_coalesced"] == 0
    assert snap["intents_in"] == snap["intents_installed"]
    assert snap["backlog"] == 0


def test_staged_small_queues_backpressure_but_still_drain():
    staged = _run(
        "staged", pipeline_queue_capacity=4, pipeline_batch_max=4
    )
    snap = staged.policy_stats["pipeline"]
    assert (
        snap["intents_in"]
        == snap["intents_installed"] + snap["intents_coalesced"]
    )
    assert snap["backlog"] == 0
    assert snap["double_installs"] == 0


@pytest.mark.parametrize("down", [5.0, 20.0])
def test_staged_controller_outage_conserves_intents(down):
    res = _run(
        "staged",
        chaos=lambda _topo: ChaosSchedule(
            [ControllerOutage(at=1.0, down=down)], seed=0
        ),
    )
    assert res.run.completed_at is not None
    assert res.invariants["violations"] == 0
    assert res.policy_stats["crashes"] == 1
    snap = res.policy_stats["pipeline"]
    assert snap["backlog"] == 0
    assert snap["in_flight"] == 0
    assert (
        snap["intents_in"]
        == snap["intents_installed"] + snap["intents_coalesced"]
    )
    assert snap["double_installs"] == 0
    assert res.controller.programmer.pending_installs == 0
