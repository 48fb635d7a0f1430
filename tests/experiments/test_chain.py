"""Tests for the chained-job (PageRank) experiment."""

import pytest

from repro.core.config import PythiaConfig
from repro.experiments.chain import run_chain
from repro.workloads.pagerank import pagerank_chain


def test_pagerank_chain_specs():
    chain = pagerank_chain(graph_gb=2.0, iterations=3)
    assert len(chain) == 3
    assert [s.name for s in chain] == [f"pagerank-iter{i}" for i in range(3)]
    spec = chain[0]
    assert spec.map_output_ratio > 1.0
    assert spec.reducer_weights[0] > spec.reducer_weights[-1]  # hub skew
    with pytest.raises(ValueError):
        pagerank_chain(iterations=0)


def test_chain_runs_sequentially():
    chain = pagerank_chain(graph_gb=1.0, iterations=3, num_reducers=8)
    res = run_chain(chain, scheduler="ecmp", ratio=None, seed=1)
    assert len(res.iteration_jcts) == 3
    assert res.total_seconds >= sum(res.iteration_jcts) * 0.99


def test_chain_validation():
    with pytest.raises(ValueError):
        run_chain([])
    with pytest.raises(ValueError):
        run_chain(pagerank_chain(iterations=1), scheduler="hedera")


def test_chain_savings_compound_under_load():
    chain_len = 3
    totals = {}
    for scheduler in ("ecmp", "pythia"):
        chain = pagerank_chain(graph_gb=2.0, iterations=chain_len, num_reducers=10)
        totals[scheduler] = run_chain(chain, scheduler=scheduler, ratio=10, seed=1)
    saving_total = totals["ecmp"].total_seconds - totals["pythia"].total_seconds
    per_iter = [
        e - p
        for e, p in zip(totals["ecmp"].iteration_jcts, totals["pythia"].iteration_jcts)
    ]
    assert saving_total > 0, "pythia must win over the chain"
    # savings accrue in (almost) every iteration, not one lucky round
    assert sum(1 for s in per_iter if s > 0) >= chain_len - 1
    assert saving_total == pytest.approx(sum(per_iter), rel=0.05)


def test_staged_pipeline_schedules_like_pythia():
    """The staged pipeline must actually receive the predictions."""
    res = {
        name: run_chain(pagerank_chain(iterations=2), scheduler=scheduler,
                        ratio=10, seed=1, pythia_config=cfg)
        for name, scheduler, cfg in (
            ("ecmp", "ecmp", None),
            ("pythia", "pythia", None),
            ("staged", "pythia", PythiaConfig(pipeline_mode="staged")),
        )
    }
    assert res["staged"].iteration_jcts == pytest.approx(
        res["pythia"].iteration_jcts, rel=1e-12
    )
    assert res["staged"].total_seconds < res["ecmp"].total_seconds


def test_controller_timings_reach_the_controller():
    """A non-default rule-install latency changes the chain's outcome."""
    default = run_chain(pagerank_chain(iterations=2), ratio=10, seed=1)
    slow = run_chain(pagerank_chain(iterations=2), ratio=10, seed=1,
                     pythia_config=PythiaConfig(per_rule_latency=0.05))
    assert slow.iteration_jcts != default.iteration_jcts
