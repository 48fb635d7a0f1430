"""Tests for the workload-mix stream experiment."""

import pytest

from repro.core.config import PythiaConfig
from repro.experiments.mix import compare_mix, run_mix
from repro.workloads.mix import JobArrival, synthesize_mix
from repro.workloads.sort import sort_job


def test_synthesize_mix_shape():
    arrivals = synthesize_mix(n_jobs=12, horizon=60.0, seed=3)
    assert len(arrivals) == 12
    times = [a.at for a in arrivals]
    assert times == sorted(times)
    assert all(0 <= t <= 60 for t in times)
    names = {a.spec.name for a in arrivals}
    assert len(names) == 12, "every job gets a unique name"
    kinds = {a.spec.name.split("-")[0] for a in arrivals}
    assert len(kinds) >= 2, "the mix must be heterogeneous"


def test_synthesize_mix_deterministic():
    a = synthesize_mix(n_jobs=6, seed=9)
    b = synthesize_mix(n_jobs=6, seed=9)
    assert [(x.at, x.spec.name, x.spec.input_bytes) for x in a] == [
        (x.at, x.spec.name, x.spec.input_bytes) for x in b
    ]
    c = synthesize_mix(n_jobs=6, seed=10)
    assert [x.at for x in c] != [x.at for x in a]


def test_synthesize_mix_validation():
    with pytest.raises(ValueError):
        synthesize_mix(n_jobs=0)


def test_run_mix_all_jobs_finish():
    arrivals = [
        JobArrival(at=0.0, spec=sort_job(input_gb=1.0, num_reducers=4)),
        JobArrival(at=5.0, spec=sort_job(input_gb=1.5, num_reducers=4)),
    ]
    arrivals[1].spec.name = "sort-b"
    res = run_mix(arrivals, scheduler="ecmp", ratio=None, seed=1)
    assert len(res.jcts) == 2
    assert res.makespan > 0
    assert res.mean_jct > 0


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        run_mix(scheduler="valiant")


def test_mix_pythia_beats_ecmp_under_load():
    res = compare_mix(ratio=10, n_jobs=5, seed=2)
    assert res["pythia"].mean_jct < res["ecmp"].mean_jct
    assert res["pythia"].makespan <= res["ecmp"].makespan * 1.05


def test_staged_pipeline_schedules_like_pythia():
    """The staged pipeline must actually receive the predictions: its
    JCTs equal the monolithic pythia run's, not ECMP's."""
    runs = {
        name: run_mix(synthesize_mix(n_jobs=4, seed=2), scheduler=scheduler,
                      ratio=10, seed=2, pythia_config=cfg)
        for name, scheduler, cfg in (
            ("ecmp", "ecmp", None),
            ("pythia", "pythia", None),
            ("staged", "pythia", PythiaConfig(pipeline_mode="staged")),
        )
    }
    staged, pythia = runs["staged"].jcts, runs["pythia"].jcts
    assert staged.keys() == pythia.keys()
    for job_id, jct in pythia.items():
        assert staged[job_id] == pytest.approx(jct, rel=1e-12)
    assert runs["staged"].mean_jct < runs["ecmp"].mean_jct
