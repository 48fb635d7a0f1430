"""Result-cache unit tests: keys, hit/miss/invalidation, resume."""

import json

import pytest

from repro import obs
from repro.core.config import PythiaConfig
from repro.runner import (
    ResultCache,
    UncacheableCell,
    cell_key,
    canonical,
    run_cells,
    sweep_grid,
)
from repro.runner.sweep import CACHED, EXECUTED
from repro.simnet.topology import leaf_spine, two_rack
from repro.workloads import toy_sort_job


def grid(seeds=(1,)):
    return sweep_grid(toy_sort_job, ("ecmp", "pythia"), (None, 10.0), seeds)


# ----------------------------------------------------------------------
# key anatomy
# ----------------------------------------------------------------------
def test_key_is_stable_across_equal_cells():
    a, b = grid()[0], grid()[0]
    assert a is not b
    assert cell_key(a) == cell_key(b)


def test_key_separates_grid_axes():
    cells = grid(seeds=(1, 2))
    keys = {cell_key(c) for c in cells}
    assert len(keys) == len(cells), "every scheduler/ratio/seed cell gets its own key"


def test_key_covers_config_and_topology():
    cell = grid()[0]
    base = cell_key(cell)
    # None and an explicit default-constructed config are the same run
    assert cell_key(cell, {"pythia_config": PythiaConfig()}) == base
    # ... but any knob change moves the key (config-change invalidation:
    # the old entry is simply never addressed again)
    assert cell_key(cell, {"pythia_config": PythiaConfig(k_paths=2)}) != base
    assert cell_key(cell, {"topology_factory": leaf_spine}) != base
    assert cell_key(cell, {"topology_factory": two_rack}) == base
    assert cell_key(cell, {"netflow_interval": 0.5}) != base


def test_key_resolves_invariants_from_environment(monkeypatch):
    """``invariants=None`` keys on the checking REPRO_INVARIANTS selects,
    so a checked sweep is never served summaries computed unchecked."""
    cell = grid()[0]
    monkeypatch.delenv("REPRO_INVARIANTS", raising=False)
    unchecked = cell_key(cell)
    assert cell_key(cell, {"invariants": False}) == unchecked
    checked = cell_key(cell, {"invariants": True})
    assert checked != unchecked
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    assert cell_key(cell) == checked
    assert cell_key(cell, {"invariants": False}) == unchecked
    monkeypatch.setenv("REPRO_INVARIANTS", "25")
    strided = cell_key(cell)
    monkeypatch.setenv("REPRO_INVARIANTS", "full")
    assert len({unchecked, checked, strided, cell_key(cell)}) == 4


def test_lambda_kwargs_are_uncacheable():
    with pytest.raises(UncacheableCell):
        cell_key(grid()[0], {"fault": lambda sim, topo: None})


def test_canonical_rejects_live_objects():
    with pytest.raises(UncacheableCell):
        canonical(object())


# ----------------------------------------------------------------------
# hit / miss / invalidation / resume
# ----------------------------------------------------------------------
def test_miss_then_hit(tmp_path):
    cells = grid()
    first = run_cells(cells, cache_dir=tmp_path)
    assert (first.cache_hits, first.executed) == (0, len(cells))
    second = run_cells(cells, cache_dir=tmp_path)
    assert (second.cache_hits, second.executed) == (len(cells), 0)
    assert second.hit_rate == 1.0
    assert [s.jct for s in second.summaries] == [s.jct for s in first.summaries]


def test_config_change_misses_old_entries(tmp_path):
    cells = grid()
    run_cells(cells, cache_dir=tmp_path)
    changed = run_cells(
        cells,
        cache_dir=tmp_path,
        run_kwargs={"pythia_config": PythiaConfig(k_paths=2)},
    )
    assert changed.cache_hits == 0 and changed.executed == len(cells)


def test_corrupt_entry_is_invalidated_and_reexecuted(tmp_path):
    cells = grid()
    run_cells(cells, cache_dir=tmp_path)
    victim = ResultCache(tmp_path).path_for(cell_key(cells[0]))
    victim.write_text("{ truncated")
    report = run_cells(cells, cache_dir=tmp_path)
    assert report.invalidations == 1
    assert report.executed == 1
    assert report.cache_hits == len(cells) - 1


def test_version_mismatch_is_invalidated(tmp_path):
    cells = grid()
    run_cells(cells, cache_dir=tmp_path)
    victim = ResultCache(tmp_path).path_for(cell_key(cells[0]))
    stale = json.loads(victim.read_text())
    stale["version"] = 999
    victim.write_text(json.dumps(stale))
    report = run_cells(cells, cache_dir=tmp_path)
    assert report.invalidations == 1 and report.executed == 1


def test_resume_from_partial_manifest(tmp_path):
    cells = grid(seeds=(1, 2))
    # interrupted sweep: only half the grid completed before the "crash"
    partial = run_cells(cells[: len(cells) // 2], cache_dir=tmp_path)
    assert partial.executed == len(cells) // 2
    # re-running the full sweep executes only the missing cells ...
    resumed = run_cells(cells, cache_dir=tmp_path)
    assert resumed.cache_hits == len(cells) // 2
    assert resumed.executed == len(cells) - len(cells) // 2
    # ... and the manifest records how each cell was satisfied
    manifest = json.loads(resumed.manifest_path.read_text())
    statuses = [entry["status"] for entry in manifest["cells"]]
    assert statuses.count(CACHED) == len(cells) // 2
    assert statuses.count(EXECUTED) == len(cells) - len(cells) // 2
    # a rerun of the now-complete sweep bumps the completion count
    done = run_cells(cells, cache_dir=tmp_path)
    assert done.executed == 0
    assert json.loads(done.manifest_path.read_text())["completions"] == 2


def test_obs_counters_track_cache_traffic(tmp_path):
    cells = grid()
    registry = obs.MetricsRegistry()
    with obs.use(registry=registry):
        run_cells(cells, cache_dir=tmp_path)
        run_cells(cells, cache_dir=tmp_path)
    snap = registry.snapshot()
    assert snap["runner.cache_misses"]["value"] == len(cells)
    assert snap["runner.cache_hits"]["value"] == len(cells)
    assert snap["runner.cells_executed"]["value"] == len(cells)


def test_no_cache_dir_always_executes():
    cells = grid()
    report = run_cells(cells)
    assert report.executed == len(cells)
    assert report.manifest_path is None


def test_registry_rejected_across_workers():
    with pytest.raises(ValueError, match="worker boundary"):
        run_cells(grid(), workers=2, run_kwargs={"registry": obs.MetricsRegistry()})
