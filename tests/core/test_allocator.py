"""Unit tests for the bin-packing path allocators."""

import numpy as np
import pytest

from repro.core.aggregation import AggregateEntry
from repro.core.allocator import make_allocator
from repro.core.routing import RoutingGraph
from repro.sdn.stats_service import LinkStatsService
from repro.sdn.topology_service import TopologyService
from repro.simnet.engine import Simulator
from repro.simnet.flows import UDP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.simnet.topology import two_rack


def build(kind="first_fit", horizon=10.0, ordering="criticality"):
    sim = Simulator()
    topo = two_rack()
    net = Network(sim, topo)
    stats = LinkStatsService(sim, net, period=0.5, alpha=1.0)
    routing = RoutingGraph(TopologyService(topo, k=4))
    alloc = make_allocator(
        kind, sim, routing, stats, net, demand_horizon=horizon, ordering=ordering
    )
    return sim, topo, net, stats, alloc


def entry(src, dst, nbytes):
    e = AggregateEntry(key=(src, dst))
    e.add(src, dst, map_id=0, reducer_id=0, nbytes=nbytes)
    return e


def trunk_of(topo, path):
    return topo.path_nodes(path)[2]


def load_trunk0(sim, topo, net, stats, rate=100e6):
    bg = Flow(
        src="bg0",
        dst="bg1",
        size=None,
        five_tuple=FiveTuple("10.0.250", "10.1.250", 50000, 5001, UDP),
        rigid_rate=rate,
    )
    net.start_flow(bg, topo.path_links(["bg0", "tor0", "trunk0", "tor1", "bg1"]))
    stats.start()
    sim.run(until=2.0)
    stats.stop()
    return bg


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build(kind="nope")


def test_avoids_background_loaded_trunk():
    sim, topo, net, stats, alloc = build()
    load_trunk0(sim, topo, net, stats)
    [(e, path)] = alloc.allocate([entry("h00", "h10", 100e6)])
    assert trunk_of(topo, path) == "trunk1"
    assert e.path == path
    assert e.allocated_at == sim.now


def test_spreads_load_when_paths_equal():
    sim, topo, net, stats, alloc = build()
    entries = [entry("h00", "h10", 100e6), entry("h01", "h11", 100e6)]
    result = alloc.allocate(entries)
    trunks = {trunk_of(topo, path) for _, path in result}
    assert trunks == {"trunk0", "trunk1"}, "equal paths: entries must spread"


def test_largest_entry_allocated_first():
    sim, topo, net, stats, alloc = build()
    small = entry("h00", "h10", 1e6)
    big = entry("h01", "h11", 500e6)
    result = alloc.allocate([small, big])
    assert result[0][0] is big


def test_incremental_bytes_not_double_planned():
    sim, topo, net, stats, alloc = build()
    e = entry("h00", "h10", 100e6)
    alloc.allocate([e])
    planned_after_first = alloc.planned_load().max()
    e.add("h00", "h10", map_id=1, reducer_id=0, nbytes=50e6)
    alloc.allocate([e])
    assert alloc.planned_load().max() == pytest.approx(planned_after_first + 50e6)


def test_planned_bytes_expire():
    sim, topo, net, stats, alloc = build(horizon=5.0)
    alloc.allocate([entry("h00", "h10", 100e6)])
    assert alloc.planned_load().max() > 0
    sim.run(until=6.0)
    assert alloc.planned_load().max() == pytest.approx(0.0)


def test_in_flight_bytes_steer_new_entries():
    sim, topo, net, stats, alloc = build()
    f = Flow(
        src="h00",
        dst="h10",
        size=400e6,
        five_tuple=FiveTuple("10.0.0", "10.1.0", 50060, 42000, 6),
    )
    net.start_flow(f, topo.path_links(["h00", "tor0", "trunk0", "tor1", "h10"]))
    [(e, path)] = alloc.allocate([entry("h01", "h11", 100e6)])
    assert trunk_of(topo, path) == "trunk1"
    sim.run()


def test_best_fit_prefers_tightest_fitting_path():
    sim, topo, net, stats, alloc = build(kind="best_fit")
    load_trunk0(sim, topo, net, stats, rate=50e6)  # trunk0: 75MB/s residual
    # small demand fits both: best-fit takes the tighter trunk0
    [(e, path)] = alloc.allocate([entry("h00", "h10", 10e6)])
    assert trunk_of(topo, path) == "trunk0"


def test_water_filling_balances():
    sim, topo, net, stats, alloc = build(kind="water_filling")
    entries = [entry(f"h0{i}", f"h1{i}", 100e6) for i in range(4)]
    result = alloc.allocate(entries)
    trunks = [trunk_of(topo, p) for _, p in result]
    assert trunks.count("trunk0") == 2 and trunks.count("trunk1") == 2


def test_water_filling_choose_rotates_ties():
    """Regression: the claimed round-robin tie-break deterministically
    returned the first sorted index, piling equal-ETA entries onto one
    path."""
    sim, topo, net, stats, alloc = build(kind="water_filling")
    paths = [np.array([0]), np.array([1]), np.array([2])]
    picks = [
        alloc._choose(paths, [100.0, 100.0, 100.0], [0.0, 0.0, 0.0], 10.0)
        for _ in range(6)
    ]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_water_filling_spreads_already_planned_entries():
    """Re-allocation rounds (delta = 0) keep every ETA exactly tied, so
    only the rotation spreads the entries across the trunks."""
    sim, topo, net, stats, alloc = build(kind="water_filling")
    entries = [entry("h00", "h10", 10e6) for _ in range(4)]
    for e in entries:
        e._planned_bytes = e.predicted_bytes  # bytes claimed in an earlier round
    trunks = [trunk_of(topo, path) for _, path in alloc.allocate(entries)]
    assert set(trunks) == {"trunk0", "trunk1"}
    assert trunks.count("trunk0") == 2 and trunks.count("trunk1") == 2


def test_skips_entry_with_no_path():
    sim, topo, net, stats, alloc = build()
    topo.fail_cable("tor0", "trunk0")
    topo.fail_cable("tor0", "trunk1")
    out = alloc.allocate([entry("h00", "h10", 1e6)])
    assert out == []


def test_arrival_ordering_is_fifo():
    sim, topo, net, stats, alloc = build(ordering="arrival")
    small = entry("h00", "h10", 1e6)
    big = entry("h01", "h11", 500e6)
    result = alloc.allocate([small, big])
    assert [e for e, _ in result] == [small, big]


def test_criticality_vs_arrival_differ_on_same_input():
    _, _, _, _, crit = build()
    _, _, _, _, fifo = build(ordering="arrival")
    entries = lambda: [entry("h00", "h10", 1e6), entry("h01", "h11", 500e6)]  # noqa: E731
    crit_order = [e.predicted_bytes for e, _ in crit.allocate(entries())]
    fifo_order = [e.predicted_bytes for e, _ in fifo.allocate(entries())]
    assert crit_order == [500e6, 1e6]
    assert fifo_order == [1e6, 500e6]


def test_pathless_entry_does_not_corrupt_planned_state():
    """The skip branch must leave `_planned` untouched for the dropped
    entry and must not claim its bytes, so a later round (after repair)
    can still place them."""
    sim, topo, net, stats, alloc = build()
    topo.fail_cable("tor0", "trunk0")
    topo.fail_cable("tor0", "trunk1")
    stranded = entry("h00", "h10", 7e6)
    local = entry("h01", "h02", 3e6)  # same-rack pair keeps its path
    result = alloc.allocate([stranded, local])
    assert [e for e, _ in result] == [local]
    assert alloc.allocations == 1
    assert alloc.planned_load().sum() == pytest.approx(3e6 * 2)  # 2 links
    assert not hasattr(stranded, "_planned_bytes"), "skipped entry claimed bytes"
    # repair: the stranded entry's full volume is still allocatable
    topo.restore_cable("tor0", "trunk0")
    [(e, path)] = alloc.allocate([stranded])
    assert e is stranded
    assert alloc.planned_load().max() == pytest.approx(7e6)


class _StubForecast:
    """Minimal ForecastService stand-in: a fixed predicted-load array."""

    def __init__(self, predicted):
        self.predicted = np.asarray(predicted, dtype=float)
        self.calls = 0

    def predict_background(self, horizon=None):
        self.calls += 1
        return self.predicted.copy()


def test_water_filling_without_forecast_is_unchanged():
    """A forecast only moves the residuals: when it agrees with the
    measured load, water-filling places exactly as it does without
    one (the tie-break is the same rotation either way)."""

    def placements(with_forecast):
        sim, topo, net, stats, alloc = build(kind="water_filling")
        if with_forecast:
            alloc.forecast = _StubForecast(stats.background_load_array())
        entries = [entry(f"h0{i}", f"h1{i}", 10e6) for i in range(4)]
        return [trunk_of(topo, path) for _, path in alloc.allocate(entries)]

    assert placements(True) == placements(False)
    assert sorted(placements(True)) == ["trunk0", "trunk0", "trunk1", "trunk1"]


def test_allocator_scores_against_forecast_not_ewma():
    """The measured EWMA sees both trunks idle, but the forecast says
    trunk0 is about to saturate: the allocator must avoid it."""
    sim, topo, net, stats, alloc = build()
    t0 = [l for l in topo.links if l.src == "tor0" and l.dst == "trunk0"][0]
    predicted = np.zeros(len(topo.links))
    predicted[t0.lid] = 120e6  # trunk0 forecast ~96% occupied
    forecast = _StubForecast(predicted)
    alloc.forecast = forecast
    [(e, path)] = alloc.allocate([entry("h00", "h10", 100e6)])
    assert trunk_of(topo, path) == "trunk1"
    assert forecast.calls == 1
