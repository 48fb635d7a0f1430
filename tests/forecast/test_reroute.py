"""ProactiveRerouter: moves elephants off forecast-hot links."""

import numpy as np
import pytest

from repro.forecast.models import make_forecaster
from repro.forecast.reroute import ProactiveRerouter
from repro.forecast.service import ForecastService
from repro.sdn.stats_service import LinkStatsService
from repro.sdn.topology_service import TopologyService
from repro.simnet.engine import Simulator
from repro.simnet.flows import TCP, UDP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.simnet.topology import two_rack


def build(threshold=0.85, margin=0.05, cooldown=2.0, min_bytes=8e6, mode="ewma", **fc_kwargs):
    sim = Simulator()
    topo = two_rack()
    net = Network(sim, topo)
    stats = LinkStatsService(sim, net, period=0.5, alpha=1.0)
    forecaster = make_forecaster(mode, nlinks=len(topo.links), period=0.5)
    forecast = ForecastService(stats, forecaster, horizon=1.0, **fc_kwargs)
    rerouter = ProactiveRerouter(
        net,
        stats,
        forecast,
        TopologyService(topo, k=4),
        threshold=threshold,
        margin=margin,
        pause=0.05,
        min_remaining_bytes=min_bytes,
        cooldown=cooldown,
    )
    return sim, topo, net, stats, forecast, rerouter


def start_background(net, topo, rate, path_index=0, sport=50000):
    trunk = f"trunk{path_index}"
    bg = Flow(
        src="bg0",
        dst="bg1",
        size=None,
        five_tuple=FiveTuple("10.0.250", "10.1.250", sport, 5001, UDP),
        rigid_rate=rate,
    )
    net.start_flow(bg, topo.path_links(["bg0", "tor0", trunk, "tor1", "bg1"]))
    return bg


def start_elephant(net, topo, size=800e6, path_index=0):
    trunk = f"trunk{path_index}"
    flow = Flow(
        src="h00",
        dst="h10",
        size=size,
        five_tuple=FiveTuple("10.0.0", "10.1.0", 50060, 42000, TCP),
    )
    net.start_flow(flow, topo.path_links(["h00", "tor0", trunk, "tor1", "h10"]))
    return flow


def trunk_lid(topo, path_index):
    trunk = f"trunk{path_index}"
    return [l for l in topo.links if l.src == "tor0" and l.dst == trunk][0].lid


def test_moves_elephant_off_forecast_hot_link():
    sim, topo, net, stats, forecast, rerouter = build()
    start_background(net, topo, rate=110e6, path_index=0)  # 88% of trunk0
    elephant = start_elephant(net, topo, path_index=0)
    stats.start()
    sim.run(until=3.0)
    assert rerouter.reroutes >= 1
    # the elephant now rides the cool trunk1
    assert trunk_lid(topo, 1) in elephant.path
    assert trunk_lid(topo, 0) not in elephant.path


def test_no_reroute_below_threshold():
    # An elastic elephant expands to fill its trunk, so with the default
    # 0.85 threshold its path is always "hot"; raising the threshold
    # above the achievable utilisation must silence the rerouter.
    sim, topo, net, stats, forecast, rerouter = build(threshold=1.2)
    start_background(net, topo, rate=40e6, path_index=0)
    elephant = start_elephant(net, topo, path_index=0)
    original = list(elephant.path)
    stats.start()
    sim.run(until=3.0)
    assert rerouter.reroutes == 0
    assert list(elephant.path) == original


def test_degraded_forecast_skips_rerouting():
    sim, topo, net, stats, forecast, rerouter = build(stale_after=0.6)
    start_background(net, topo, rate=110e6, path_index=0)
    elephant = start_elephant(net, topo, path_index=0)
    stats.start()
    sim.run(until=1.2)  # warm-up may legitimately move the elephant once
    moves_before = rerouter.reroutes
    path_before = list(elephant.path)
    stats.freeze()
    # frozen polls skip entirely: hooks never fire, so the rerouter
    # cannot act on a stale forecast even indirectly
    sim.run(until=4.0)
    assert rerouter.reroutes == moves_before
    assert list(elephant.path) == path_before
    # thaw: the first folded sample carries a gap, so the forecaster's
    # cross-gap trend is discarded before the rerouter runs again
    stats.unfreeze()
    sim.run(until=4.6)
    assert forecast.gap_resets == 1


def test_cold_start_skips_until_forecaster_ready():
    # AR(3) needs 2p + 2 = 8 folded samples; the rerouter must count a
    # stale skip on each of the first seven polls rather than act on a
    # cold forecaster.
    sim, topo, net, stats, forecast, rerouter = build(mode="ar")
    start_background(net, topo, rate=110e6, path_index=0)
    start_elephant(net, topo, path_index=0)
    stats.start()
    sim.run(until=3.6)  # seven polls at 0.5 s
    assert rerouter.skipped_stale == 7
    assert rerouter.reroutes == 0
    sim.run(until=6.0)  # warmed up: proactive moves resume
    assert rerouter.reroutes >= 1


def test_small_flows_are_left_alone():
    sim, topo, net, stats, forecast, rerouter = build(min_bytes=8e6)
    start_background(net, topo, rate=110e6, path_index=0)
    mouse = start_elephant(net, topo, size=2e6, path_index=0)
    stats.start()
    sim.run(until=1.6)
    # the mouse either finished or was never a reroute candidate
    assert rerouter.reroutes == 0


def test_background_rigid_flows_never_move():
    sim, topo, net, stats, forecast, rerouter = build()
    bg = start_background(net, topo, rate=115e6, path_index=0)
    original = list(bg.path)
    stats.start()
    sim.run(until=3.0)
    assert list(bg.path) == original


def test_cooldown_limits_reroute_rate():
    # both trunks hot: every pass wants to move the elephant, but the
    # cooldown allows at most one move per 10 s window
    sim, topo, net, stats, forecast, rerouter = build(
        threshold=0.5, margin=0.0, cooldown=10.0
    )
    start_background(net, topo, rate=80e6, path_index=0)
    start_background(net, topo, rate=78e6, path_index=1, sport=50001)
    start_elephant(net, topo, size=5e9, path_index=0)
    stats.start()
    sim.run(until=5.0)
    assert rerouter.reroutes <= 1


def test_margin_hysteresis_blocks_marginal_moves():
    # trunk1 is barely cooler than trunk0: without margin the elephant
    # would bounce, with a wide margin it stays put
    sim, topo, net, stats, forecast, rerouter = build(threshold=0.6, margin=0.5)
    start_background(net, topo, rate=90e6, path_index=0)
    start_background(net, topo, rate=85e6, path_index=1, sport=50001)
    elephant = start_elephant(net, topo, size=5e9, path_index=0)
    original = list(elephant.path)
    stats.start()
    sim.run(until=3.0)
    assert rerouter.reroutes == 0
    assert list(elephant.path) == original


def test_reroute_counters_registered():
    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.use(registry=registry):
        sim, topo, net, stats, forecast, rerouter = build()
        start_background(net, topo, rate=110e6, path_index=0)
        start_elephant(net, topo, path_index=0)
        stats.start()
        sim.run(until=3.0)
    snap = registry.snapshot()
    assert snap["forecast.reroutes"]["value"] == rerouter.reroutes >= 1
    assert snap["forecast.hot_links"]["high_water"] >= 1
