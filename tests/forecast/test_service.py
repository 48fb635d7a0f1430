"""ForecastService: stats-stream ingestion, staleness fallback, gap reset."""

import numpy as np
import pytest

from repro.forecast.models import ARForecaster, make_forecaster
from repro.forecast.service import ForecastService
from repro.sdn.stats_service import LinkStatsService
from repro.simnet.engine import Simulator
from repro.simnet.flows import UDP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.simnet.topology import two_rack


def build(mode="ar", horizon=2.0, stale_after=None, period=1.0):
    sim = Simulator()
    topo = two_rack()
    net = Network(sim, topo)
    stats = LinkStatsService(sim, net, period=period, alpha=1.0)
    forecaster = make_forecaster(mode, nlinks=len(topo.links), period=period)
    service = ForecastService(
        stats, forecaster, horizon=horizon, stale_after=stale_after
    )
    return sim, topo, net, stats, service


def start_cbr(net, topo, rate=50e6, sport=50000):
    bg = Flow(
        src="bg0",
        dst="bg1",
        size=None,
        five_tuple=FiveTuple("10.0.250", "10.1.250", sport, 5001, UDP),
        rigid_rate=rate,
    )
    net.start_flow(bg, topo.path_links(["bg0", "tor0", "trunk0", "tor1", "bg1"]))
    return bg


def trunk_lid(topo):
    return [l for l in topo.links if l.src == "tor0" and l.dst == "trunk0"][0].lid


def test_horizon_must_be_positive():
    sim = Simulator()
    topo = two_rack()
    net = Network(sim, topo)
    stats = LinkStatsService(sim, net)
    with pytest.raises(ValueError):
        ForecastService(stats, ARForecaster(nlinks=len(topo.links)), horizon=0.0)


def test_stale_after_defaults_to_three_periods():
    _sim, _topo, _net, stats, service = build(period=0.5)
    assert service.stale_after == pytest.approx(1.5)


def test_cold_start_degrades_to_measured():
    _sim, _topo, _net, stats, service = build()
    assert service.degraded()  # no samples yet
    np.testing.assert_allclose(service.predict_background(), stats.background_load_array())
    assert service.stale_fallbacks == 1


def test_constant_load_prediction_matches_measured():
    sim, topo, net, stats, service = build()
    start_cbr(net, topo, rate=50e6)
    stats.start()
    sim.run(until=9.5)  # AR(3) is ready after 2p + 2 = 8 polls
    assert not service.degraded()
    lid = trunk_lid(topo)
    pred = service.predict_background()
    assert pred[lid] == pytest.approx(50e6, rel=1e-3)
    assert service.predictions >= 1
    assert service.stale_fallbacks == 0


def test_predictions_are_clipped_at_zero():
    sim, topo, net, stats, service = build()
    steps = [start_cbr(net, topo, rate=20e6, sport=50000 + i) for i in range(4)]
    stats.start()
    sim.run(until=8.5)
    for bg in steps[:2]:  # 80 -> 60 -> 40 MB/s: a falling staircase
        net.stop_flow(bg)
        sim.run(until=sim.now + 1.0)
    assert not service.degraded()
    lid = trunk_lid(topo)
    assert service.forecaster.predict(service.horizon)[lid] < 0.0  # overshoot
    assert (service.predict_background() >= 0.0).all()


def test_staleness_degrades_and_recovers():
    sim, topo, net, stats, service = build(stale_after=2.0)
    start_cbr(net, topo)
    stats.start()
    sim.run(until=8.5)
    assert not service.degraded()
    stats.freeze()
    sim.run(until=13.5)  # staleness grows past stale_after while frozen
    assert service.degraded()
    before = stats.background_load_array()
    np.testing.assert_allclose(service.predict_background(), before)
    assert service.stale_fallbacks >= 1
    stats.unfreeze()
    sim.run(until=14.5)  # fresh stats, but the gap emptied AR's window
    assert service.degraded()
    sim.run(until=21.5)  # eight thawed samples re-warm it
    assert not service.degraded()


def test_frozen_gap_resets_forecaster_trend():
    sim, topo, net, stats, service = build()
    start_cbr(net, topo)
    stats.start()
    sim.run(until=8.5)
    forecaster = service.forecaster
    assert forecaster.ready()
    stats.freeze()
    sim.run(until=11.5)
    stats.unfreeze()
    sim.run(until=12.5)  # first thawed sample carries gap > 0
    assert service.gap_resets == 1
    # the pre-gap window is gone: only the thawed sample is in the fit
    assert forecaster._count == 1
    assert not forecaster.ready()


def test_mae_scores_matured_predictions():
    sim, topo, net, stats, service = build(horizon=2.0)
    start_cbr(net, topo, rate=50e6)
    stats.start()
    sim.run(until=15.5)
    # constant load: matured predictions should be near-perfect
    assert service.evaluations >= 5
    assert service.mae() < 1e6
    snap = service.snapshot()
    assert snap["forecast_mode"] == "ar"
    assert snap["forecast_evaluations"] == service.evaluations


def test_gap_clears_pending_evaluations():
    # EWMA stays ready across the reset, so a post-gap prediction is
    # filed while the pre-gap ones must be gone.
    sim, topo, net, stats, service = build(mode="ewma", horizon=5.0)
    start_cbr(net, topo)
    stats.start()
    sim.run(until=3.5)
    assert len(service._pending) > 0
    stats.freeze()
    sim.run(until=6.5)
    stats.unfreeze()
    sim.run(until=7.5)
    # predictions filed before the gap must not be scored against
    # post-gap measurements
    assert service._pending
    assert all(t > 7.5 for t, _ in service._pending)


def test_metrics_registered(tmp_path):
    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.use(registry=registry):
        sim, topo, net, stats, service = build()
        start_cbr(net, topo)
        stats.start()
        sim.run(until=4.5)
    snap = registry.snapshot()
    assert snap["forecast.predictions"]["value"] >= 0
    assert "forecast.mae_bytes" in snap
    assert snap["forecast.horizon_seconds"]["value"] == pytest.approx(2.0)
