"""Unit tests for PythiaScheduler and PythiaPolicy wiring."""

import numpy as np
import pytest

from repro.core.config import PythiaConfig
from repro.core.scheduler import PythiaScheduler
from repro.instrumentation.messages import PredictionMessage, ReducerLocationMessage
from repro.sdn.controller import Controller
from repro.simnet.engine import Simulator
from repro.simnet.flows import SHUFFLE_PORT, TCP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.simnet.topology import two_rack


def build(config=None):
    config = config or PythiaConfig()
    sim = Simulator()
    topo = two_rack()
    net = Network(sim, topo)
    ctrl = Controller(
        sim,
        net,
        k_paths=config.k_paths,
        per_rule_latency=config.per_rule_latency,
        control_rtt=config.control_rtt,
    )
    sched = PythiaScheduler(config)
    ctrl.register(sched)
    ctrl.start()
    return sim, topo, net, ctrl, sched


def feed(sim, sched, src="h00", dst_map=None, sizes=(100e6,)):
    dst_map = dst_map or {0: "h10"}
    for rid, server in dst_map.items():
        sched.collector.receive_reducer_location(
            ReducerLocationMessage(job="j", reducer_id=rid, server=server, created_at=sim.now)
        )
    sched.collector.receive_prediction(
        PredictionMessage(
            job="j",
            map_id=0,
            src_server=src,
            reducer_bytes=np.array(sizes),
            created_at=sim.now,
        )
    )


def shuffle_flow(sport=SHUFFLE_PORT, dport=42000, src="h00", dst="h10"):
    rack_s, idx_s = src[1], src[2]
    rack_d, idx_d = dst[1], dst[2]
    return Flow(
        src=src,
        dst=dst,
        size=10e6,
        five_tuple=FiveTuple(f"10.{rack_s}.{idx_s}", f"10.{rack_d}.{idx_d}", sport, dport, TCP),
    )


def test_rules_installed_after_prediction():
    sim, topo, net, ctrl, sched = build()
    feed(sim, sched)
    sim.run(until=1.0)
    assert ctrl.programmer.table_size == 1
    ctrl.stop()
    sim.run()


def test_policy_uses_rule_and_counts_hit():
    sim, topo, net, ctrl, sched = build()
    feed(sim, sched)
    sim.run(until=1.0)
    f = shuffle_flow()
    path = sched.policy.place(f)
    assert sched.policy.rule_hits == 1
    assert topo.links[path[0]].src == "h00"
    ctrl.stop()
    sim.run()


def test_policy_falls_back_to_ecmp_without_rule():
    sim, topo, net, ctrl, sched = build()
    f = shuffle_flow(src="h01", dst="h12")
    path = sched.policy.place(f)
    assert sched.policy.fallbacks == 1
    assert path  # valid ECMP path
    ctrl.stop()
    sim.run()


def test_rule_wildcards_reducer_port():
    sim, topo, net, ctrl, sched = build()
    feed(sim, sched)
    sim.run(until=1.0)
    p1 = sched.policy.place(shuffle_flow(dport=40001))
    p2 = sched.policy.place(shuffle_flow(dport=59999))
    assert p1 == p2, "aggregate rule must cover any reducer-side port"
    assert sched.policy.rule_hits == 2
    ctrl.stop()
    sim.run()


def test_rules_not_matched_before_install_latency():
    cfg = PythiaConfig(per_rule_latency=0.5, control_rtt=0.0)
    sim, topo, net, ctrl, sched = build(cfg)
    feed(sim, sched)
    # run just past the collector wake-up but not the install latency
    sim.run(until=0.01)
    sched.policy.place(shuffle_flow())
    assert sched.policy.fallbacks == 1
    sim.run(until=2.0)
    sched.policy.place(shuffle_flow())
    assert sched.policy.rule_hits == 1
    ctrl.stop()
    sim.run()


def test_reallocation_on_link_failure():
    sim, topo, net, ctrl, sched = build()
    feed(sim, sched)
    sim.run(until=1.0)
    [entry] = sched.aggregator.entries.values()
    original_trunk = topo.path_nodes(entry.path)[2]
    topo.fail_cable("tor0", original_trunk)
    sim.run(until=2.0)
    assert sched.reallocations_on_failure == 1
    new_trunk = topo.path_nodes(entry.path)[2]
    assert new_trunk != original_trunk
    # policy must route onto the surviving trunk
    path = sched.policy.place(shuffle_flow())
    assert new_trunk in topo.path_nodes(path)
    ctrl.stop()
    sim.run()


def test_rack_pair_aggregation_installs_single_prefix_rule():
    cfg = PythiaConfig(aggregation="rack_pair")
    sim, topo, net, ctrl, sched = build(cfg)
    feed(sim, sched, src="h00", dst_map={0: "h10"})
    feed(sim, sched, src="h01", dst_map={0: "h10"})
    sim.run(until=1.0)
    # one aggregate (rack0 -> rack1) covered by ONE prefix rule
    assert len(sched.aggregator.entries) == 1
    assert ctrl.programmer.table_size == 1
    # member pairs resolve their own paths over the shared backbone
    p1 = sched.policy.place(shuffle_flow(src="h00", dst="h10"))
    p2 = sched.policy.place(shuffle_flow(src="h01", dst="h11"))
    assert sched.policy.rule_hits == 2
    assert topo.path_nodes(p1)[0] == "h00"
    assert topo.path_nodes(p2)[0] == "h01"
    assert topo.path_nodes(p1)[2] == topo.path_nodes(p2)[2]
    ctrl.stop()
    sim.run()


def test_policy_requires_start():
    sched = PythiaScheduler()
    with pytest.raises(RuntimeError):
        _ = sched.policy


def test_config_validation():
    with pytest.raises(ValueError):
        PythiaConfig(k_paths=0)
    with pytest.raises(ValueError):
        PythiaConfig(allocation="magic")
    # a zero period would reschedule the stats poll at +0 s forever,
    # and a zero EWMA weight never folds a sample in
    for bad in ({"stats_period": 0.0}, {"stats_period": -1.0},
                {"stats_alpha": 0.0}, {"stats_alpha": 1.5}):
        with pytest.raises(ValueError, match="stats_"):
            PythiaConfig(**bad)
    PythiaConfig(stats_alpha=1.0)  # alpha = 1 (no smoothing) stays valid
    with pytest.raises(ValueError):
        PythiaConfig(aggregation="pod_pair")
    with pytest.raises(ValueError):
        PythiaConfig(demand_horizon=0)
