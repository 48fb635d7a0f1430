"""The 100k-flow pod-local storm: the delta engine's headline workload.

One hundred arrival waves, 0.25 s apart, each targeting a single pod of
a fat-tree k=8 fabric.  Pod-local traffic is the delta engine's best
case *and* the shape Clos fabrics are built for: each wave's flows form
connected components confined to one pod (plus whatever earlier waves
are still draining there), so a topology-local settle re-solves a
pod-sized component while the other seven pods' rates stay frozen.

Every gate here is machine-independent — solve/event/component *counts*,
not wall time — so the same assertions hold on a laptop and in CI:

* scoped solves dominate: at most a handful of full-fabric solves ever
  run (arena rebuilds), against thousands of scoped ones;
* the mean re-solved component stays pod-sized — a small fraction of
  the fabric's flows and links — which is the whole point of the
  tentpole (full-per-wave solving would put *every* live flow in every
  solve);
* the event count stays linear in the flow count (one admission, one
  completion, a bounded number of reschedules per flow — the calendar
  queue makes these O(1) but the *count* gate catches scheduling
  regressions independent of queue implementation);
* every byte is conserved and every flow completes.

The CI-sized run (6k flows, ~15 s) executes on every push from the
benchmark-smoke job; the full 100k-flow run is `slow`-marked and runs
from the nightly workflow.  Wall-time history lives in
BENCH_network.json.
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.simnet.engine import Simulator
from repro.simnet.flows import TCP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.simnet.paths import KPathCache
from repro.simnet.topology import fat_tree

K = 8
WAVES = 100
WAVE_SPACING = 0.25
CI_NFLOWS = 6_000
FULL_NFLOWS = 100_000


def _run_storm(nflows: int, delta: bool = True, on_network=None) -> dict:
    """Pod-local arrival/departure storm; returns counters for gating."""
    obs.set_registry(MetricsRegistry())
    sim = Simulator()
    topo = fat_tree(K)
    net = Network(sim, topo, delta=delta)
    if on_network is not None:
        on_network(net)
    hosts = [h.name for h in topo.hosts()]
    per_pod = len(hosts) // K
    cache = KPathCache(topo, 4)
    rng = np.random.default_rng(7)
    flows = []
    for i in range(nflows):
        wave = i % WAVES
        pod = wave % K
        base = pod * per_pod
        a, b = rng.choice(per_pod, size=2, replace=False)
        src, dst = hosts[base + int(a)], hosts[base + int(b)]
        paths = cache.paths_links(src, dst)
        lids = paths[int(rng.integers(0, len(paths)))]
        f = Flow(
            src=src,
            dst=dst,
            size=float(2e7 + 1e6 * wave),
            five_tuple=FiveTuple(f"ip{src}", f"ip{dst}", 50060, 30000 + i, TCP),
        )
        sim.schedule(wave * WAVE_SPACING, net.start_flow, f, lids)
        flows.append(f)
    sim.run(max_events=50 * nflows)
    reg = obs.get_registry()
    counters = {
        name: reg.counter(f"network.{name}").value
        for name in (
            "solves_full",
            "solves_scoped",
            "delta_component_flows",
            "delta_component_links",
        )
    }
    return {
        "flows": flows,
        "nlinks": len(topo.links),
        "events": sim.events_processed,
        "tombstoned": sim.events_tombstoned,
        "pending": sim.pending,
        **counters,
    }


def _assert_storm_gates(r: dict, nflows: int) -> None:
    flows = r["flows"]
    # -- liveness: the storm drains completely ------------------------
    assert all(f.end_time is not None for f in flows)
    # -- byte conservation at scale -----------------------------------
    sent = sum(f.bytes_sent for f in flows)
    expected = sum(f.size for f in flows)
    assert abs(sent - expected) <= 1e-6 * expected
    assert all(f.remaining == 0.0 for f in flows)
    # -- scoped solves dominate ---------------------------------------
    # The whole run needs one full-fabric solve (the first settle) plus
    # at most a few rebuild-triggered ones; per-wave full solving would
    # put `solves_full` in the hundreds.
    assert r["solves_full"] <= WAVES // 10
    assert r["solves_scoped"] > 50 * max(1.0, r["solves_full"])
    # -- components stay pod-sized ------------------------------------
    # Pod-local traffic can never couple more than one pod's flows into
    # a component, so the mean re-solved component must be well under a
    # pod's share of the storm (nflows / K).  A full-per-wave engine
    # would average every live flow (~nflows / 3 at peak overlap).
    avg_flows = r["delta_component_flows"] / r["solves_scoped"]
    assert avg_flows < nflows / K
    # Scope links stay inside one pod + its core uplinks — a fraction
    # of the fabric's link set.
    avg_links = r["delta_component_links"] / r["solves_scoped"]
    assert avg_links < r["nlinks"] / 4
    # -- event budget is linear in flows ------------------------------
    # one admission + one completion tick per flow, plus coalesced
    # settles and a bounded number of completion reschedules.
    assert r["events"] <= 2 * nflows
    # -- the queue drained --------------------------------------------
    assert r["pending"] == 0


def test_storm_pod_local_gates(benchmark):
    """CI-sized storm (6k flows): every delta-engine gate, every push."""
    r = benchmark.pedantic(
        lambda: _run_storm(CI_NFLOWS), rounds=1, iterations=1, warmup_rounds=0
    )
    _assert_storm_gates(r, CI_NFLOWS)


def test_settle_scratch_is_hoisted():
    """Post-warmup settles reuse the same hoisted scratch buffers.

    The settle hot path works entirely in grow-only buffers (the
    maintained residual and the fair-share solver's slabs): once the
    storm's peak live-flow count has been reached, no settle may
    reallocate any fabric- or arena-sized working array.  The gate
    records the buffer identities at every settle and requires them
    frozen over the whole back 40% of the run — growth is doubling, so
    it has long plateaued by then.  Each buffer may grow at most as
    often as doubling from the 64-entry floor to its final capacity
    takes: ⌈log2(capacity / 64)⌉ + 1 allocations, counting the first.
    """
    history: list[tuple[dict, int]] = []

    def hook(net):
        history.append((net.scratch_buffers(), net.scratch_grows))

    _run_storm(2_000, on_network=lambda net: net.add_settle_hook(hook))
    assert len(history) > 100
    tail = history[int(len(history) * 0.6):]
    bufs0, grows0 = tail[0]
    for bufs, grows in tail:
        assert bufs == bufs0, "a settle reallocated a hoisted scratch buffer"
        assert grows == grows0, "a settle grew scratch after warm-up"
    final, grows = history[-1]
    assert sum(allocs for _id, _cap, allocs in final.values()) == grows
    for name, (_id, cap, allocs) in final.items():
        bound = math.ceil(math.log2(max(cap, 64) / 64)) + 1
        assert allocs <= bound, f"{name}: {allocs} allocations for capacity {cap}"


@pytest.mark.slow
def test_storm_100k_flows(benchmark):
    """The full 100k-flow storm — nightly / on-demand (`-m slow`)."""
    r = benchmark.pedantic(
        lambda: _run_storm(FULL_NFLOWS), rounds=1, iterations=1, warmup_rounds=0
    )
    _assert_storm_gates(r, FULL_NFLOWS)
