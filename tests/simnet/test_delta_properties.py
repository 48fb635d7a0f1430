"""Hypothesis property: delta water-filling == from-scratch recompute.

The tentpole claim of the topology-local engine is that scoped settles
(re-solving only the connected components a mutation touched, freezing
rates elsewhere) produce *bit-identical* state to a full-fabric solve
at every instant.  These properties drive random mutation sequences —
arrivals, completions, reroutes (with and without pause), link
failures and restores — through two engines sharing one event script,
one with ``delta=True`` and one with ``delta=False``, on all four
topology generators, and require exact float equality of every flow's
rate/remaining/bytes_sent at every probe point and of every completion
time at the end.

Targeted differential cases then pin the settle paths a random script
reaches only by luck, each run under a whole-fabric invariant checker
(``InvariantChecker(scope="full")``, what ``REPRO_INVARIANTS=full``
installs) so the engine's per-link load mirror is audited at every
settle as well.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import InvariantChecker, use_checker
from repro.simnet.engine import Simulator
from repro.simnet.flows import TCP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.simnet.paths import KPathCache
from repro.simnet.topology import fat_tree, leaf_spine, three_tier, two_rack

_GENERATORS = {
    "two_rack": lambda: two_rack(),
    "leaf_spine": lambda: leaf_spine(4, 2),
    "three_tier": lambda: three_tier(2, 2, 2),
    "fat_tree": lambda: fat_tree(4),
}


@st.composite
def _scripts(draw):
    """A generator name plus an abstract mutation script.

    The script is topology-independent: host/path/link choices are
    indices resolved against the concrete fabric at run time, so one
    draw replays identically on both engines.
    """
    gen = draw(st.sampled_from(sorted(_GENERATORS)))
    nflows = draw(st.integers(2, 12))
    flows = [
        {
            "src_i": draw(st.integers(0, 10**6)),
            "dst_i": draw(st.integers(0, 10**6)),
            "path_i": draw(st.integers(0, 3)),
            "size": draw(st.floats(1e4, 5e8, allow_nan=False)),
            "start": draw(st.floats(0.0, 4.0, allow_nan=False)),
        }
        for _ in range(nflows)
    ]
    reroutes = [
        {
            "flow": draw(st.integers(0, nflows - 1)),
            "path_i": draw(st.integers(0, 3)),
            "at": draw(st.floats(0.1, 6.0, allow_nan=False)),
            "pause": draw(st.sampled_from([0.0, 0.0, 0.05])),
        }
        for _ in range(draw(st.integers(0, 4)))
    ]
    faults = [
        {
            "link_i": draw(st.integers(0, 10**6)),
            "at": draw(st.floats(0.1, 5.0, allow_nan=False)),
            "restore_after": draw(st.sampled_from([None, 0.5, 2.0])),
        }
        for _ in range(draw(st.integers(0, 2)))
    ]
    probes = sorted(draw(st.floats(0.1, 8.0, allow_nan=False)) for _ in range(3))
    return gen, flows, reroutes, faults, probes


def _run_script(gen, flows, reroutes, faults, probes, delta):
    topo = _GENERATORS[gen]()
    sim = Simulator()
    net = Network(sim, topo, delta=delta)
    cache = KPathCache(topo, 4)
    hosts = [h.name for h in topo.hosts()]
    live: list[Flow] = []
    for i, spec in enumerate(flows):
        src = hosts[spec["src_i"] % len(hosts)]
        dst = hosts[spec["dst_i"] % len(hosts)]
        if src == dst:
            dst = hosts[(spec["dst_i"] + 1) % len(hosts)]
        paths = cache.paths_links(src, dst)
        lids = paths[spec["path_i"] % len(paths)]
        f = Flow(
            src=src,
            dst=dst,
            size=spec["size"],
            five_tuple=FiveTuple(f"ip{src}", f"ip{dst}", 50060, 31000 + i, TCP),
        )
        sim.schedule(spec["start"], net.start_flow, f, lids)
        live.append(f)

    def do_reroute(idx, path_i, pause):
        f = live[idx]
        if not f.active:
            return
        paths = cache.paths_links(f.src, f.dst)
        if not paths:
            return  # fabric degraded below reachability
        try:
            net.reroute(f, paths[path_i % len(paths)], pause=pause)
        except ValueError:
            pass  # new path crosses a down link — same outcome both engines

    for r in reroutes:
        sim.schedule(r["at"], do_reroute, r["flow"], r["path_i"], r["pause"])
    # fail inter-switch cables only (failing a host's access link can
    # permanently starve it, which is legal but makes dull examples)
    trunk_links = [
        l for l in topo.links if not l.src.startswith("h") and not l.dst.startswith("h")
    ]
    for spec in faults:
        link = trunk_links[spec["link_i"] % len(trunk_links)]
        sim.schedule(spec["at"], topo.fail_cable, link.src, link.dst)
        if spec["restore_after"] is not None:
            sim.schedule(
                spec["at"] + spec["restore_after"], topo.restore_cable, link.src, link.dst
            )

    snapshots = []

    def probe():
        snapshots.append([(f.rate, f.remaining, f.bytes_sent) for f in live])

    for at in probes:
        sim.schedule(at, probe)
    sim.run(until=600.0, max_events=300_000)
    final = [(f.end_time, f.rate, f.remaining, f.bytes_sent) for f in live]
    return snapshots, final, sim.events_processed


@settings(max_examples=25, deadline=None)
@given(_scripts())
def test_property_delta_settles_bitwise_equal_full_recompute(script):
    gen, flows, reroutes, faults, probes = script
    snaps_d, final_d, events_d = _run_script(gen, flows, reroutes, faults, probes, True)
    snaps_f, final_f, events_f = _run_script(gen, flows, reroutes, faults, probes, False)
    assert events_d == events_f, "delta mode may not change the event schedule"
    assert snaps_d == snaps_f, "mid-run rates must match the full solve bit-for-bit"
    assert final_d == final_f, "final flow state must match the full solve bit-for-bit"


@settings(max_examples=10, deadline=None)
@given(_scripts())
def test_property_delta_scope_is_component_closed(script):
    """Every scoped settle's links are exactly its slots' link closure."""
    gen, flows, reroutes, faults, probes = script
    topo = _GENERATORS[gen]()
    sim = Simulator()
    net = Network(sim, topo, delta=True)
    cache = KPathCache(topo, 4)
    hosts = [h.name for h in topo.hosts()]
    for i, spec in enumerate(flows):
        src = hosts[spec["src_i"] % len(hosts)]
        dst = hosts[spec["dst_i"] % len(hosts)]
        if src == dst:
            dst = hosts[(spec["dst_i"] + 1) % len(hosts)]
        paths = cache.paths_links(src, dst)
        f = Flow(
            src=src,
            dst=dst,
            size=spec["size"],
            five_tuple=FiveTuple(f"ip{src}", f"ip{dst}", 50060, 32000 + i, TCP),
        )
        sim.schedule(spec["start"], net.start_flow, f, paths[spec["path_i"] % len(paths)])

    scoped_seen = []

    def audit(network):
        scope = network.last_settle_scope
        if scope is None or scope["full"]:
            return
        arena = network._arena
        links = set(scope["links"].tolist())
        for s in scope["slots"].tolist():
            start = int(arena.pair_start[s])
            cnt = int(arena.pair_count[s])
            slot_links = set(arena.pair_link[start: start + cnt].tolist())
            assert slot_links <= links, "scoped slot crosses an out-of-scope link"
        scoped_seen.append(len(links))

    net.add_settle_hook(audit)
    sim.run(until=600.0, max_events=300_000)
    assert scoped_seen, "a multi-settle run must exercise scoped solves"


def test_scoped_settle_freezes_other_components():
    """Admitting a flow in one pod must not rewrite rates elsewhere."""
    topo = fat_tree(4)
    sim = Simulator()
    net = Network(sim, topo, delta=True)
    cache = KPathCache(topo, 4)
    hosts = [h.name for h in topo.hosts()]
    a = Flow(src=hosts[0], dst=hosts[1], size=1e9,
             five_tuple=FiveTuple("a", "b", 50060, 1, TCP))
    net.start_flow(a, cache.paths_links(hosts[0], hosts[1])[0])
    net.settle()
    rate_a = net._arena.rate[a._slot]
    # admit in the last pod: disjoint component
    b = Flow(src=hosts[-1], dst=hosts[-2], size=1e9,
             five_tuple=FiveTuple("c", "d", 50060, 2, TCP))
    net.start_flow(b, cache.paths_links(hosts[-1], hosts[-2])[0])
    net.settle()
    scope = net.last_settle_scope
    assert not scope["full"]
    assert b._slot in scope["slots"].tolist()
    assert a._slot not in scope["slots"].tolist()
    assert net._arena.rate[a._slot] == rate_a
    assert np.all(np.asarray(scope["links"]) >= 0)


# ----------------------------------------------------------------------
# targeted delta == full cases
# ----------------------------------------------------------------------
def _flow(src, dst, size, port):
    return Flow(src=src, dst=dst, size=size,
                five_tuple=FiveTuple(f"ip{src}", f"ip{dst}", 50060, port, TCP))


def _differential(scenario, probes):
    """Run ``scenario`` on a delta and a full engine; require identical state.

    ``scenario(sim, topo, net)`` schedules its events and returns the
    flows to compare.  At every probe instant each engine records every
    flow's (rate, remaining, bytes_sent) and the per-link elastic loads;
    at the end, every flow's completion time and final counters.  Both
    runs are audited at every settle by a whole-fabric checker.  Returns
    the delta run's record plus its settle scopes for case-specific
    assertions.
    """
    runs = []
    for delta in (True, False):
        checker = InvariantChecker(scope="full")
        with use_checker(checker):
            sim = Simulator()
            topo = fat_tree(4)
            net = Network(sim, topo, delta=delta)
            flows = scenario(sim, topo, net)
            snaps = []
            scopes = []

            def probe():
                snaps.append((
                    [(f.rate, f.remaining, f.bytes_sent) for f in flows],
                    net.link_elastic_load().tolist(),
                ))

            def note_scope(network):
                scope = network.last_settle_scope
                scopes.append((sim.now, scope["full"], scope["slots"].tolist(),
                               scope["links"].tolist()))

            net.add_settle_hook(note_scope)
            for at in probes:
                sim.schedule(at, probe)
            sim.run(until=600.0)
        assert checker.checkpoints > 0 and not checker.violation_log
        final = [(f.end_time, f.rate, f.remaining, f.bytes_sent) for f in flows]
        assert all(end is not None for end, *_ in final)
        runs.append({"snaps": snaps, "final": final, "events": sim.events_processed,
                     "scopes": scopes, "flows": flows})
    d, f = runs
    assert d["events"] == f["events"], "delta mode may not change the event schedule"
    assert d["snaps"] == f["snaps"], "rates and link loads must match the full solve bit-for-bit"
    assert d["final"] == f["final"], "completions must match the full solve bit-for-bit"
    assert any(not full for _t, full, _s, _l in d["scopes"]), "no scoped settle ran"
    return d


def test_delta_zeroes_dirty_links_left_without_flows():
    """A completion that empties a component: its links must read zero load."""
    def scenario(sim, topo, net):
        a = _flow("h0_00", "h0_10", 1e8, 1)
        b = _flow("h3_00", "h3_10", 1e9, 2)
        sim.schedule(0.0, net.start_flow, a,
                     topo.path_links(["h0_00", "edge0_0", "agg0_0", "edge0_1", "h0_10"]))
        sim.schedule(0.0, net.start_flow, b,
                     topo.path_links(["h3_00", "edge3_0", "agg3_0", "edge3_1", "h3_10"]))
        return [a, b]

    d = _differential(scenario, probes=[0.5, 2.0])
    a, b = d["flows"]
    loads = d["snaps"][1][1]
    assert all(loads[l] == 0.0 for l in a.path), "vacated links kept a stale load"
    assert all(loads[l] > 0.0 for l in b.path)
    # the completion settle re-solved nothing, only cleared a's links
    assert any(not full and not slots and set(a.path) <= set(links)
               for t, full, slots, links in d["scopes"] if t == a.end_time)


def test_delta_reroute_with_pause_drops_paused_flow_from_labels():
    """A paused flow leaves the incidence; its neighbour takes the link."""
    paused = []

    def scenario(sim, topo, net):
        a = _flow("h0_00", "h0_10", 3e8, 1)
        b = _flow("h0_01", "h0_11", 3e8, 2)
        c = _flow("h2_00", "h2_10", 3e8, 3)
        via0 = ["edge0_0", "agg0_0", "edge0_1"]
        sim.schedule(0.0, net.start_flow, a, topo.path_links(["h0_00", *via0, "h0_10"]))
        sim.schedule(0.0, net.start_flow, b, topo.path_links(["h0_01", *via0, "h0_11"]))
        sim.schedule(0.0, net.start_flow, c,
                     topo.path_links(["h2_00", "edge2_0", "agg2_0", "edge2_1", "h2_10"]))
        new = topo.path_links(["h0_00", "edge0_0", "agg0_1", "edge0_1", "h0_10"])
        sim.schedule(0.5, net.reroute, a, new, 0.25)
        sim.schedule(0.6, lambda: paused.append((a.arena_bound(), a.rate, b.rate)))
        return [a, b, c]

    d = _differential(scenario, probes=[0.4, 0.6, 1.0])
    a, b, _c = d["flows"]
    assert paused[0] == paused[1]
    a_bound, a_rate, b_rate = paused[0]
    assert not a_bound and a_rate == 0.0, "a paused flow kept its arena slot"
    assert b_rate > d["snaps"][0][0][1][0], "b did not take the vacated share"
    assert any(not full and 0.5 == t for t, full, _s, _l in d["scopes"])


def test_delta_same_wave_pending_admissions():
    """Flows rerouted (with and without pause) before their first settle."""
    pending = []

    def scenario(sim, topo, net):
        a = _flow("h0_00", "h0_10", 2e8, 1)
        b = _flow("h0_01", "h0_11", 2e8, 2)
        c = _flow("h0_00", "h0_11", 2e8, 3)
        via0 = ["edge0_0", "agg0_0", "edge0_1"]

        def wave():
            net.start_flow(a, topo.path_links(["h0_00", *via0, "h0_10"]))
            net.start_flow(b, topo.path_links(["h0_01", *via0, "h0_11"]))
            net.start_flow(c, topo.path_links(["h0_00", *via0, "h0_11"]))
            pending.append(b.arena_bound() or c.arena_bound())
            net.reroute(b, topo.path_links(["h0_01", "edge0_0", "agg0_1", "edge0_1", "h0_11"]))
            net.reroute(c, topo.path_links(["h0_00", "edge0_0", "agg0_1", "edge0_1", "h0_11"]),
                        pause=0.2)

        sim.schedule(0.0, wave)
        return [a, b, c]

    _differential(scenario, probes=[0.1, 0.3, 1.0])
    assert pending == [False, False], "the wave's flows were slotted before its settle"


def test_delta_link_failure_mid_run():
    """A failed cable stalls its flows; restoring it resumes them."""
    stalled = []

    def scenario(sim, topo, net):
        a = _flow("h0_00", "h0_10", 3e8, 1)
        b = _flow("h0_01", "h0_11", 3e8, 2)
        c = _flow("h3_00", "h3_10", 3e8, 3)
        sim.schedule(0.0, net.start_flow, a,
                     topo.path_links(["h0_00", "edge0_0", "agg0_0", "edge0_1", "h0_10"]))
        sim.schedule(0.0, net.start_flow, b,
                     topo.path_links(["h0_01", "edge0_0", "agg0_1", "edge0_1", "h0_11"]))
        sim.schedule(0.0, net.start_flow, c,
                     topo.path_links(["h3_00", "edge3_0", "agg3_0", "edge3_1", "h3_10"]))
        sim.schedule(0.3, topo.fail_cable, "agg0_0", "edge0_1")
        sim.schedule(0.5, lambda: stalled.append((a.rate, b.rate > 0.0)))
        sim.schedule(1.0, topo.restore_cable, "agg0_0", "edge0_1")
        return [a, b, c]

    d = _differential(scenario, probes=[0.2, 0.5, 1.5])
    assert stalled == [(0.0, True), (0.0, True)]
    assert d["snaps"][2][0][0][0] > 0.0, "a did not resume after the restore"
    assert any(not full for t, full, _s, _l in d["scopes"] if t == 0.3)
