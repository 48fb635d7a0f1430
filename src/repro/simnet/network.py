"""Active-flow manager: admission, fluid rate recomputation, completion.

The :class:`Network` owns every in-flight flow.  Whenever the flow set
changes (arrival, departure, reroute, link failure) it re-solves the
max-min allocation, integrates the bytes carried since the previous
change, and schedules a single "next completion" event.  Stale
completion events are invalidated with a generation counter rather than
heap surgery.

These structural choices keep the per-event cost flat as experiments
scale (see docs/ARCHITECTURE.md "Network engine internals"):

* **Persistent incidence state.**  Elastic flows live in a slot arena
  (:class:`_SlotArena`): flat ``rate``/``remaining``/``sent``/``weight``
  vectors plus append-only ``(flow, link)`` incidence pair arrays that
  are compacted lazily when enough slots have died.  The fair-share
  solve consumes these arrays directly instead of re-concatenating
  every flow's path on each recompute, and byte integration is a single
  vectorised ``remaining -= rates * dt``.
* **Coalesced recomputation.**  Flow events mark the network *dirty*
  and schedule one zero-delay settle event; all mutations that share a
  timestamp are solved once.  The deterministic ``(time, seq)`` event
  semantics are preserved — the settle fires at the same simulated
  instant, after the mutations that requested it — and every public
  rate-reading accessor settles on demand so no caller can observe a
  stale allocation.
* **Component-labelled delta settles.**  Each settle labels the
  connected components of the live incidence in one vectorised pass;
  the components holding a link dirtied since the last settle are
  re-solved from those labels and every other component keeps its
  rates (bit-identical, by the componentwise solve contract).  A full
  solve is the same code with every component marked dirty.
* **Indexed membership.**  ``flows_on_link`` is served from a
  maintained link→flow index, and the elastic/rigid collections are
  insertion-ordered dicts so completion waves no longer pay
  ``list.remove`` per flow.
* **Indexed completion scheduling.**  Each slot caches its absolute
  completion instants (``eta0`` — remaining hits zero, ``etaE`` — it
  crosses the done-epsilon), recomputed only when the slot's solved
  rate actually changes, and the network tracks the arena-wide minimum
  of each: a settle folds the dirty component's candidate minimum in
  O(1) after a vectorised argmin over just the rate-changed slots, and
  a full (C-speed, allocation-free) rescan happens only when the
  tracked minimum slot itself was re-rated or departed.  Dead slots
  park their etas at +inf so rescans are a bare ``np.argmin``.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.faults import runtime as faults_runtime
from repro.simnet.engine import Simulator
from repro.simnet.fairshare import (
    FairShareScratch,
    incidence_components,
    maxmin_rates_componentwise,
)
from repro.simnet.flows import Flow
from repro.simnet.links import Link
from repro.simnet.topology import Topology

#: Remaining-bytes slack under which a flow counts as finished.
_DONE_EPS = 1e-3

#: shared empty index array for no-scope settles (never mutated).
_EMPTY_SLOTS = np.zeros(0, dtype=np.intp)


class _SlotArena:
    """Flat per-flow state and (flow, link) incidence for elastic flows.

    Each admitted elastic flow occupies one *slot*: an index into the
    ``rate``/``remaining``/``sent``/``weight`` vectors and a contiguous
    run ``[pair_start, pair_start + pair_count)`` of the incidence pair
    arrays.  Slots are append-only; departures mark the slot dead and
    the arena compacts (preserving slot order of the survivors) once
    dead slots or dead pairs dominate, so arrival/departure storms cost
    amortised O(path length) each instead of O(flows × links).
    """

    __slots__ = (
        "n", "rate", "remaining", "sent", "weight", "alive",
        "pair_start", "pair_count", "flows",
        "pn", "pair_flow", "pair_link", "dead", "dead_pairs", "network",
        "eta0", "etaE",
    )

    def __init__(self) -> None:
        cap, pcap = 64, 256
        #: backref so a bound Flow.rate read can settle a pending
        #: coalesced recompute (set by the owning Network).
        self.network: Optional["Network"] = None
        self.n = 0
        self.rate = np.zeros(cap)
        self.remaining = np.zeros(cap)
        self.sent = np.zeros(cap)
        self.weight = np.ones(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.pair_start = np.zeros(cap, dtype=np.intp)
        self.pair_count = np.zeros(cap, dtype=np.intp)
        self.flows: list[Optional[Flow]] = []
        self.pn = 0
        self.pair_flow = np.zeros(pcap, dtype=np.intp)
        self.pair_link = np.zeros(pcap, dtype=np.intp)
        self.dead = 0
        self.dead_pairs = 0
        #: absolute completion instants under the slot's current rate:
        #: ``eta0`` is when remaining reaches zero (inf while rate is 0
        #: or remaining already <= 0), ``etaE`` when remaining crosses
        #: the done-epsilon (-inf when already there with zero rate).
        #: NaN marks a freshly admitted slot whose eta is still unset;
        #: dead slots park at +inf so min-rescans need no alive mask.
        self.eta0 = np.full(cap, np.nan)
        self.etaE = np.full(cap, np.nan)

    # -- growth --------------------------------------------------------
    def _grow_slots(self) -> None:
        cap = len(self.rate) * 2
        for name in ("rate", "remaining", "sent", "weight", "alive",
                     "pair_start", "pair_count", "eta0", "etaE"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def _grow_pairs(self, need: int) -> None:
        cap = len(self.pair_flow)
        while cap < need:
            cap *= 2
        for name in ("pair_flow", "pair_link"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=np.intp)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    # -- lifecycle -----------------------------------------------------
    def add(self, flow: Flow) -> int:
        """Admit ``flow`` (using its current path) and bind it to a slot."""
        slot = self.n
        if slot == len(self.rate):
            self._grow_slots()
        lids = flow.path or []
        npairs = len(lids)
        if self.pn + npairs > len(self.pair_flow):
            self._grow_pairs(self.pn + npairs)
        self.rate[slot] = flow.rate
        self.remaining[slot] = flow.remaining
        self.sent[slot] = flow.bytes_sent
        self.weight[slot] = flow.weight
        self.alive[slot] = True
        self.eta0[slot] = np.nan
        self.etaE[slot] = np.nan
        self.pair_start[slot] = self.pn
        self.pair_count[slot] = npairs
        self.pair_flow[self.pn: self.pn + npairs] = slot
        self.pair_link[self.pn: self.pn + npairs] = lids
        self.pn += npairs
        self.flows.append(flow)
        self.n += 1
        flow._state = self
        flow._slot = slot
        return slot

    def add_batch(self, flows: list[Flow]) -> None:
        """Admit a whole wave of flows with one set of array writes.

        Same slot/pair layout as calling :meth:`add` once per flow in
        list order (slot order is admission order, pairs are appended
        path-by-path), but the vector fields are written as slabs and
        the pair arrays grow at most once — one arena append per wave
        instead of per flow.  Reads the flows' scalar fields directly
        (the flows are unbound, and going through the properties could
        re-enter a settle).
        """
        m = len(flows)
        if not m:
            return
        while self.n + m > len(self.rate):
            self._grow_slots()
        paths = [f.path or [] for f in flows]
        counts = np.array([len(p) for p in paths], dtype=np.intp)
        total = int(counts.sum())
        if self.pn + total > len(self.pair_flow):
            self._grow_pairs(self.pn + total)
        s0, p0 = self.n, self.pn
        sl = slice(s0, s0 + m)
        self.rate[sl] = [f._rate for f in flows]
        self.remaining[sl] = [f._remaining for f in flows]
        self.sent[sl] = [f._bytes_sent for f in flows]
        self.weight[sl] = [f.weight for f in flows]
        self.alive[sl] = True
        self.eta0[sl] = np.nan
        self.etaE[sl] = np.nan
        starts = p0 + np.concatenate(([0], np.cumsum(counts[:-1]))) if m else p0
        self.pair_start[sl] = starts
        self.pair_count[sl] = counts
        self.pair_flow[p0: p0 + total] = np.repeat(
            np.arange(s0, s0 + m, dtype=np.intp), counts
        )
        if total:
            self.pair_link[p0: p0 + total] = np.concatenate(
                [np.asarray(p, dtype=np.intp) for p in paths if p]
            )
        self.pn += total
        self.flows.extend(flows)
        self.n += m
        for slot, flow in enumerate(flows, start=s0):
            flow._state = self
            flow._slot = slot
            flow._pending = None

    def kill(self, flow: Flow) -> None:
        """Release the flow's slot, writing final values back to it."""
        slot = flow._slot
        flow._state = None
        flow._slot = -1
        flow._rate = float(self.rate[slot])
        flow._remaining = float(self.remaining[slot])
        flow._bytes_sent = float(self.sent[slot])
        self.rate[slot] = 0.0
        self.alive[slot] = False
        self.eta0[slot] = np.inf
        self.etaE[slot] = np.inf
        self.flows[slot] = None
        self.dead += 1
        self.dead_pairs += int(self.pair_count[slot])

    def set_path_inplace(self, flow: Flow, lids: list[int]) -> bool:
        """Swap the slot's incidence pairs for an equal-length path.

        Returns False when the new path has a different hop count (the
        caller then re-admits the flow into a fresh slot).
        """
        slot = flow._slot
        cnt = int(self.pair_count[slot])
        if len(lids) != cnt:
            return False
        start = int(self.pair_start[slot])
        self.pair_link[start: start + cnt] = lids
        return True

    def maybe_compact(self) -> None:
        """Reclaim dead slots/pairs once they outnumber the live ones."""
        if self.dead > max(16, self.n - self.dead) or (
            self.dead_pairs > max(64, self.pn - self.dead_pairs)
        ):
            self._compact()

    def _compact(self) -> None:
        n, pn = self.n, self.pn
        keep = np.flatnonzero(self.alive[:n])
        remap = np.full(n, -1, dtype=np.intp)
        remap[keep] = np.arange(keep.size, dtype=np.intp)
        pair_keep = self.alive[self.pair_flow[:pn]]
        new_pf = remap[self.pair_flow[:pn][pair_keep]]
        new_pl = self.pair_link[:pn][pair_keep]
        for name in ("rate", "remaining", "sent", "weight", "alive",
                     "pair_count", "eta0", "etaE"):
            arr = getattr(self, name)
            arr[: keep.size] = arr[keep]
        counts = self.pair_count[: keep.size]
        self.pair_start[: keep.size] = np.concatenate(
            ([0], np.cumsum(counts[:-1]))
        ) if keep.size else 0
        self.pair_flow[: new_pf.size] = new_pf
        self.pair_link[: new_pl.size] = new_pl
        survivors: list[Optional[Flow]] = []
        for slot in keep.tolist():
            flow = self.flows[slot]
            assert flow is not None
            flow._slot = len(survivors)
            survivors.append(flow)
        self.flows = survivors
        self.n = keep.size
        self.pn = int(new_pf.size)
        self.dead = 0
        self.dead_pairs = 0

    # -- fluid math ----------------------------------------------------
    def integrate(self, dt: float) -> None:
        """Vectorised byte credit: ``remaining -= rates * dt``."""
        n = self.n
        if n:
            delta = self.rate[:n] * dt
            self.sent[:n] += delta
            self.remaining[:n] -= delta

    def live_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(pair_flow, pair_link) views restricted to live slots."""
        pf = self.pair_flow[: self.pn]
        pl = self.pair_link[: self.pn]
        if self.dead_pairs:
            live = self.alive[pf]
            return pf[live], pl[live]
        return pf, pl


class Network:
    """Fluid-model network: rigid CBR streams + max-min elastic flows.

    Parameters
    ----------
    delta:
        Topology-local (delta) settles, on by default: re-solve only the
        connected components of the incidence graph a mutation touched,
        keeping every other component's rates frozen (bit-identical by
        the componentwise solve contract).  ``False`` re-solves every
        component at every settle — the reference the delta engine is
        tested against.
    """

    def __init__(
        self, sim: Simulator, topology: Topology, *, delta: bool = True
    ) -> None:
        self.sim = sim
        self.topology = topology
        self._delta = bool(delta)
        self._elastic: dict[Flow, None] = {}
        self._rigid: dict[Flow, None] = {}
        self.archive: list[Flow] = []        # every flow ever admitted
        self._on_complete: dict[int, Callable[[Flow], None]] = {}
        self._generation = 0
        self._last_integration = sim.now
        self._flow_hooks: list[Callable[[str, Flow], None]] = []
        self._arena = _SlotArena()
        self._arena.network = self
        self._dirty = False
        self._order = itertools.count()
        self._flows_by_link: dict[int, set[Flow]] = {}
        self._nlinks = 0
        #: tracked arena-wide minima of the cached completion instants:
        #: (value, witness slot) per eta kind.  A witness is trusted only
        #: while it is alive and its cached eta still equals the value;
        #: otherwise the next query rescans (slot -1 forces that).
        self._min0_val = np.inf
        self._min0_slot = -1
        self._minE_val = np.inf
        self._minE_slot = -1
        #: maintained per-link elastic residual (refreshed only for
        #: dirtied links each settle; recomputed wholesale on rebuild).
        self._residual = np.zeros(0)
        #: reallocations of any hoisted scratch buffer — the storm
        #: microbench asserts this stops moving after warm-up.
        self.scratch_grows = 0
        #: grow-only fair-share solver workspace (component labels +
        #: progressive-filling state) used by every settle; its
        #: reallocations count as scratch grows so the no-allocation
        #: gates cover it too.
        self._fs_scratch = FairShareScratch(on_grow=self._note_scratch_grow)
        #: links whose residual or flow membership changed since the
        #: last settle — the seeds of the next delta solve's scope.
        self._dirty_links: set[int] = set()
        #: force the next settle to solve the whole fabric (topology
        #: grew, or delta mode is off).
        self._dirty_all = True
        #: admissions batched since the last settle; materialised as one
        #: arena append when the settle fires.
        self._pending_admits: list[Flow] = []
        #: flows completed by the tick that triggered the current
        #: settle — handed to scoped invariant checks, then cleared.
        self._last_completed: list[Flow] = []
        #: scope of the most recent settle, for component-scoped
        #: invariant checking: dict with ``full`` (bool), ``slots`` /
        #: ``links`` (index arrays, empty when full) and ``completed``.
        self.last_settle_scope: Optional[dict] = None
        self._rebuild_link_arrays()
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        self._measure_recompute = registry.enabled
        self._m_arrivals = registry.counter("network.flow_arrivals")
        self._m_departures = registry.counter("network.flow_departures")
        self._m_recomputes = registry.counter("network.fair_share_recomputes")
        self._m_coalesced = registry.counter("network.recompute_coalesced")
        self._m_recompute_time = registry.histogram("network.fair_share_wall_seconds")
        self._m_solves_scoped = registry.counter("network.solves_scoped")
        self._m_solves_full = registry.counter("network.solves_full")
        self._m_comp_flows = registry.counter("network.delta_component_flows")
        self._m_comp_links = registry.counter("network.delta_component_links")
        #: callbacks fired after every settle (rate recompute) — the
        #: natural checkpoint where all fluid state is self-consistent.
        self._settle_hooks: list[Callable[["Network"], None]] = []
        topology.observe(self._on_link_state_change)
        checker = faults_runtime.get_checker()
        if checker is not None:
            checker.watch_network(self)

    # ------------------------------------------------------------------
    # public views (insertion-ordered, matching historical list semantics)
    # ------------------------------------------------------------------
    @property
    def elastic(self) -> list[Flow]:
        """Active elastic flows in admission order (paused flows excluded)."""
        return list(self._elastic)

    @property
    def rigid(self) -> list[Flow]:
        """Active rigid flows in admission order."""
        return list(self._rigid)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_flow_hook(self, fn: Callable[[str, Flow], None]) -> None:
        """Register ``fn(event, flow)`` for events 'start'/'end'/'reroute'."""
        self._flow_hooks.append(fn)

    def add_settle_hook(self, fn: Callable[["Network"], None]) -> None:
        """Register ``fn(network)`` to run after every rate recompute.

        Settle points are where the fluid state is fully consistent
        (bytes integrated, rates solved, completions scheduled) — the
        invariant checker audits here.  Hooks must not mutate flows.
        """
        self._settle_hooks.append(fn)

    def _emit(self, event: str, flow: Flow) -> None:
        if event == "start":
            self._m_arrivals.inc()
        elif event == "end":
            self._m_departures.inc()
        if self._tracer is not None:
            self._tracer.emit(
                self.sim.now,
                "network",
                f"flow_{event}",
                fid=flow.fid,
                src=flow.src,
                dst=flow.dst,
                bytes=flow.bytes_sent,
            )
        for fn in self._flow_hooks:
            fn(event, flow)

    # ------------------------------------------------------------------
    # admission / teardown
    # ------------------------------------------------------------------
    def start_flow(
        self,
        flow: Flow,
        path: list[int],
        on_complete: Optional[Callable[[Flow], None]] = None,
    ) -> Flow:
        """Admit a flow on an explicit link-id path."""
        if flow.start_time is not None:
            raise ValueError(f"flow {flow.fid} already started")
        self._validate_path(flow, path)
        flow.path = list(path)
        flow.start_time = self.sim.now
        flow.remaining = flow.size if flow.size is not None else float("inf")
        if on_complete is not None:
            self._on_complete[flow.fid] = on_complete
        self.archive.append(flow)
        if flow.elastic:
            self._admit_elastic(flow)
            self._flows_changed()
        else:
            self._admit_rigid(flow)
        self._emit("start", flow)
        return flow

    def _admit_elastic(self, flow: Flow) -> None:
        self._elastic[flow] = None
        flow._order = next(self._order)  # type: ignore[attr-defined]
        # Same-wave admissions are batched: the flow joins the pending
        # list now and receives its arena slot (one slab append for the
        # whole wave) when the coalesced settle fires.  Slot order is
        # still admission order, so the solve sees the same layout an
        # admit-immediately engine would.
        flow._pending = self
        self._pending_admits.append(flow)
        self._index_add(flow)
        self._dirty_links.update(flow.path or [])

    def _admit_rigid(self, flow: Flow) -> None:
        assert flow.rigid_rate is not None
        self._integrate()
        flow.rate = flow.rigid_rate
        for lid in flow.path or []:
            self.topology.links[lid].rigid_rate += flow.rigid_rate
            self._lrigid[lid] += flow.rigid_rate
        self._rigid[flow] = None
        flow._order = next(self._order)  # type: ignore[attr-defined]
        self._index_add(flow)
        self._dirty_links.update(flow.path or [])
        if flow.size is not None:
            duration = flow.size / flow.rigid_rate
            self.sim.schedule(duration, self._complete_rigid, flow)
        self._flows_changed()

    def stop_flow(self, flow: Flow) -> None:
        """Tear down an unbounded rigid flow (e.g. background stream)."""
        if flow.elastic:
            raise ValueError("elastic flows complete on their own")
        if flow.end_time is not None:
            return
        self._complete_rigid(flow)

    def _complete_rigid(self, flow: Flow) -> None:
        if flow.end_time is not None:
            return
        self._integrate()
        for lid in flow.path or []:
            self.topology.links[lid].rigid_rate -= flow.rigid_rate  # type: ignore[operator]
            self._lrigid[lid] -= flow.rigid_rate  # type: ignore[operator]
        self._dirty_links.update(flow.path or [])
        flow.end_time = self.sim.now
        flow.rate = 0.0
        del self._rigid[flow]
        self._index_remove(flow)
        self._finish(flow)
        self._flows_changed()

    def _finish(self, flow: Flow) -> None:
        cb = self._on_complete.pop(flow.fid, None)
        self._emit("end", flow)
        if cb is not None:
            cb(flow)

    # ------------------------------------------------------------------
    # rerouting and failures
    # ------------------------------------------------------------------
    def reroute(self, flow: Flow, new_path: list[int], pause: float = 0.0) -> None:
        """Move an in-flight flow onto a new path (Hedera-style or repair).

        ``pause`` models the transport-level disruption of a mid-flight
        path change (packet reordering, duplicate ACKs, cwnd recovery):
        the flow carries no traffic for that long before resuming on
        the new path.
        """
        if not flow.active:
            return
        self._validate_path(flow, new_path, allow_down=False)
        self._integrate()
        self._index_remove(flow)
        if not flow.elastic:
            for lid in flow.path or []:
                self.topology.links[lid].rigid_rate -= flow.rigid_rate  # type: ignore[operator]
                self._lrigid[lid] -= flow.rigid_rate  # type: ignore[operator]
            for lid in new_path:
                self.topology.links[lid].rigid_rate += flow.rigid_rate  # type: ignore[operator]
                self._lrigid[lid] += flow.rigid_rate  # type: ignore[operator]
        self._dirty_links.update(flow.path or [])   # vacated links
        self._dirty_links.update(new_path)          # newly loaded links
        flow.path = list(new_path)
        in_elastic = flow in self._elastic
        pending = flow._state is None
        if flow.elastic and in_elastic and not pending:
            # Equal hop count (the common case on Clos fabrics) swaps
            # the incidence pairs in place; otherwise re-slot.
            if not self._arena.set_path_inplace(flow, flow.path):
                self._arena.kill(flow)
                self._arena.add(flow)
        # A pending (batched, not yet slotted) flow only needed its path
        # list updated — add_batch reads it at the flush.
        if not flow.elastic or in_elastic:
            # paused flows rejoin the index on resume
            self._index_add(flow)
        self._emit("reroute", flow)
        if pause > 0 and flow.elastic and in_elastic:
            del self._elastic[flow]
            self._index_remove(flow)
            if pending:
                self._pending_admits.remove(flow)
                flow._pending = None
            else:
                self._arena.kill(flow)
            flow.rate = 0.0
            self.sim.schedule(pause, self._resume, flow)
        self._flows_changed()

    def _resume(self, flow: Flow) -> None:
        if flow.end_time is not None or flow in self._elastic:
            return
        self._elastic[flow] = None
        flow._order = next(self._order)  # type: ignore[attr-defined]
        flow._pending = self
        self._pending_admits.append(flow)
        self._index_add(flow)
        self._dirty_links.update(flow.path or [])
        self._flows_changed()

    def flows_on_link(self, lid: int) -> list[Flow]:
        """Active flows whose path crosses the given link.

        Served from a maintained link→flow index; ordering matches the
        historical scan of ``elastic + rigid`` in admission order.
        """
        members = self._flows_by_link.get(lid)
        if not members:
            return []
        return sorted(
            members,
            key=lambda f: (not f.elastic, f._order),  # type: ignore[attr-defined]
        )

    def _index_add(self, flow: Flow) -> None:
        by_link = self._flows_by_link
        for lid in flow.path or []:
            bucket = by_link.get(lid)
            if bucket is None:
                bucket = by_link[lid] = set()
            bucket.add(flow)

    def _index_remove(self, flow: Flow) -> None:
        by_link = self._flows_by_link
        for lid in flow.path or []:
            bucket = by_link.get(lid)
            if bucket is not None:
                bucket.discard(flow)

    def _on_link_state_change(self, link: Link) -> None:
        # Down links contribute zero residual, so affected elastic flows
        # stall at rate 0 until somebody (the SDN layer) reroutes them.
        if link.lid >= self._nlinks:
            self._rebuild_link_arrays()
            self._dirty_all = True
        else:
            self._lup[link.lid] = link.up
            self._dirty_links.add(link.lid)
        self._flows_changed()

    def _validate_path(self, flow: Flow, path: list[int], allow_down: bool = True) -> None:
        if not path:
            raise ValueError("empty path")
        links = self.topology.links
        if len(links) != self._nlinks:
            self._rebuild_link_arrays()
        if links[path[0]].src != flow.src or links[path[-1]].dst != flow.dst:
            raise ValueError(
                f"path endpoints {links[path[0]].src}->{links[path[-1]].dst} "
                f"do not match flow {flow.src}->{flow.dst}"
            )
        for a, b in zip(path, path[1:]):
            if links[a].dst != links[b].src:
                raise ValueError("discontiguous path")
        if not allow_down and any(not links[l].up for l in path):
            raise ValueError("path crosses a down link")

    def _rebuild_link_arrays(self) -> None:
        """(Re)mirror per-link state into flat arrays.

        Called at construction and if the topology ever grows links
        after the network is built.  The byte/elastic accumulators are
        owned by the network once it is live (link objects are synced
        lazily), so a rebuild preserves the existing prefix.
        """
        links = self.topology.links
        old_n = self._nlinks
        self._lcap = np.array([l.capacity for l in links], dtype=float)
        self._lup = np.array([l.up for l in links], dtype=bool)
        self._lrigid = np.array([l.rigid_rate for l in links], dtype=float)
        lelastic = np.array([l.elastic_rate for l in links], dtype=float)
        lbytes = np.array([l.bytes_carried for l in links], dtype=float)
        if old_n:
            lelastic[:old_n] = self._lelastic
            lbytes[:old_n] = self._lbytes
        self._lelastic = lelastic
        self._lbytes = lbytes
        self._nlinks = len(links)
        # Maintained residual + link-sized scratch follow the link count.
        self._residual = np.maximum(
            Link.ELASTIC_FLOOR * self._lcap, self._lcap - self._lrigid
        )
        self._residual[~self._lup] = 0.0
        self.scratch_grows += 1

    # ------------------------------------------------------------------
    # fluid dynamics
    # ------------------------------------------------------------------
    def _flows_changed(self) -> None:
        """Invalidate scheduled completions and request one settle.

        Every mutation bumps the generation (stale completion ticks are
        skipped exactly as before); the expensive solve itself is
        coalesced — the first mutation at a timestamp schedules a
        zero-delay settle event and subsequent ones ride along.
        """
        self._generation += 1
        if self._dirty:
            self._m_coalesced.inc()
            return
        self._dirty = True
        self.sim.schedule(0.0, self._settle_event)

    def _settle_event(self) -> None:
        if self._dirty:
            self._settle()

    def settle(self) -> None:
        """Solve max-min now if a flow event is pending a recompute.

        Idempotent; every public rate-reading accessor calls this, so
        callers that consume instantaneous rates never observe a
        pre-settle allocation.
        """
        if self._dirty:
            self._settle()

    def _integrate(self) -> None:
        """Credit bytes carried since the last rate change."""
        now = self.sim.now
        dt = now - self._last_integration
        if dt <= 0:
            return
        self._arena.integrate(dt)
        for flow in self._rigid:
            flow.bytes_sent += flow.rate * dt
            if flow.size is not None:
                flow.remaining -= flow.rate * dt
        self._lbytes += (self._lelastic + self._lrigid) * dt
        self._last_integration = now

    def _flush_admits(self) -> None:
        """Materialise the batched admissions as one arena slab append."""
        if self._pending_admits:
            pending = self._pending_admits
            self._pending_admits = []
            self._arena.add_batch(pending)

    def _note_scratch_grow(self) -> None:
        """Fold fair-share workspace reallocations into the grow gauge."""
        self.scratch_grows += 1

    def touch_links(self, lids) -> None:
        """Mark links dirty and request a settle (fault injection hook).

        External mutators that bypass the flow API (e.g. the chaos
        engine corrupting arena state) call this so the delta scope
        covers the components they touched.
        """
        self._dirty_links.update(int(l) for l in lids)
        self._flows_changed()

    def _settle(self) -> None:
        """Re-solve max-min rates and schedule the next completion.

        One :func:`~repro.simnet.fairshare.incidence_components` pass
        labels the live incidence; the *dirty* components are those
        holding a link dirtied since the previous settle (every
        component, for a full solve), and only their pairs are
        re-solved, reusing the labels.  Rates and per-link elastic loads
        outside them are left untouched — bit-identical to a
        whole-fabric componentwise solve, because a component's fill
        never reads another component's state
        (:func:`~repro.simnet.fairshare.maxmin_rates_componentwise`).
        """
        start = time.perf_counter() if self._measure_recompute else 0.0
        self._integrate()
        self._dirty = False
        self._m_recomputes.inc()
        if len(self.topology.links) != self._nlinks:
            self._rebuild_link_arrays()
            self._dirty_all = True
        self._flush_admits()
        nlinks = self._nlinks
        dirty = np.fromiter(self._dirty_links, dtype=np.intp, count=len(self._dirty_links))
        dirty = dirty[(dirty >= 0) & (dirty < nlinks)]
        self._refresh_residual(dirty)
        arena = self._arena
        n = arena.n
        full = not self._delta or self._dirty_all
        pf, pl = arena.live_pairs()
        labels = incidence_components(pf, pl, n, nlinks, scratch=self._fs_scratch)
        flow_comp, link_comp, ncomp = labels
        # in_scope[c] marks dirty component c; label -1 (no live pair)
        # reads the trailing False.  Dirty links are in scope even when
        # vacated: their load mirror must drop to zero.
        in_scope = np.zeros(ncomp + 1, dtype=bool)
        if full:
            in_scope[:ncomp] = True
            link_in = np.ones(nlinks, dtype=bool)
        else:
            in_scope[link_comp[dirty]] = True
            in_scope[-1] = False
            link_in = in_scope[link_comp]
            link_in[dirty] = True
        slot_in = in_scope[flow_comp]
        scope_slots = np.flatnonzero(slot_in)
        scope_links = np.flatnonzero(link_in)
        if scope_slots.size != n - arena.dead:
            # some components stay frozen: solve only the dirty ones' pairs
            keep = slot_in[pf]
            pf, pl = pf[keep], pl[keep]
        upd = _EMPTY_SLOTS
        if scope_slots.size:
            rates = maxmin_rates_componentwise(
                pf, pl, n, self._residual,
                weights=arena.weight[:n], scratch=self._fs_scratch, labels=labels,
            )
            new_rates = rates[scope_slots]
            # Untouched components would re-solve to bit-identical rates,
            # so these are exactly the slots whose trajectory moved.
            upd = scope_slots[
                (new_rates != arena.rate[scope_slots])
                | np.isnan(arena.eta0[scope_slots])
            ]
            arena.rate[scope_slots] = new_rates
            loads = np.bincount(pl, weights=rates[pf], minlength=nlinks)
            self._lelastic[scope_links] = loads[scope_links]
        else:
            # dirtied links with no live elastic flow left on them
            self._lelastic[scope_links] = 0.0
        if full:
            self._m_solves_full.inc()
            scope_slots = scope_links = _EMPTY_SLOTS
        else:
            self._m_solves_scoped.inc()
            self._m_comp_flows.inc(int(scope_slots.size))
            self._m_comp_links.inc(int(scope_links.size))
        # Completion scheduling stays global: the next finisher may sit
        # in an untouched component (rates there are frozen, not gone).
        # The tracked minima index cached absolute etas, refreshed above
        # only for rate-changed slots — no per-settle scan over every
        # live flow.
        if n:
            now = self.sim.now
            if upd.size:
                self._refresh_etas(upd, now)
            eta = self._min_eta0()
            if eta < np.inf:
                self.sim.schedule_at(
                    eta if eta > now else now, self._completion_tick, self._generation
                )
            # flows already at/below the done-epsilon complete immediately
            if self._min_etaE() <= now:
                self.sim.schedule(0.0, self._completion_tick, self._generation)
        self.last_settle_scope = {
            "full": full,
            "slots": scope_slots,
            "links": scope_links,
            "completed": self._last_completed,
        }
        self._dirty_links.clear()
        self._dirty_all = False
        self._last_completed = []
        if self._measure_recompute:
            self._m_recompute_time.observe(time.perf_counter() - start)
        for hook in self._settle_hooks:
            hook(self)

    # ------------------------------------------------------------------
    # indexed completion scheduling
    # ------------------------------------------------------------------
    def _refresh_residual(self, lids: np.ndarray) -> None:
        """Refresh the maintained residual for links dirtied since last settle.

        Every residual input (capacity, rigid rate, up/down state) is
        changed only through paths that add the link to ``_dirty_links``
        (or rebuild the arrays wholesale), so touching just the dirty
        entries keeps the array bit-identical to a full recompute.
        """
        if not lids.size:
            return
        c = self._lcap[lids]
        r = np.maximum(Link.ELASTIC_FLOOR * c, c - self._lrigid[lids])
        r[~self._lup[lids]] = 0.0
        self._residual[lids] = r

    def _refresh_etas(self, slots: np.ndarray, now: float) -> None:
        """Recompute cached completion instants for rate-changed slots.

        ``eta0`` (remaining hits zero) feeds the next-completion event;
        ``etaE`` (remaining crosses the done-epsilon) feeds the done
        scan.  Both are absolute times — invariant under integration
        while the rate is unchanged, which is what makes caching sound.
        The dirty set's own minimum then folds into the tracked global
        minimum in O(1): every eta outside ``slots`` is unchanged, so
        the new global minimum is min(old tracked value, dirty-set
        candidate) — unless the tracked witness itself was re-rated or
        has died, in which case the next query rescans.
        """
        arena = self._arena
        r = arena.rate[slots]
        rem = arena.remaining[slots]
        pos = r > 0.0
        q0 = np.divide(rem, r, out=np.full(slots.size, np.inf), where=pos)
        eta0 = np.where(rem > 0.0, now + q0, np.inf)
        qE = np.divide(rem - _DONE_EPS, r, out=np.full(slots.size, np.inf), where=pos)
        etaE = np.where(
            pos, now + qE, np.where(rem <= _DONE_EPS, -np.inf, np.inf)
        )
        arena.eta0[slots] = eta0
        arena.etaE[slots] = etaE
        n = arena.n
        alive = arena.alive
        j = int(np.argmin(eta0))
        ptr = self._min0_slot
        if 0 <= ptr < n and alive[ptr] and arena.eta0[ptr] == self._min0_val:
            if eta0[j] < self._min0_val:
                self._min0_val = float(eta0[j])
                self._min0_slot = int(slots[j])
        else:
            self._min0_slot = -1
        k = int(np.argmin(etaE))
        ptr = self._minE_slot
        if 0 <= ptr < n and alive[ptr] and arena.etaE[ptr] == self._minE_val:
            if etaE[k] < self._minE_val:
                self._minE_val = float(etaE[k])
                self._minE_slot = int(slots[k])
        else:
            self._minE_slot = -1

    def _min_eta0(self) -> float:
        """Arena-wide minimum cached zero-crossing eta (inf when none).

        O(1) while the tracked witness slot is still alive with an
        unchanged eta; otherwise one allocation-free ``np.argmin`` over
        the cached array (dead slots park at +inf, so no mask).  A
        compaction may leave the witness index pointing at a different
        slot — that is still sound: the value-match check only passes
        when *some* alive slot holds exactly the tracked value, and the
        tracked value stays a lower bound across kills (etas only move
        to +inf) and compactions (a permutation).
        """
        arena = self._arena
        n = arena.n
        ptr = self._min0_slot
        if 0 <= ptr < n and arena.alive[ptr] and arena.eta0[ptr] == self._min0_val:
            return self._min0_val
        if not n:
            self._min0_slot = -1
            return np.inf
        eta = arena.eta0[:n]
        j = int(np.argmin(eta))
        self._min0_slot = j
        self._min0_val = v = float(eta[j])
        return v

    def _min_etaE(self) -> float:
        """Arena-wide minimum cached eps-crossing eta (inf when none)."""
        arena = self._arena
        n = arena.n
        ptr = self._minE_slot
        if 0 <= ptr < n and arena.alive[ptr] and arena.etaE[ptr] == self._minE_val:
            return self._minE_val
        if not n:
            self._minE_slot = -1
            return np.inf
        eta = arena.etaE[:n]
        j = int(np.argmin(eta))
        self._minE_slot = j
        self._minE_val = v = float(eta[j])
        return v

    def scratch_buffers(self) -> dict[str, tuple[int, int, int]]:
        """``(identity, capacity, allocations)`` of each hoisted settle buffer.

        The storm microbench captures these after warm-up and asserts
        they stay put — i.e. the per-settle path performs no fresh
        allocation of any fabric- or arena-sized working array — and
        that each buffer grew no more often than doubling to its
        capacity takes.  The allocations sum to :attr:`scratch_grows`.
        """
        fs = self._fs_scratch
        out = {
            "residual": (
                id(self._residual), self._residual.shape[0], self.scratch_grows - fs.grows
            ),
        }
        for name, stats in fs.buffer_stats().items():
            out[f"fairshare.{name}"] = stats
        return out

    def _completion_tick(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a later recompute
        self._integrate()
        arena = self._arena
        n = arena.n
        now = self.sim.now
        # The tracked minimum answers "anything at/past its eps-crossing?"
        # in O(1); only a productive tick pays the vectorised collection
        # scan (dead slots park at +inf, so no alive mask is needed).
        # Ascending slot order preserves the historical callback order.
        if not n or self._min_etaE() > now:
            return
        done_idx = np.flatnonzero(arena.etaE[:n] <= now)
        if not done_idx.size:
            return
        done: list[Flow] = []
        for slot in done_idx.tolist():
            flow = arena.flows[slot]
            assert flow is not None
            del self._elastic[flow]
            self._index_remove(flow)
            self._dirty_links.update(flow.path or [])
            arena.kill(flow)
            flow.end_time = now
            flow.rate = 0.0
            flow.remaining = 0.0
            if flow.size is not None:
                flow.bytes_sent = flow.size
            done.append(flow)
        arena.maybe_compact()
        # Recompute before callbacks so new flows started from callbacks
        # see post-departure rates.  Settle synchronously (dirty cannot
        # already be set here, or the generation guard would have fired)
        # rather than via a zero-delay event, so no extra event is spent.
        self._generation += 1
        self._dirty = True
        self._last_completed = done
        self._settle()
        for flow in done:
            self._finish(flow)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def link_load(self) -> np.ndarray:
        """Instantaneous total rate per link (bytes/s)."""
        self.settle()
        return self._lelastic + self._lrigid

    def link_elastic_load(self) -> np.ndarray:
        """Instantaneous elastic (tracked-transfer) rate per link."""
        self.settle()
        return self._lelastic.copy()

    def link_capacity(self) -> np.ndarray:
        """Per-link capacity (0 for down links)."""
        if len(self.topology.links) != self._nlinks:
            self._rebuild_link_arrays()
        return np.where(self._lup, self._lcap, 0.0)

    def link_bytes(self) -> np.ndarray:
        """Cumulative bytes carried per link, current to this instant."""
        self._integrate()
        return self._lbytes.copy()

    def sample_counters(self) -> None:
        """Bring per-flow/link byte counters up to the current instant."""
        self._integrate()
        now = self.sim.now
        links = self.topology.links
        if len(links) != self._nlinks:
            self._rebuild_link_arrays()
        for link, carried, erate in zip(
            links, self._lbytes.tolist(), self._lelastic.tolist()
        ):
            link.bytes_carried = carried
            link.elastic_rate = erate
            link._last_update = now
