"""Vectorised progressive-filling max-min fair rate allocation.

Elastic (TCP) flows share each link's residual capacity (capacity minus
rigid background load) max-min fairly: all unfrozen flows ramp up at
the same rate until some link saturates, the flows crossing that link
freeze at the current level, and filling continues.  This is the
standard fluid approximation of per-flow TCP fairness and is the part
of the simulator that runs on every flow arrival/departure, so it is
written with flat numpy arrays (``np.bincount`` over a precomputed
(flow, link) incidence list) rather than per-flow Python objects.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

#: Links with less than this fraction of residual headroom count as saturated.
_REL_EPS = 1e-9


class FairShareScratch:
    """Grow-only working buffers for the per-settle fair-share solve.

    The delta engine settles thousands of times per run, and every solve
    used to allocate about a dozen arena/fabric-sized arrays (component
    labels, remap tables, progressive-filling state).  A caller
    that owns one of these passes it through
    :func:`maxmin_rates_componentwise`; results are bit-identical to the
    scratchless path because every buffer is fully (re)initialised
    before use.  ``scratch=None`` (the default everywhere) preserves the
    allocate-per-call behaviour for one-shot callers.

    Buffers double on growth and never shrink; :attr:`grows` counts
    reallocations so no-allocation gates can assert that a warmed-up
    solve path has stopped allocating (``on_grow`` lets an owner fold
    the count into its own gauge, e.g. ``Network.scratch_grows``).
    """

    def __init__(self, on_grow: Optional[Callable[[], None]] = None) -> None:
        self.grows = 0
        self.on_grow = on_grow
        self._slabs: dict[str, np.ndarray] = {}
        self._allocs: dict[str, int] = {}

    def _slab(self, name: str, n: int, dtype) -> np.ndarray:
        arr = self._slabs.get(name)
        if arr is None or arr.shape[0] < n:
            cap = max(64, n)
            if arr is not None:
                cap = max(cap, 2 * arr.shape[0])
            new = np.empty(cap, dtype=dtype)
            if name == "iota":
                new[:] = np.arange(cap, dtype=dtype)
            elif name == "ones":
                new.fill(1.0)
            self._slabs[name] = new
            self._allocs[name] = self._allocs.get(name, 0) + 1
            self.grows += 1
            if self.on_grow is not None:
                self.on_grow()
            arr = new
        return arr

    def empty(self, name: str, n: int, dtype=float) -> np.ndarray:
        """Uninitialised length-``n`` view of the named slab."""
        return self._slab(name, n, dtype)[:n]

    def zeros(self, name: str, n: int, dtype=float) -> np.ndarray:
        """Zero-filled length-``n`` view of the named slab."""
        out = self.empty(name, n, dtype)
        out.fill(0)
        return out

    def iota(self, n: int) -> np.ndarray:
        """``arange(n)`` view of the shared iota slab (treat read-only)."""
        return self._slab("iota", n, np.intp)[:n]

    def ones(self, n: int) -> np.ndarray:
        """All-ones length-``n`` view (treat read-only)."""
        return self._slab("ones", n, float)[:n]

    def buffer_stats(self) -> dict[str, tuple[int, int, int]]:
        """``(identity, capacity, allocations)`` of every live slab, for hoisting gates."""
        return {
            name: (id(arr), arr.shape[0], self._allocs[name])
            for name, arr in sorted(self._slabs.items())
        }


def maxmin_rates_pairs(
    pair_flow: np.ndarray,
    pair_link: np.ndarray,
    nflows: int,
    residual: np.ndarray,
    weights: Optional[np.ndarray] = None,
    scratch: Optional[FairShareScratch] = None,
) -> np.ndarray:
    """Core progressive-filling solver over a flat (flow, link) incidence.

    Pair *i* says "flow ``pair_flow[i]`` traverses link ``pair_link[i]``".
    This entry point exists so a caller that maintains the incidence
    arrays *persistently* (the :class:`~repro.simnet.network.Network`
    hot path) can solve without re-concatenating per-flow path arrays on
    every recompute; :func:`maxmin_rates` is the list-of-paths wrapper.

    Flow ids may be sparse: an id in ``[0, nflows)`` that appears in no
    pair simply keeps rate 0 (the caller uses this for dead slots in a
    lazily-compacted arena).

    Parameters
    ----------
    pair_flow, pair_link:
        Equal-length integer arrays of the incidence pairs.
    nflows:
        Size of the returned rate vector (flow-slot arena size).
    residual:
        Per-link residual capacity in bytes/second (already net of
        rigid traffic; down links should be passed as 0).
    weights:
        Optional positive per-flow weights.  Unfrozen flow *i* ramps at
        ``weights[i] x level`` — weighted max-min, the fluid analogue
        of per-flow WFQ/QoS queues.  §II motivates exactly this: "if
        reducer-0 receives five times more data then ... the flows
        terminated at reducer-0 should get five times more network
        capacity (bandwidth) than reducer-1".
    scratch:
        Optional :class:`FairShareScratch`; reuses grow-only buffers for
        the solver state instead of allocating per call (bit-identical).
    """
    rates = np.zeros(nflows) if scratch is None else scratch.zeros("p_rates", nflows)
    if nflows == 0 or pair_flow.size == 0:
        return rates
    nlinks = residual.shape[0]
    if weights is None:
        w = np.ones(nflows) if scratch is None else scratch.ones(nflows)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (nflows,):
            raise ValueError("weights must have one entry per flow")
    pair_weight = w[pair_flow]
    if weights is not None and (pair_weight <= 0).any():
        raise ValueError("weights must be positive")

    if scratch is None:
        cap = residual.astype(float).copy()
        # Per-link saturation threshold: relative to that link's own
        # residual so a tiny link next to a huge one is not frozen early.
        eps = _REL_EPS * np.maximum(cap, 1.0)
        active = np.zeros(nflows, dtype=bool)
        sat_buf = None
    else:
        cap = scratch.empty("p_cap", nlinks)
        np.copyto(cap, residual)
        eps = scratch.empty("p_eps", nlinks)
        np.maximum(cap, 1.0, out=eps)
        eps *= _REL_EPS
        active = scratch.zeros("p_active", nflows, bool)
        sat_buf = scratch.empty("p_sat", nlinks, bool)
    active[pair_flow] = True
    level = 0.0

    # Each iteration saturates at least one link carrying an active flow
    # and freezes its flows, so this terminates in <= nlinks iterations.
    for _ in range(nlinks + 1):
        live_pairs = active[pair_flow]
        if not live_pairs.any():
            break
        # per-link sum of active weights replaces the plain flow count
        wsum = np.bincount(
            pair_link[live_pairs], weights=pair_weight[live_pairs], minlength=nlinks
        )
        loaded = wsum > 0
        headroom = cap[loaded] / wsum[loaded]
        delta = float(headroom.min())
        if delta > 0:
            level += delta
            cap[loaded] -= delta * wsum[loaded]
        if sat_buf is None:
            saturated = np.zeros(nlinks, dtype=bool)
        else:
            saturated = sat_buf
            saturated.fill(False)
        saturated[loaded] = cap[loaded] <= eps[loaded]
        frozen_pairs = live_pairs & saturated[pair_link]
        # Duplicate flow ids are fine below: fancy assignment writes the
        # same value for every duplicate, so deduplication (np.unique,
        # which sorts) would only add cost to the hot loop.
        frozen_flows = pair_flow[frozen_pairs]
        if frozen_flows.size == 0:
            # Numerical corner: no link crossed the eps threshold.  Force
            # the tightest link to saturate to guarantee progress.
            loaded_idx = np.flatnonzero(loaded)
            tight = loaded_idx[int(np.argmin(cap[loaded_idx] / wsum[loaded_idx]))]
            frozen_flows = pair_flow[live_pairs & (pair_link == tight)]
        rates[frozen_flows] = level * w[frozen_flows]
        active[frozen_flows] = False
    return rates


def incidence_components(
    pair_flow: np.ndarray,
    pair_link: np.ndarray,
    nflows: int,
    nlinks: int,
    scratch: Optional[FairShareScratch] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Connected components of the bipartite (flow, link) incidence graph.

    Two flows are in the same component when a chain of shared links
    joins them; a link belongs to the component of the flows crossing
    it.  This is exactly the independence structure of max-min fairness:
    progressive filling inside one component never reads or writes
    another component's links, so the solver may run per component (and,
    incrementally, only on the components a mutation touched).

    Returns ``(flow_comp, link_comp, ncomp)``: labels in ``[0, ncomp)``,
    with ``-1`` for flows that appear in no pair and links no flow
    crosses.  Labels are ordered by each component's smallest flow id,
    so the labelling is deterministic for a given incidence.

    Implementation: vectorised min-label propagation — each sweep pulls
    every link's label down to the minimum of its flows' labels and
    back, until every pair's flow and link agree; sweeps needed = half
    the graph diameter (small on Clos fabrics, where any two flows
    sharing a pod meet within a few hops).  A component's label is then
    its smallest flow id, the one flow still labelled by itself.
    """
    if scratch is None:
        iota = np.arange(nflows, dtype=np.intp)
        flow_lab = iota.copy()
        link_lab = np.full(nlinks, np.iinfo(np.intp).max, dtype=np.intp)
        has_pairs = np.zeros(nflows, dtype=bool)
        remap = np.full(nflows, -1, dtype=np.intp)
        flow_comp = np.empty(nflows, dtype=np.intp)
        link_comp = np.full(nlinks, -1, dtype=np.intp)
    else:
        iota = scratch.iota(nflows)
        flow_lab = scratch.empty("c_flow_lab", nflows, np.intp)
        np.copyto(flow_lab, iota)
        link_lab = scratch.empty("c_link_lab", nlinks, np.intp)
        link_lab.fill(np.iinfo(np.intp).max)
        has_pairs = scratch.zeros("c_has_pairs", nflows, bool)
        remap = scratch.empty("c_remap", nflows, np.intp)
        remap.fill(-1)
        flow_comp = scratch.empty("c_flow_comp", nflows, np.intp)
        link_comp = scratch.empty("c_link_comp", nlinks, np.intp)
        link_comp.fill(-1)
    if pair_flow.size:
        while True:
            pulled = flow_lab[pair_flow]
            np.minimum.at(link_lab, pair_link, pulled)
            pushed = link_lab[pair_link]
            if np.array_equal(pulled, pushed):
                break
            np.minimum.at(flow_lab, pair_flow, pushed)
    has_pairs[pair_flow] = True
    # ascending roots ⇒ components ordered by their smallest flow id;
    # a pairless flow is no root, so it maps to -1
    roots = np.flatnonzero(has_pairs & (flow_lab == iota))
    remap[roots] = iota[: roots.size]
    np.take(remap, flow_lab, out=flow_comp)
    if pair_link.size:
        link_comp[pair_link] = flow_comp[pair_flow]
    return flow_comp, link_comp, int(roots.size)


def maxmin_rates_componentwise(
    pair_flow: np.ndarray,
    pair_link: np.ndarray,
    nflows: int,
    residual: np.ndarray,
    weights: Optional[np.ndarray] = None,
    scratch: Optional[FairShareScratch] = None,
    labels: Optional[tuple[np.ndarray, np.ndarray, int]] = None,
) -> np.ndarray:
    """Canonical component-decomposed max-min solve.

    Discovers the connected components of the incidence graph and runs
    :func:`maxmin_rates_pairs` over each in isolation.  The result is
    the same max-min allocation as one global progressive fill — the
    allocation inside a component depends only on that component — but
    every float operation now reads only component-local state, which
    is what makes *delta* solves possible: re-running this function
    over any subset of the pairs that covers whole components yields
    bit-identical rates for those components' flows.  (The interleaved
    global fill accumulated its water level across components, so its
    low-order bits depended on unrelated traffic; this form does not.)

    Flows outside every component in the given pairs keep rate 0 — the
    incremental caller overwrites only the slots it scoped.

    ``labels`` is an optional ``(flow_comp, link_comp, ncomp)`` from
    :func:`incidence_components` over a larger incidence of which the
    given pairs are whole components — e.g. the whole live incidence,
    when the caller passes only the components it wants re-solved.  It
    replaces the labelling pass; the rates are the same either way.

    With ``scratch``, all solver state (including the component labels)
    lives in grow-only buffers; the returned array is a view
    into one, valid until the next solve against the same scratch.
    """
    rates = np.zeros(nflows) if scratch is None else scratch.zeros("w_rates", nflows)
    if nflows == 0 or pair_flow.size == 0:
        return rates
    nlinks = residual.shape[0]
    if labels is None:
        labels = incidence_components(pair_flow, pair_link, nflows, nlinks, scratch=scratch)
    flow_comp, link_comp, ncomp = labels
    pair_comp = flow_comp[pair_flow]
    if ncomp == 1 or (pair_comp == pair_comp[0]).all():
        # Identical to the sliced path (same loaded set, same order) —
        # skips the remap when the pairs form one component anyway.
        return maxmin_rates_pairs(
            pair_flow, pair_link, nflows, residual, weights=weights, scratch=scratch
        )
    w = None if weights is None else np.asarray(weights, dtype=float)
    # Stable grouping preserves within-component pair order, so each
    # component's bincount accumulation order — and therefore its bits —
    # matches a solve that never saw the other components' pairs.
    order = np.argsort(pair_comp, kind="stable")
    bounds = np.searchsorted(pair_comp[order], np.arange(ncomp + 1))
    for c in np.flatnonzero(np.diff(bounds)).tolist():
        sel = order[bounds[c]: bounds[c + 1]]
        pf_c, pl_c = pair_flow[sel], pair_link[sel]
        slots = np.flatnonzero(flow_comp == c)
        links = np.flatnonzero(link_comp == c)
        local = maxmin_rates_pairs(
            np.searchsorted(slots, pf_c),
            np.searchsorted(links, pl_c),
            slots.size,
            residual[links],
            weights=None if w is None else w[slots],
            scratch=scratch,
        )
        rates[slots] = local
    return rates


def maxmin_rates(
    flow_links: list[np.ndarray],
    residual: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute (weighted) max-min fair rates from per-flow path lists.

    Parameters
    ----------
    flow_links:
        For each flow, the integer link indices it traverses.  Every
        flow must traverse at least one link.
    residual:
        Per-link residual capacity in bytes/second (already net of
        rigid traffic; down links should be passed as 0).
    weights:
        Optional positive per-flow weights (see
        :func:`maxmin_rates_pairs`).

    Returns
    -------
    np.ndarray
        Rate per flow.  Flows crossing a zero-residual link get 0.

    Raises
    ------
    ValueError
        If a flow's link list is empty (the documented precondition) —
        such a flow would otherwise silently freeze at rate 0.
    """
    nflows = len(flow_links)
    for f, links in enumerate(flow_links):
        if len(links) == 0:
            raise ValueError(f"flow {f} has an empty link list")
    if nflows == 0:
        return np.zeros(0)
    nlinks = residual.shape[0]
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (nflows,):
            raise ValueError("weights must have one entry per flow")
        if (w <= 0).any():
            raise ValueError("weights must be positive")
    # Flat incidence: pair i says "flow pair_flow[i] uses link pair_link[i]".
    pair_flow = np.concatenate(
        [np.full(len(l), f, dtype=np.intp) for f, l in enumerate(flow_links)]
    )
    pair_link = np.concatenate([np.asarray(l, dtype=np.intp) for l in flow_links])
    if pair_link.size and (pair_link.max() >= nlinks or pair_link.min() < 0):
        raise IndexError("flow references a link outside the residual array")
    return maxmin_rates_pairs(pair_flow, pair_link, nflows, residual, weights=weights)


def path_available_bandwidth(load: np.ndarray, capacity: np.ndarray, lids: list[int]) -> float:
    """Available bandwidth of a path = min over its links of (capacity - load).

    An empty path is a caller bug (it used to yield ``inf``, which made
    a mis-built path look infinitely attractive to allocation); enforce
    the same non-empty precondition as :func:`maxmin_rates`.
    """
    if not lids:
        raise ValueError("path has an empty link list")
    idx = np.asarray(lids, dtype=np.intp)
    return float(np.min(capacity[idx] - load[idx]))
