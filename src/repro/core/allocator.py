"""Predicted-flow path allocation (the paper's bin-packing heuristic).

§IV: "we used a first-fit bin-packing heuristic to jointly allocate
sets of predicted shuffle transfer flows to available paths.  Our
heuristic combines the link utilization information provided by the
[controller] link load update service with the communication intention
information collected by our Pythia monitor ... the aggregated flows
are assigned to the path that has the highest available bandwidth."

Availability here accounts for *both* information sources the paper
names: the measured background load (link-stats service) determines
each path's residual drain rate, and the communication intent (both
the shuffle bytes still in flight and the predicted bytes already
packed onto the path this round) determines how much of that rate is
spoken for.  A path's effective availability for a new aggregate is
therefore its residual rate discounted by its queued bytes — i.e. the
path that would complete the transfer soonest wins.  Entries are
processed in decreasing size order (first-fit decreasing), the
flow-criticality ordering the paper contrasts with Hedera (§VI).

Because §IV notes the design "is modular enough to support further flow
scheduling algorithms", two alternates ship alongside the paper's
heuristic: best-fit (tightest path whose residual still covers the
expected demand) and water-filling (first-fit's ETA objective, but
entries whose ETA and queued bytes tie at 1e-6 rounding go round-robin
across the tied paths instead of always to the first); the ablation
benchmark compares all three.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.aggregation import AggregateEntry
from repro.core.routing import RoutingGraph
from repro.sdn.stats_service import LinkStatsService
from repro.simnet.engine import Simulator
from repro.simnet.network import Network

#: Residual-rate floor (bytes/s) so ETA scores stay finite on saturated paths.
_RATE_FLOOR = 1.0


class _BaseAllocator:
    """Shared machinery: residual rates, queued bytes, demand planning."""

    name = "base"

    def __init__(
        self,
        sim: Simulator,
        routing: RoutingGraph,
        stats: LinkStatsService,
        network: Network,
        demand_horizon: float = 10.0,
        ordering: str = "criticality",
        forecast=None,
    ) -> None:
        self.sim = sim
        self.routing = routing
        self.stats = stats
        self.network = network
        #: optional :class:`repro.forecast.service.ForecastService`;
        #: when set, residuals are scored against the predicted
        #: background at ``now + horizon`` instead of the measured EWMA
        #: (the service itself falls back to the EWMA when stale).
        self.forecast = forecast
        #: how long a placed-but-not-yet-started prediction keeps its
        #: claim on a path before the in-flight byte counters take over.
        self.demand_horizon = demand_horizon
        #: "criticality" = first-fit decreasing (paper); "arrival" =
        #: FIFO, the FlowComb-style contrast of §VI.
        self.ordering = ordering
        self._planned = np.zeros(len(network.topology.links))
        self.allocations = 0
        self._registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        self._m_placements = self._registry.counter("allocator.placements")
        self._m_planned_hw = self._registry.gauge("allocator.planned_load_bytes")

    # ------------------------------------------------------------------
    def allocate(
        self, entries: list[AggregateEntry]
    ) -> list[tuple[AggregateEntry, list[int]]]:
        """Assign each entry a path; largest predicted volume first.

        Links are scored against the forecast service's background
        prediction when forecasting is on, the measured EWMA otherwise.
        The per-link scoring arrays carry one extra sentinel slot at
        index ``nlinks`` — incidence-matrix rows are padded with that
        id, so the pad contributes +inf to a min-residual reduction and
        0 to a max-queued reduction (queued bytes are never negative).
        """
        capacity = self.network.link_capacity()
        if self.forecast is not None:
            background = self.forecast.predict_background()
        else:
            background = self.stats.background_load_array()
        nlinks = len(capacity)
        resid = np.empty(nlinks + 1)
        np.subtract(capacity, background, out=resid[:nlinks])
        resid[nlinks] = np.inf
        queued = np.zeros(nlinks + 1)
        queued[:nlinks] = self._outstanding_bytes() + self._planned
        out: list[tuple[AggregateEntry, list[int]]] = []
        if self.ordering == "criticality":
            ordered = sorted(entries, key=lambda e: -e.predicted_bytes)
        else:
            ordered = list(entries)
        for entry in ordered:
            src, dst = self._representative_pair(entry)
            raw_paths, inc = self.routing.candidate_incidence(src, dst)
            if not raw_paths:
                continue
            residuals = np.maximum(resid[inc].min(axis=1), _RATE_FLOOR)
            queued_bytes = queued[inc].max(axis=1)
            delta = self._unplanned_bytes(entry)
            idx = self._choose(raw_paths, residuals, queued_bytes, delta)
            chosen = raw_paths[idx]
            chosen_arr = np.asarray(chosen, dtype=np.intp)
            self._plan(chosen_arr, delta)
            queued[chosen_arr] += delta
            entry.path = list(chosen)
            entry.allocated_at = self.sim.now
            self.allocations += 1
            self._m_placements.inc()
            # path-choice distribution: which candidate rank won
            self._registry.counter(f"allocator.path_choice.{idx}").inc()
            self._m_planned_hw.set(float(self._planned.max()))
            if self._tracer is not None:
                self._tracer.emit(
                    self.sim.now,
                    "allocator",
                    "placement",
                    key=repr(entry.key),
                    path_rank=idx,
                    bytes=entry.predicted_bytes,
                )
            out.append((entry, list(chosen)))
        return out

    # ------------------------------------------------------------------
    def _representative_pair(self, entry: AggregateEntry) -> tuple[str, str]:
        return min(entry.pairs)  # deterministic representative

    def _outstanding_bytes(self) -> np.ndarray:
        """Bytes still in flight on each link (application transfers)."""
        out = np.zeros(len(self.network.topology.links))
        for flow in self.network.elastic:
            if flow.path and flow.remaining > 0:
                out[np.asarray(flow.path, dtype=np.intp)] += flow.remaining
        return out

    def _unplanned_bytes(self, entry: AggregateEntry) -> float:
        """Entry bytes not yet claimed on any path by earlier rounds."""
        counted = getattr(entry, "_planned_bytes", 0.0)
        delta = max(0.0, entry.predicted_bytes - counted)
        entry._planned_bytes = entry.predicted_bytes  # type: ignore[attr-defined]
        return delta

    def _plan(self, path_idx: np.ndarray, delta: float) -> None:
        if delta <= 0:
            return
        self._planned[path_idx] += delta
        self.sim.schedule(self.demand_horizon, self._expire, path_idx, delta)

    def _expire(self, path_idx: np.ndarray, delta: float) -> None:
        self._planned[path_idx] = np.maximum(0.0, self._planned[path_idx] - delta)

    def planned_load(self) -> np.ndarray:
        """Planned-but-unstarted bytes per link (for tests/inspection)."""
        return self._planned.copy()

    # subclass hook ----------------------------------------------------
    def _choose(
        self,
        paths: list[list[int]],
        residuals: np.ndarray,
        queued_bytes: np.ndarray,
        delta: float,
    ) -> int:
        raise NotImplementedError

    @staticmethod
    def _eta(
        residuals: np.ndarray, queued_bytes: np.ndarray, delta: float
    ) -> np.ndarray:
        """Expected completion of the new bytes behind each path's queue."""
        return (np.asarray(queued_bytes, dtype=float) + delta) / np.asarray(
            residuals, dtype=float
        )


class FirstFitAllocator(_BaseAllocator):
    """The paper's heuristic: the path with the highest effective
    availability (equivalently: the earliest expected completion)."""

    name = "first_fit"

    def _choose(self, paths, residuals, queued_bytes, delta) -> int:
        etas = self._eta(residuals, queued_bytes, delta)
        return int(np.argmin(etas))


class BestFitAllocator(_BaseAllocator):
    """Tightest residual that still covers the expected demand rate."""

    name = "best_fit"

    def _choose(self, paths, residuals, queued_bytes, delta) -> int:
        residuals = np.asarray(residuals, dtype=float)
        queued_bytes = np.asarray(queued_bytes, dtype=float)
        demand_rate = delta / self.demand_horizon
        fitting = (residuals >= demand_rate) & (
            queued_bytes / residuals <= self.demand_horizon
        )
        if fitting.any():
            # argmin takes the first occurrence — the same (residual,
            # index) tie-break as the old min-over-tuples scan.
            return int(np.argmin(np.where(fitting, residuals, np.inf)))
        etas = self._eta(residuals, queued_bytes, delta)
        return int(np.argmin(etas))


class WaterFillingAllocator(_BaseAllocator):
    """First-fit's ETA objective with a round-robin among rounded ties."""

    name = "water_filling"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rotation = 0

    def _choose(self, paths, residuals, queued_bytes, delta) -> int:
        # Identical objective to first-fit for a single entry, but the
        # tie-break spreads equal-ETA entries round-robin rather than
        # always taking the first path.
        etas = self._eta(residuals, queued_bytes, delta)
        # Python round() on the float64 values, exactly as the scalar
        # code did — np.round can differ at half-way points.
        keys = [
            (round(float(e), 6), round(float(q), 6))
            for e, q in zip(etas, queued_bytes)
        ]
        best = min(keys)
        tied = [i for i, k in enumerate(keys) if k == best]
        choice = tied[self._rotation % len(tied)]
        self._rotation += 1
        return choice


_ALLOCATORS = {
    "first_fit": FirstFitAllocator,
    "best_fit": BestFitAllocator,
    "water_filling": WaterFillingAllocator,
}


def make_allocator(
    kind: str,
    sim: Simulator,
    routing: RoutingGraph,
    stats: LinkStatsService,
    network: Network,
    demand_horizon: float,
    ordering: str = "criticality",
    forecast=None,
) -> _BaseAllocator:
    """Factory keyed by :attr:`PythiaConfig.allocation`."""
    try:
        cls = _ALLOCATORS[kind]
    except KeyError:
        raise ValueError(f"unknown allocator {kind!r}") from None
    return cls(
        sim,
        routing,
        stats,
        network,
        demand_horizon=demand_horizon,
        ordering=ordering,
        forecast=forecast,
    )
