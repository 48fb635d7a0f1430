"""NetFlow-style measurement probes.

§V-C of the paper deploys NetFlow probes on every server plus a central
collector, then post-processes the traces into *cumulative per-server
sourced shuffle volume over time* — the measured curve of Figure 5.
This module reproduces that pipeline: periodic byte-counter sampling of
every flow whose destination port is the Hadoop shuffle port, keyed by
sourcing server.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow
from repro.simnet.network import Network


@dataclass
class _Series:
    times: list[float]
    values: list[float]


class NetFlowCollector:
    """Samples cumulative shuffle egress per server.

    Sampling happens on a fixed export interval while shuffle flows are
    active, plus at every flow start/end so phase boundaries are sharp.
    The sampler stops rescheduling itself when the network goes idle,
    so it never keeps the event queue alive after a job finishes.

    A sample costs O(live shuffle flows), not O(flows ever seen): each
    source keeps the final bytes of its finished flows in one
    accumulator (folded in at the flow's ``"end"``) plus an
    insertion-ordered set of its live flows, and a sample reads only the
    live flows' byte counters.  ``traffic_matrix`` is served the same
    way from per-(src, dst) accumulators, so the probe holds no finished
    flow.
    """

    def __init__(self, sim: Simulator, network: Network, interval: float = 1.0) -> None:
        self.sim = sim
        self.network = network
        self.interval = interval
        #: per source: bytes of its finished shuffle flows, and its live ones
        self._done: dict[str, float] = {}
        self._live: dict[str, dict[Flow, None]] = {}
        self._nlive = 0
        self._pair_done: dict[tuple[str, str], float] = defaultdict(float)
        self._series: dict[str, _Series] = defaultdict(lambda: _Series([], []))
        self._ticking = False
        network.add_flow_hook(self._on_flow_event)

    # ------------------------------------------------------------------
    def _on_flow_event(self, event: str, flow: Flow) -> None:
        if not flow.is_shuffle():
            return
        if event == "start":
            live = self._live.get(flow.src)
            if live is None:
                live = self._live[flow.src] = {}
                self._done[flow.src] = 0.0
            live[flow] = None
            self._nlive += 1
            if not self._ticking:
                self._ticking = True
                self.sim.schedule(0.0, self._tick)
            else:
                self._sample()
        elif event == "end":
            live = self._live.get(flow.src, {})
            if flow in live:
                del live[flow]
                self._nlive -= 1
                sent = flow.bytes_sent
                self._done[flow.src] += sent
                self._pair_done[(flow.src, flow.dst)] += sent
            self._sample()

    def _tick(self) -> None:
        self._sample()
        if self._nlive:
            self.sim.schedule(self.interval, self._tick)
        else:
            self._ticking = False

    def _sample(self) -> None:
        self.network.sample_counters()
        now = self.sim.now
        done = self._done
        for src, live in self._live.items():
            total = done[src] + sum(f.bytes_sent for f in live)
            series = self._series[src]
            if series.times and series.times[-1] == now:
                series.values[-1] = total
            else:
                series.times.append(now)
                series.values.append(total)

    # ------------------------------------------------------------------
    # trace post-processing (the paper's collector-side analysis)
    # ------------------------------------------------------------------
    def servers(self) -> list[str]:
        """Servers that sourced shuffle traffic, sorted."""
        return sorted(self._series)

    def series(self, server: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, cumulative bytes) actually sourced by ``server``."""
        s = self._series[server]
        return np.asarray(s.times), np.asarray(s.values)

    def total_sourced(self, server: str) -> float:
        """Final cumulative shuffle bytes sourced by one server."""
        s = self._series[server]
        return s.values[-1] if s.values else 0.0

    def traffic_matrix(self) -> dict[tuple[str, str], float]:
        """Final shuffle bytes exchanged per (src, dst) server pair."""
        matrix = defaultdict(float, self._pair_done)
        for live in self._live.values():
            for f in live:
                matrix[(f.src, f.dst)] += f.bytes_sent
        return dict(matrix)
