"""Pythia routing module: the maintained multi-path routing graph.

Thin adapter over the controller's topology service (§IV): ingests
topology events, keeps the k-shortest-path sets fresh, and exposes the
candidate path list per aggregate entry.  For rack-pair aggregates the
module picks, for every member server pair, the concrete path whose
switch backbone matches the aggregate's chosen trunk — one routing
decision fanned out to many rules.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.sdn.topology_service import TopologyService
from repro.simnet.links import Link
from repro.simnet.topology import NodeKind, Topology


class RoutingGraph:
    """Candidate-path provider with failure-event propagation."""

    def __init__(self, topology_service: TopologyService) -> None:
        self.service = topology_service
        self.topology: Topology = topology_service.topology
        self._failure_listeners: list[Callable[[Link], None]] = []
        # (src, dst, backbone) -> matching path, valid for one topology
        # version: rack-aggregate fan-out asks the same question for
        # every member pair on every allocation round.
        self._backbone_memo: dict[
            tuple[str, str, tuple[str, ...]], Optional[list[int]]
        ] = {}
        self._backbone_version = -1
        self._m_backbone_hits = obs.get_registry().counter(
            "routing.backbone_memo_hits"
        )
        topology_service.on_change(self._on_change)

    def on_failure(self, fn: Callable[[Link], None]) -> None:
        """Register a link-failure listener."""
        self._failure_listeners.append(fn)

    def _on_change(self, link: Link) -> None:
        if not link.up:
            for fn in list(self._failure_listeners):
                fn(link)

    # ------------------------------------------------------------------
    def candidate_paths(self, src: str, dst: str) -> list[list[int]]:
        """k-shortest link-id paths between two servers, up links only."""
        return self.service.k_paths_links(src, dst)

    def candidate_incidence(
        self, src: str, dst: str
    ) -> tuple[list[list[int]], np.ndarray]:
        """Candidate link-id paths plus their padded incidence matrix."""
        return self.service.k_paths_incidence(src, dst)

    def switch_backbone(self, lids: list[int]) -> tuple[str, ...]:
        """The switch-only node subsequence of a path (the trunk choice)."""
        nodes = self.topology.path_nodes(lids)
        return tuple(
            n for n in nodes if self.topology.nodes[n].kind is NodeKind.SWITCH
        )

    def path_matching_backbone(
        self, src: str, dst: str, backbone: tuple[str, ...]
    ) -> Optional[list[int]]:
        """A (src, dst) path routed over the same switches, if one exists.

        Memoised per (pair, backbone, topology-version): callers fan a
        single trunk choice out to every member pair of a rack
        aggregate, so the same lookup repeats on every round.
        """
        version = self.topology.version
        if version != self._backbone_version:
            self._backbone_memo.clear()
            self._backbone_version = version
        key = (src, dst, backbone)
        try:
            result = self._backbone_memo[key]
        except KeyError:
            result = None
            for path in self.candidate_paths(src, dst):
                if self.switch_backbone(path) == backbone:
                    result = path
                    break
            self._backbone_memo[key] = result
        else:
            self._m_backbone_hits.inc()
        return result

    @property
    def recomputations(self) -> int:
        """Topology-change-driven routing recomputations so far."""
        return self.service.recomputations
