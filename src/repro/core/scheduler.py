"""PythiaScheduler: the controller application tying the chain together.

On every batch of newly-completed predictions it (re)allocates the
affected aggregates, fans each aggregate's path decision out to one
wildcard rule per member server pair, and installs the rules ahead of
the flows' arrival.  Shuffle flows that find a rule follow it; anything
else — and any flow arriving before its rule finished installing —
falls back to the default ECMP treatment, exactly as §IV scopes Pythia
to "only flows that are part of communication prediction".
"""

from __future__ import annotations

from typing import Optional

from repro.core.aggregation import (
    AggregateEntry,
    FlowAggregator,
    RackPairAggregation,
    ServerPairAggregation,
)
from repro.core.allocator import make_allocator
from repro.core.collector import PredictionCollector
from repro.core.config import PythiaConfig
from repro.core.routing import RoutingGraph
from repro.sdn.controller import Controller
from repro.sdn.policy import EcmpPolicy
from repro.sdn.programming import FlowProgrammer, Match, Rule
from repro.simnet.flows import SHUFFLE_PORT, Flow

#: rule priority for Pythia aggregates (above the ECMP default of 0).
RULE_PRIORITY = 10
#: clamp range for per-flow weights when weighted_shuffle is on.
WEIGHT_CLAMP = (0.25, 8.0)


class PythiaPolicy:
    """Path policy backed by the installed Pythia rules, ECMP fallback."""

    name = "pythia"

    def __init__(
        self,
        programmer: FlowProgrammer,
        fallback: EcmpPolicy,
        topology,
        routing,
        weigher=None,
    ) -> None:
        self._programmer = programmer
        self._fallback = fallback
        self._topology = topology
        self._routing = routing
        #: optional callable(flow) -> fair-share weight (weighted shuffle).
        self._weigher = weigher
        self.rule_hits = 0
        self.fallbacks = 0

    def _path_up(self, path: list[int]) -> bool:
        return all(self._topology.links[lid].up for lid in path)

    def _resolve(self, rule: Rule, flow: Flow) -> Optional[list[int]]:
        """Concrete path for this flow under the rule's routing decision.

        Exact-pair rules carry the flow's own path.  Prefix (rack-pair)
        rules carry a representative pair's path; the flow follows the
        same switch backbone between its own endpoints — which is
        exactly what per-switch forwarding entries would do.
        """
        links = rule.path
        if not links:
            return None
        topo = self._topology
        if (
            topo.links[links[0]].src == flow.src
            and topo.links[links[-1]].dst == flow.dst
        ):
            return list(links) if self._path_up(links) else None
        backbone = self._routing.switch_backbone(links)
        path = self._routing.path_matching_backbone(flow.src, flow.dst, backbone)
        if path is not None and self._path_up(path):
            return path
        return None

    def place(self, flow: Flow) -> list[int]:
        """Rule-table path for the flow, ECMP on miss."""
        if self._weigher is not None:
            flow.weight = self._weigher(flow)
        rule = self._programmer.lookup(flow)
        if rule is not None:
            path = self._resolve(rule, flow)
            if path is not None:
                self.rule_hits += 1
                return path
        self.fallbacks += 1
        return self._fallback.place(flow)

    def repair(self, flow: Flow) -> Optional[list[int]]:
        """Rule-table path after failure, ECMP repair on miss.

        Repair is a *controller* action (recompute + reprogram), so it
        degrades to plain data-plane ECMP re-convergence while the
        controller is down — the Pythia plugin cannot help a flow it
        cannot reach.
        """
        if not self._programmer.online:
            return self._fallback.repair(flow)
        rule = self._programmer.lookup(flow)
        if rule is not None:
            path = self._resolve(rule, flow)
            if path is not None:
                return path
        return self._fallback.repair(flow)


class PythiaScheduler:
    """The Pythia OpenDaylight plugin (collector + routing + allocation)."""

    name = "pythia"

    def __init__(self, config: Optional[PythiaConfig] = None) -> None:
        self.config = config or PythiaConfig()
        self.controller: Optional[Controller] = None
        self.collector: Optional[PredictionCollector] = None
        self.aggregator: Optional[FlowAggregator] = None
        self.routing: Optional[RoutingGraph] = None
        self.allocator = None
        #: ForecastService / ProactiveRerouter, wired in start() when
        #: config.forecast_mode != "off"; None otherwise.
        self.forecast = None
        self.rerouter = None
        #: PipelineCore + its inline driver, wired in start() when
        #: config.pipeline_mode == "staged"; None otherwise.
        self.pipeline = None
        self._endpoint = None
        self._policy: Optional[PythiaPolicy] = None
        self._rules_by_key: dict[tuple, list[Rule]] = {}
        self._backbone_by_key: dict[tuple, tuple[str, ...]] = {}
        self.reallocations_on_failure = 0

    # ------------------------------------------------------------------
    # ControllerApp interface
    # ------------------------------------------------------------------
    def start(self, controller: Controller) -> None:
        """Wire collector, routing, allocator and policy together."""
        self.controller = controller
        topology = controller.network.topology
        if self.config.aggregation == "rack_pair":
            agg_policy = RackPairAggregation(topology)
        else:
            agg_policy = ServerPairAggregation()
        if self.config.pipeline_mode == "staged":
            # Imported here so the monolithic path never touches the
            # pipeline package (which stays genuinely optional at rest).
            from repro.pipeline import InlinePipelineDriver, PipelineCore

            self.pipeline = PipelineCore(
                controller.sim,
                agg_policy,
                allocate=lambda entries: self.allocator.allocate(entries),
                rules_for=self._rules_for,
                programmer=controller.programmer,
                nshards=self.config.pipeline_shards,
                queue_capacity=self.config.pipeline_queue_capacity,
                batch_max=self.config.pipeline_batch_max,
                coalesce=self.config.pipeline_coalesce,
            )
            # The core owns the bind-stage collector; its router merges
            # the shard aggregator partitions for read-side consumers
            # (failure repair, diagnostics).
            self.collector = self.pipeline.collector
            self.aggregator = self.pipeline.router
            self._endpoint = InlinePipelineDriver(controller.sim, self.pipeline)
        else:
            self.aggregator = FlowAggregator(agg_policy)
            self.collector = PredictionCollector(controller.sim, self.aggregator)
            self.collector.on_ready = self._on_ready
            self._endpoint = self.collector
        if self.config.record_messages:
            self.collector.tape = []
        self.routing = RoutingGraph(controller.topology_service)
        self.routing.on_failure(self._on_link_failure)
        if self.config.forecast_mode != "off":
            # Imported here so the measured-load pipeline never touches
            # the forecast package (core must not depend on it at rest).
            from repro.forecast import ForecastService, ProactiveRerouter, make_forecaster

            forecaster = make_forecaster(
                self.config.forecast_mode,
                nlinks=len(topology.links),
                period=self.config.stats_period,
            )
            self.forecast = ForecastService(
                controller.stats_service,
                forecaster,
                horizon=self.config.forecast_horizon,
            )
            self.rerouter = ProactiveRerouter(
                controller.network,
                controller.stats_service,
                self.forecast,
                controller.topology_service,
            )
        self.allocator = make_allocator(
            self.config.allocation,
            controller.sim,
            self.routing,
            controller.stats_service,
            controller.network,
            demand_horizon=self.config.demand_horizon,
            ordering=self.config.ordering,
            forecast=self.forecast,
        )
        self._policy = PythiaPolicy(
            controller.programmer,
            EcmpPolicy(topology, k=self.config.k_paths),
            topology,
            self.routing,
            weigher=self._reducer_weight if self.config.weighted_shuffle else None,
        )

    def stop(self) -> None:
        """Nothing to halt: the collector and pipeline are event-driven."""

    def resync(self) -> int:
        """Reconcile switch tables with current intent after an outage.

        Re-installs every rule the scheduler still wants that is not in
        the table (installs lost while the controller was down); rules
        abandoned mid-outage that are no longer intent stay dead.
        Returns the number of rules re-installed.

        In staged mode the pipeline performs the reconcile: it installs
        the same missing-intent set and additionally adopts in-flight
        transactions whose installs were abandoned mid-outage, so its
        exactly-once intent ledger stays balanced across the failover.
        """
        assert self.controller is not None
        if self.pipeline is not None:
            return self.pipeline.resync(
                rule for rules in self._rules_by_key.values() for rule in rules
            )
        programmer = self.controller.programmer
        installed = {id(r) for r in programmer._rules}
        missing = [
            rule
            for rules in self._rules_by_key.values()
            for rule in rules
            if id(rule) not in installed
            and id(rule) not in programmer._pending_rule_ids
        ]
        if missing:
            programmer.install(missing)
        return len(missing)

    # ------------------------------------------------------------------
    @property
    def policy(self) -> PythiaPolicy:
        """The PathPolicy the Hadoop layer should route through."""
        if self._policy is None:
            raise RuntimeError("scheduler not started")
        return self._policy

    @property
    def collector_endpoint(self):
        """Where the instrumentation middleware should deliver messages:
        the collector itself (monolithic) or the staged pipeline's
        ingress driver."""
        if self._endpoint is None:
            raise RuntimeError("scheduler not started")
        return self._endpoint

    # ------------------------------------------------------------------
    # control chain
    # ------------------------------------------------------------------
    def _on_ready(self, entries: list[AggregateEntry]) -> None:
        assert self.allocator is not None and self.controller is not None
        assignments = self.allocator.allocate(entries)
        rules: list[Rule] = []
        for entry, path in assignments:
            rules.extend(self._rules_for(entry, path))
        if rules:
            self.controller.programmer.install(rules)

    def _rules_for(
        self,
        entry: AggregateEntry,
        path: list[int],
        removed: Optional[list[Rule]] = None,
    ) -> list[Rule]:
        """One wildcard rule per member server pair, sharing the backbone.

        Rules are churned only when the routing decision changes: an
        entry that keeps its backbone gets rules installed just for
        member pairs not yet covered, which keeps switch-programming
        traffic and table pressure down (§IV's state-conservation aim).
        When ``removed`` is given, displaced rules are collected there
        instead of being removed immediately — the staged pipeline
        sends the whole diff as one batched flow-mod transaction.
        """
        assert self.routing is not None and self.controller is not None
        backbone = self.routing.switch_backbone(path)
        existing = self._rules_by_key.get(entry.key, [])
        if existing and self._backbone_by_key.get(entry.key) == backbone:
            if self.config.aggregation == "rack_pair":
                return []  # the prefix rule already covers any new pair
            covered = {(r.match.src_ip, r.match.dst_ip) for r in existing}
            fresh = self._build_rules(entry, backbone, skip_covered=covered)
            existing.extend(fresh)
            return fresh
        if removed is not None:
            removed.extend(existing)
        else:
            for old in existing:
                self.controller.programmer.remove(old)
        rules = self._build_rules(entry, backbone, skip_covered=set())
        self._rules_by_key[entry.key] = rules
        self._backbone_by_key[entry.key] = backbone
        return rules

    def _build_rules(
        self,
        entry: AggregateEntry,
        backbone: tuple[str, ...],
        skip_covered: set[tuple],
    ) -> list[Rule]:
        assert self.routing is not None
        topology = self.routing.topology
        if self.config.aggregation == "rack_pair":
            # One prefix rule per rack pair: the §IV forwarding-state
            # conservation policy ("routing at the level of server
            # aggregations, e.g. racks").
            src, dst = min(entry.pairs)
            pair_path = self.routing.path_matching_backbone(src, dst, backbone)
            if pair_path is None:
                candidates = self.routing.candidate_paths(src, dst)
                if not candidates:
                    return []
                pair_path = candidates[0]

            def prefix(node: str) -> str:
                ip = topology.nodes[node].ip or node
                return ip.rsplit(".", 1)[0] + "."

            return [
                Rule(
                    match=Match(
                        src_prefix=prefix(src),
                        dst_prefix=prefix(dst),
                        src_port=SHUFFLE_PORT,
                    ),
                    path=pair_path,
                    priority=RULE_PRIORITY,
                )
            ]
        rules: list[Rule] = []
        for src, dst in sorted(entry.pairs):
            src_ip = topology.nodes[src].ip
            dst_ip = topology.nodes[dst].ip
            if (src_ip, dst_ip) in skip_covered:
                continue
            pair_path = self.routing.path_matching_backbone(src, dst, backbone)
            if pair_path is None:
                candidates = self.routing.candidate_paths(src, dst)
                if not candidates:
                    continue
                pair_path = candidates[0]
            rules.append(
                Rule(
                    match=Match(
                        src_ip=src_ip,
                        dst_ip=dst_ip,
                        src_port=SHUFFLE_PORT,
                    ),
                    path=pair_path,
                    priority=RULE_PRIORITY,
                )
            )
        return rules

    def _reducer_weight(self, flow) -> float:
        """Fair-share weight proportional to the reducer's volume share.

        §II: "if reducer-0 receives five times more data then ... the
        flows terminated at reducer-0 should get five times more
        network capacity (bandwidth) than reducer-1."
        """
        assert self.collector is not None
        job = flow.tags.get("job")
        reducer_id = flow.tags.get("reducer_id")
        if job is None or reducer_id is None:
            return 1.0
        volumes = [
            v for (j, _r), v in self.collector.reducer_volume.items() if j == job
        ]
        own = self.collector.reducer_volume.get((job, reducer_id))
        if not volumes or not own:
            return 1.0
        mean = sum(volumes) / len(volumes)
        if mean <= 0:
            return 1.0
        lo, hi = WEIGHT_CLAMP
        return float(min(hi, max(lo, own / mean)))

    def _on_link_failure(self, link) -> None:
        """Re-place aggregates routed over the failed link (§IV fault tolerance)."""
        assert self.aggregator is not None and self.allocator is not None
        if self.controller is not None and not self.controller.online:
            return  # crashed controllers cannot react; resync runs on restore
        affected = self.aggregator.entries_on_link(link.lid)
        if not affected:
            return
        self.reallocations_on_failure += len(affected)
        assignments = self.allocator.allocate(affected)
        rules: list[Rule] = []
        for entry, path in assignments:
            rules.extend(self._rules_for(entry, path))
        if rules and self.controller is not None:
            self.controller.programmer.install(rules)
