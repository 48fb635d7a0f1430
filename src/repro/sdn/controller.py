"""Controller kernel: hosts services and applications.

A thin composition root mirroring the OpenDaylight deployment in the
paper: one controller instance per experiment, connected out-of-band
(the management network — modelled as a constant message latency that
never touches the data network's links).
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro import obs
from repro.faults import runtime as faults_runtime
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.sdn.programming import FlowProgrammer
from repro.sdn.stats_service import LinkStatsService
from repro.sdn.topology_service import TopologyService


class ControllerApp(Protocol):
    """An SDN application pluggable into the controller."""

    name: str

    def start(self, controller: "Controller") -> None: ...

    def stop(self) -> None: ...


class Controller:
    """App-hosting controller with topology, stats, programming services."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        k_paths: int = 4,
        stats_period: float = 1.0,
        stats_alpha: float = 0.5,
        per_rule_latency: float = 0.004,
        control_rtt: float = 0.002,
        mgmt_latency: float = 0.002,
    ) -> None:
        self.sim = sim
        self.network = network
        #: one-way latency of the out-of-band management network that
        #: carries prediction notifications and controller traffic.
        self.mgmt_latency = mgmt_latency
        self.topology_service = TopologyService(network.topology, k=k_paths)
        self.stats_service = LinkStatsService(
            sim, network, period=stats_period, alpha=stats_alpha
        )
        self.programmer = FlowProgrammer(
            sim, per_rule_latency=per_rule_latency, control_rtt=control_rtt
        )
        self.apps: list[ControllerApp] = []
        self._started = False
        self._stats_enabled = True
        #: False while crashed: services halt, rule installs retry/fail,
        #: and policies degrade to default (ECMP) behaviour.
        self.online = True
        self.crashes = 0
        self.resyncs = 0
        self.rules_resynced = 0
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        self._m_crashes = registry.counter("controller.crashes")
        self._m_resynced = registry.counter("controller.rules_resynced")
        checker = faults_runtime.get_checker()
        if checker is not None:
            checker.watch_controller(self)

    def rule_install_budget(self, nrules: int = 1) -> float:
        """Seconds the control plane needs to program an n-rule batch.

        The modelled latency of one flow-mod transaction: one control
        RTT plus the per-rule programming time.  The staged pipeline's
        p99 prediction-to-install gate (``benchmarks/test_pipeline.py``)
        is held to this budget for the largest transaction it issued,
        and the controller-replay benchmark derives its 258 ms p99 limit
        from the same formula at ``pipeline_batch_max`` = 64 rules.
        """
        return (
            self.programmer.control_rtt
            + self.programmer.per_rule_latency * max(1, nrules)
        )

    def register(self, app: ControllerApp) -> None:
        """Attach an application (started immediately if running)."""
        self.apps.append(app)
        if self._started:
            app.start(self)

    def start(self, start_stats: bool = True) -> None:
        """Boot services and every registered application.

        ``start_stats=False`` skips the periodic link-stats poller —
        the service harness (``repro serve``) runs with no data-plane
        flows, where an eternally self-rescheduling poll would keep
        the event queue from ever draining.
        """
        if self._started:
            return
        self._started = True
        self._stats_enabled = start_stats
        if start_stats:
            self.stats_service.start()
        for app in self.apps:
            app.start(self)

    def stop(self) -> None:
        """Stop periodic services so the event queue can drain."""
        if not self._started:
            return
        self._started = False
        self.stats_service.stop()
        for app in self.apps:
            app.stop()

    # ------------------------------------------------------------------
    # failure / recovery (driven by the chaos engine)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Controller outage: halt services, take the control channel down.

        The *data plane keeps forwarding*: rules already in the switch
        tables continue to match (that is the whole point of proactive
        programming), but stats polling stops and new installs fail into
        the programmer's retry/backlog path until :meth:`restore`.
        """
        if not self.online:
            return
        self.online = False
        self.crashes += 1
        self._m_crashes.inc()
        self.stats_service.stop()
        self.programmer.online = False
        if self._tracer is not None:
            self._tracer.emit(self.sim.now, "controller", "crash")

    def restore(self) -> None:
        """Controller restart: resume services and resync switch state.

        Recovery replays the install backlog and asks every application
        that supports it to reconcile the switch tables against its
        current intent (rules whose install was lost mid-outage get
        reinstalled; superseded ones are dropped).
        """
        if self.online:
            return
        self.online = True
        self.programmer.online = True
        if self._started and self._stats_enabled:
            self.stats_service.start()
        self.resyncs += 1
        # Drop the raw backlog: apps reinstall from *current* intent,
        # which supersedes whatever was queued when the outage began.
        abandoned = self.programmer.take_failed()
        resynced = 0
        for app in self.apps:
            resync = getattr(app, "resync", None)
            if resync is not None:
                resynced += resync()
        self.rules_resynced += resynced
        self._m_resynced.inc(resynced)
        if self._tracer is not None:
            self._tracer.emit(
                self.sim.now, "controller", "restore",
                abandoned=len(abandoned), resynced=resynced,
            )

    def app(self, name: str) -> Optional[ControllerApp]:
        """Find a registered application by name."""
        for a in self.apps:
            if a.name == name:
                return a
        return None
