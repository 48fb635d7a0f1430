"""Composition root: the one place the control-plane stack is wired.

Every run of the reproduction — a figure cell, a fleet, a job chain,
the Figure-1b flow pair or the long-lived pipeline service — stands on
the same four pieces: a simulator, a topology with its network, an SDN
controller, and the scheduler application the controller hosts.
:func:`build_stack` builds them in a fixed order, with the controller's
stats, rule-install and management-network timings all taken from the
:class:`~repro.core.config.PythiaConfig`, so no caller can drop a knob
on the floor.  Callers layer whatever else they need (Hadoop, probes,
background traffic) on top and start the controller themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.config import PythiaConfig
from repro.core.scheduler import PythiaScheduler
from repro.sdn.controller import Controller
from repro.sdn.hedera import HederaScheduler
from repro.sdn.policy import EcmpPolicy, PathPolicy
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.topology import Topology, two_rack

SCHEDULERS = ("pythia", "ecmp", "hedera")


@dataclass
class Stack:
    """The wired (but not yet started) control-plane stack of one run."""

    sim: Simulator
    topology: Topology
    network: Network
    controller: Controller
    config: PythiaConfig
    #: the hosted scheduler app (at most one of the two is set).
    pythia: Optional[PythiaScheduler] = None
    hedera: Optional[HederaScheduler] = None
    #: the hash-based default route of the ecmp and hedera stacks.
    ecmp: Optional[EcmpPolicy] = None

    @property
    def policy(self) -> PathPolicy:
        """How flows are placed: Pythia's rule-driven policy (available
        once the controller has started) or ECMP."""
        if self.pythia is not None:
            return self.pythia.policy
        assert self.ecmp is not None
        return self.ecmp


def build_stack(
    scheduler: str = "pythia",
    pythia_config: Optional[PythiaConfig] = None,
    topology_factory: Callable[[], Topology] = two_rack,
) -> Stack:
    """Build the simulator, network, controller and scheduler app.

    ``scheduler`` is ``"pythia"``, ``"ecmp"`` or ``"hedera"``.  The
    controller is returned unstarted: the caller decides whether the
    periodic stats poller runs (``controller.start(start_stats=...)``).
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; choose from {SCHEDULERS}")
    config = pythia_config or PythiaConfig()
    sim = Simulator()
    topology = topology_factory()
    network = Network(sim, topology)
    controller = Controller(
        sim,
        network,
        k_paths=config.k_paths,
        stats_period=config.stats_period,
        stats_alpha=config.stats_alpha,
        per_rule_latency=config.per_rule_latency,
        control_rtt=config.control_rtt,
        mgmt_latency=config.mgmt_latency,
    )
    stack = Stack(sim, topology, network, controller, config)
    if scheduler == "pythia":
        stack.pythia = PythiaScheduler(config)
        controller.register(stack.pythia)
    else:
        if scheduler == "hedera":
            stack.hedera = HederaScheduler()
            controller.register(stack.hedera)
        stack.ecmp = EcmpPolicy(topology, k=config.k_paths)
    return stack


__all__ = ["SCHEDULERS", "Stack", "build_stack"]
