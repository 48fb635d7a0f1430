"""Figure 1b: adversarial ECMP shuffle-flow allocation.

The paper's second motivational scenario: two racks, two inter-rack
paths, Path-1 95 % loaded and Path-2 nearly idle.  ECMP's random local
hashing can assign a relatively large shuffle flow (159 MB, reducer-0
fetching from mapper-0) to the highly-loaded path "even if there is
available network capacity to complete the shuffle transfer faster".
Pythia, knowing both the load and the flow size, never does.

``run_fig1b`` constructs exactly that situation, demonstrates a port
draw under which ECMP lands the large flow on the hot path, and
contrasts the resulting transfer time against Pythia's placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instrumentation.messages import PredictionMessage, ReducerLocationMessage
from repro.sdn.ecmp import ecmp_index
from repro.simnet.engine import Simulator
from repro.simnet.flows import SHUFFLE_PORT, TCP, UDP, FiveTuple, Flow
from repro.simnet.network import Network
from repro.stack import build_stack

MB = 1e6
FLOW1_BYTES = 159 * MB      # reducer-0 <- mapper-0, the paper's large flow
FLOW2_BYTES = 39 * MB       # reducer-1 <- mapper-1
HOT_LOAD_FRACTION = 0.95    # Path-1 utilisation in Figure 1b
COLD_LOAD_FRACTION = 0.05


@dataclass
class Fig1bResult:
    """Path choices and transfer times of the two Figure-1b flows."""
    scheduler: str
    flow1_trunk: str
    flow1_seconds: float
    flow2_trunk: str
    flow2_seconds: float
    hot_trunk: str = "trunk0"

    @property
    def adversarial(self) -> bool:
        """True when the large flow landed on the 95 %-loaded path."""
        return self.flow1_trunk == self.hot_trunk


def _load_paths(sim: Simulator, net: Network, topo) -> None:
    """Put 95 % background on trunk0 and 5 % on trunk1 (both directions)."""
    cap = 125e6
    for frac, trunk in ((HOT_LOAD_FRACTION, "trunk0"), (COLD_LOAD_FRACTION, "trunk1")):
        for src, tor_a, tor_b, dst in (
            ("bg0", "tor0", "tor1", "bg1"),
            ("bg1", "tor1", "tor0", "bg0"),
        ):
            flow = Flow(
                src=src,
                dst=dst,
                size=None,
                five_tuple=FiveTuple(src, dst, 50000, 5001, UDP),
                rigid_rate=frac * cap,
                tags={"kind": "background"},
            )
            net.start_flow(flow, topo.path_links([src, tor_a, trunk, tor_b, dst]))


def _adversarial_port(src_ip: str, dst_ip: str) -> int:
    """An ephemeral port whose five-tuple hash picks path index 0 (hot)."""
    for port in range(32768, 61000):
        ft = FiveTuple(src_ip, dst_ip, SHUFFLE_PORT, port, TCP)
        if ecmp_index(ft, 2) == 0:
            return port
    raise RuntimeError("no port hashes to path 0 — hash broken")


def _benign_port(src_ip: str, dst_ip: str) -> int:
    for port in range(32768, 61000):
        ft = FiveTuple(src_ip, dst_ip, SHUFFLE_PORT, port, TCP)
        if ecmp_index(ft, 2) == 1:
            return port
    raise RuntimeError("no port hashes to path 1 — hash broken")


def _mk_flow(src, dst, src_ip, dst_ip, size, port):
    return Flow(
        src=src,
        dst=dst,
        size=size,
        five_tuple=FiveTuple(src_ip, dst_ip, SHUFFLE_PORT, port, TCP),
        tags={"kind": "shuffle"},
    )


def run_fig1b(scheduler: str = "ecmp") -> Fig1bResult:
    """Place the two Figure-1b flows under one scheduler and time them."""
    if scheduler not in ("ecmp", "pythia"):
        raise ValueError(f"fig1b compares ecmp and pythia, not {scheduler!r}")
    stack = build_stack(scheduler)
    sim, topo, net, ctrl = stack.sim, stack.topology, stack.network, stack.controller
    _load_paths(sim, net, topo)

    sched = stack.pythia
    if sched is not None:
        ctrl.start()
        # warm the link statistics so the allocator sees the 95/5 split
        sim.run(until=3.0)
        for rid, server in ((0, "h10"), (1, "h11")):
            sched.collector.receive_reducer_location(
                ReducerLocationMessage(job="fig1b", reducer_id=rid, server=server, created_at=sim.now)
            )
        sched.collector.receive_prediction(
            PredictionMessage(
                job="fig1b",
                map_id=0,
                src_server="h00",
                reducer_bytes=np.array([FLOW1_BYTES, 0.0]),
                created_at=sim.now,
            )
        )
        sched.collector.receive_prediction(
            PredictionMessage(
                job="fig1b",
                map_id=1,
                src_server="h01",
                reducer_bytes=np.array([0.0, FLOW2_BYTES]),
                created_at=sim.now,
            )
        )
        sim.run(until=4.0)
    policy = stack.policy

    # the adversarial draw: flow-1's reducer-side port hashes to the hot path
    f1 = _mk_flow("h00", "h10", "10.0.0", "10.1.0", FLOW1_BYTES,
                  _adversarial_port("10.0.0", "10.1.0"))
    f2 = _mk_flow("h01", "h11", "10.0.1", "10.1.1", FLOW2_BYTES,
                  _benign_port("10.0.1", "10.1.1"))
    net.start_flow(f1, policy.place(f1))
    net.start_flow(f2, policy.place(f2))
    ctrl.stop()
    sim.run(until=sim.now + 3600)
    for f in list(net.rigid):
        net.stop_flow(f)
    sim.run()

    def trunk(flow: Flow) -> str:
        return topo.path_nodes(flow.path)[2]

    return Fig1bResult(
        scheduler=scheduler,
        flow1_trunk=trunk(f1),
        flow1_seconds=float(f1.duration),
        flow2_trunk=trunk(f2),
        flow2_seconds=float(f2.duration),
    )
