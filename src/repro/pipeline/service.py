"""Controller-as-a-service: the staged core pumped by worker threads.

``repro serve`` wraps this: one bind thread, one thread per collector
shard, and a control thread that owns everything the discrete-event
simulator touches (allocation, rule expansion, the programmer and
``sim.run()``), so the simulator clock and rule table stay
single-threaded by construction.  Crash/failover is injected through a
control-request queue and therefore also executes on the control
thread, exactly where installs and resyncs happen.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Optional

from repro import obs
from repro.core.config import PythiaConfig
from repro.pipeline import replay as replay_mod
from repro.simnet.topology import Topology, fat_tree, leaf_spine, two_rack
from repro.stack import build_stack

TOPOLOGIES: dict[str, Callable[[], Topology]] = {
    "two_rack": two_rack,
    "leaf_spine": leaf_spine,
    "fat_tree": lambda: fat_tree(4),
}


class PipelineService:
    """A long-lived Pythia controller fed by replayed prediction streams."""

    def __init__(
        self,
        topology_factory: Callable[[], Topology] = two_rack,
        config: Optional[PythiaConfig] = None,
        registry: Optional[obs.MetricsRegistry] = None,
    ) -> None:
        cfg = config or PythiaConfig(pipeline_mode="staged")
        if cfg.pipeline_mode != "staged":
            raise ValueError("PipelineService requires pipeline_mode='staged'")
        self.config = cfg
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        with obs.use(registry=self.registry):
            stack = build_stack("pythia", cfg, topology_factory)
            self.sim = stack.sim
            self.topology = stack.topology
            self.network = stack.network
            self.controller = stack.controller
            self.scheduler = stack.pythia
            # No periodic stats poller: a service with no data-plane
            # flows would otherwise keep the event queue eternally
            # non-empty and sim.run() would never return.
            self.controller.start(start_stats=False)
        assert self.scheduler.pipeline is not None
        self.core = self.scheduler.pipeline
        # Queueing latency is *measured* in wall time here; the
        # modelled switch-programming latency is charged on top.
        self.core.clock = time.monotonic
        self.core.charge_install_latency = True
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._control_requests: list[str] = []
        self._control_lock = threading.Lock()
        self._started = False
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the stage threads."""
        if self._started:
            return
        self._started = True
        self._stop.clear()
        self.started_at = time.monotonic()
        self._threads = [
            threading.Thread(target=self._bind_loop, name="pipeline-bind", daemon=True),
            threading.Thread(
                target=self._control_loop, name="pipeline-control", daemon=True
            ),
        ]
        for i in range(len(self.core.shards)):
            self._threads.append(
                threading.Thread(
                    target=self._shard_loop, args=(i,), name=f"pipeline-shard{i}",
                    daemon=True,
                )
            )
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        """Stop the stage threads (the core's state stays inspectable)."""
        if not self._started:
            return
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        self._started = False

    # ------------------------------------------------------------------
    # ingestion / fault injection
    # ------------------------------------------------------------------
    def submit(self, kind: str, msg) -> bool:
        """Offer one message to the ingress queue (False = backpressure)."""
        return self.core.submit(kind, msg)

    def crash(self) -> None:
        """Request a controller outage (executed on the control thread)."""
        with self._control_lock:
            self._control_requests.append("crash")

    def restore(self) -> None:
        """Request controller recovery + failover resync."""
        with self._control_lock:
            self._control_requests.append("restore")

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every accepted message has reached a terminal
        state (installed / coalesced); False on timeout.

        While the controller is crashed the in-flight ledger cannot
        empty — issue :meth:`restore` first.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.core.backlog() == 0:
                return True
            time.sleep(0.002)
        return self.core.backlog() == 0

    # ------------------------------------------------------------------
    # stage loops
    # ------------------------------------------------------------------
    def _bind_loop(self) -> None:
        while not self._stop.is_set():
            processed, _ = self.core.pump_bind()
            if processed == 0:
                self.core.ingress.wait_nonempty(0.005)

    def _shard_loop(self, i: int) -> None:
        queue = self.core.shards[i].queue
        while not self._stop.is_set():
            if not self.core.pump_shard(i):
                queue.wait_nonempty(0.005)

    def _control_loop(self) -> None:
        while not self._stop.is_set():
            progress = self._handle_control_requests()
            progress |= self.core.pump_alloc()
            progress |= self.core.pump_install()
            # Advance the modelled world: install commits, retry
            # backoff, abandonment.  Only this thread touches the sim.
            self.sim.run()
            if not progress:
                time.sleep(0.001)

    def _handle_control_requests(self) -> bool:
        with self._control_lock:
            requests, self._control_requests = self._control_requests, []
        for req in requests:
            if req == "crash":
                self.controller.crash()
            elif req == "restore":
                self.controller.restore()
        return bool(requests)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Service-level stats: the core ledger plus derived rates."""
        snap = self.core.snapshot()
        uptime = (
            time.monotonic() - self.started_at if self.started_at is not None else 0.0
        )
        snap["uptime_seconds"] = uptime
        if uptime > 0:
            snap["predictions_per_sec_in"] = self.core.predictions_in / uptime
            snap["predictions_per_sec_out"] = (
                self.core.intents_installed + self.core.intents_coalesced
            ) / uptime
        snap["controller"] = {
            "online": self.controller.online,
            "crashes": self.controller.crashes,
            "resyncs": self.controller.resyncs,
            "rules_installed": self.controller.programmer.rules_installed,
            "table_size": self.controller.programmer.table_size,
            "install_failures": self.controller.programmer.install_failures,
        }
        e2e = self.registry.histogram("pipeline.e2e_seconds")
        if e2e.count:
            snap["e2e_seconds"] = {
                "count": e2e.count,
                "mean": e2e.mean,
                "p50": e2e.quantile(0.50),
                "p99": e2e.quantile(0.99),
            }
        return snap

    def hosts(self) -> list[str]:
        """Server names a tape for this service may address."""
        return [h.name for h in self.topology.worker_hosts()]


# ----------------------------------------------------------------------
# TCP front door (optional; `repro serve --port` / `repro replay --connect`)
# ----------------------------------------------------------------------

def serve_tcp(
    service: PipelineService,
    port: int,
    *,
    host: str = "127.0.0.1",
    ready: Optional[threading.Event] = None,
) -> threading.Event:
    """Accept JSONL tape records on a socket and feed them to ``service``.

    Each line is one tape record (the format :mod:`repro.pipeline.replay`
    writes); a ``{"kind": "eof"}`` line sets the returned event so the
    caller can drain and exit.  Single-connection-at-a-time on purpose:
    the replay client is the only intended producer.
    """
    done = threading.Event()
    listener = socket.create_server((host, port))
    listener.settimeout(0.5)
    if ready is not None:
        ready.set()

    def _loop() -> None:
        with listener:
            while not done.is_set():
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    continue
                with conn, conn.makefile("r") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        obj = json.loads(line)
                        if obj.get("kind") == "eof":
                            done.set()
                            break
                        rec = replay_mod._decode(obj)
                        while not service.submit(rec.kind, rec.msg):
                            time.sleep(0.0005)

    threading.Thread(target=_loop, name="pipeline-tcp", daemon=True).start()
    return done


def replay_tcp(
    tape: replay_mod.MessageTape,
    host: str,
    port: int,
    rate: Optional[float] = None,
    *,
    connect_timeout: float = 5.0,
) -> dict:
    """Stream a tape to a ``repro serve --port`` instance as JSONL."""
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
    sent = 0
    start = time.monotonic()
    with sock, sock.makefile("w") as fh:
        for i, rec in enumerate(tape.records):
            if rate is not None:
                due = start + i / rate
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
            fh.write(json.dumps(replay_mod._encode(rec)) + "\n")
            sent += 1
        fh.write(json.dumps({"kind": "eof"}) + "\n")
        fh.flush()
    wall = time.monotonic() - start
    return {
        "sent": sent,
        "wall_seconds": wall,
        "achieved_rate": sent / wall if wall > 0 else float("inf"),
    }


__all__ = [
    "PipelineService",
    "TOPOLOGIES",
    "replay_tcp",
    "serve_tcp",
]
