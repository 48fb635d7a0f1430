"""OpenFlow rule tables and switch programming latency.

The paper's timing argument (§V-C) hinges on hardware flow-install
latency: "typically in the order of 3-5 ms/flow installed" — and
prediction arriving seconds earlier makes programming safe.  This
module models exactly that contract: rule installation completes after
``per_rule_latency × rules + rtt`` and only then do flows match.

Rules are wildcard aggregates, as forced by the paper's observation
that a shuffle flow's TCP source port is unknowable at prediction time:
the match is ``(src_ip, dst_ip, dst_port)`` with the source port
wildcarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow


@dataclass(frozen=True)
class Match:
    """Wildcard match on addresses and ports; None = any.

    Pythia's shuffle aggregates wildcard the reducer-side ephemeral
    port and pin the mapper-side service port (50060).  Rack/POD-level
    aggregation (§IV's forwarding-state-conservation variant) uses the
    ``src_prefix``/``dst_prefix`` fields instead of exact addresses —
    one TCAM entry covering a whole rack pair.
    """

    src_ip: Optional[str] = None
    dst_ip: Optional[str] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    #: address-prefix alternatives to the exact-IP fields ("10.0." etc.)
    src_prefix: Optional[str] = None
    dst_prefix: Optional[str] = None

    def covers(self, flow: Flow) -> bool:
        """True if this match admits the flow's five-tuple."""
        ft = flow.five_tuple
        return (
            (self.src_ip is None or self.src_ip == ft.src_ip)
            and (self.dst_ip is None or self.dst_ip == ft.dst_ip)
            and (self.src_prefix is None or ft.src_ip.startswith(self.src_prefix))
            and (self.dst_prefix is None or ft.dst_ip.startswith(self.dst_prefix))
            and (self.src_port is None or self.src_port == ft.src_port)
            and (self.dst_port is None or self.dst_port == ft.dst_port)
        )

    def specificity(self) -> int:
        """Tie-break score: more exact fields rank higher."""
        # exact fields count double so an exact-IP rule beats a prefix
        # rule covering the same flow (longest-prefix-match analogue).
        exact = sum(
            f is not None
            for f in (self.src_ip, self.dst_ip, self.src_port, self.dst_port)
        )
        prefixes = sum(f is not None for f in (self.src_prefix, self.dst_prefix))
        return 2 * exact + prefixes


@dataclass
class Rule:
    """One end-to-end forwarding rule (match -> path)."""
    match: Match
    path: list[int]               # link ids
    priority: int = 0
    installed_at: Optional[float] = None
    hits: int = 0


def rule_sort_key(rule: Rule) -> tuple:
    """Canonical total order over rules (match fields, priority, path).

    Batched diff transactions sort their deletions with this key so a
    replayed batch emits byte-identical FLOW_MOD sequences regardless of
    the dict/set iteration order the caller accumulated the rules in.
    """
    m = rule.match
    return (
        m.src_ip or "",
        m.dst_ip or "",
        m.src_prefix or "",
        m.dst_prefix or "",
        -1 if m.src_port is None else m.src_port,
        -1 if m.dst_port is None else m.dst_port,
        rule.priority,
        tuple(rule.path),
    )


class FlowProgrammer:
    """Installs forwarding rules with realistic programming latency."""

    def __init__(
        self,
        sim: Simulator,
        per_rule_latency: float = 0.004,
        control_rtt: float = 0.002,
        max_install_retries: int = 6,
        retry_backoff: float = 0.05,
    ) -> None:
        self.sim = sim
        self.per_rule_latency = per_rule_latency
        self.control_rtt = control_rtt
        #: install attempts retried while the control channel is down;
        #: each retry doubles the previous delay (bounded exponential
        #: backoff, the standard OpenFlow barrier-timeout treatment).
        self.max_install_retries = max_install_retries
        self.retry_backoff = retry_backoff
        #: False while the controller is crashed: commits cannot reach
        #: the switches and go through the retry path instead.
        self.online = True
        self._rules: list[Rule] = []
        self.rules_installed = 0
        self.install_batches = 0
        self.install_retries = 0
        self.install_failures = 0
        #: batches scheduled but not yet committed or abandoned —
        #: table/intent comparisons are only meaningful when this is 0.
        self.pending_installs = 0
        #: rules whose install was abandoned after the retry budget;
        #: the controller's resync drains this on recovery.
        self.failed_rules: list[Rule] = []
        #: ids of rules in not-yet-committed batches, so a recovery
        #: resync never double-installs a rule that is still retrying.
        self._pending_rule_ids: set[int] = set()
        #: high-water mark of concurrent table occupancy — the
        #: forwarding-state metric §IV's aggregation discussion targets
        #: (switch TCAM is the scarce resource, not install throughput).
        self.peak_table_size = 0
        self._rule_hooks: list[Callable[[str, Rule], None]] = []
        registry = obs.get_registry()
        self._tracer = obs.get_tracer()
        self._m_rules = registry.counter("programmer.rules_installed")
        self._m_install_latency = registry.histogram("programmer.install_seconds")
        self._m_table = registry.gauge("programmer.table_size")
        self._m_retries = registry.counter("programmer.install_retries")
        self._m_failures = registry.counter("programmer.install_failures")

    # ------------------------------------------------------------------
    def add_rule_hook(self, fn: Callable[[str, Rule], None]) -> None:
        """Register ``fn(event, rule)`` for 'install'/'remove' events
        (the OpenFlow channel mirrors these as per-switch FLOW_MODs)."""
        self._rule_hooks.append(fn)

    def _emit(self, event: str, rule: Rule) -> None:
        for fn in self._rule_hooks:
            fn(event, rule)

    # ------------------------------------------------------------------
    def install(
        self,
        rules: list[Rule],
        on_installed: Optional[Callable[[list[Rule]], None]] = None,
        extra_mods: int = 0,
    ) -> float:
        """Install a batch; returns the nominal completion time.

        While the control channel is down (``online`` False) the commit
        retries with bounded exponential backoff; a batch that exhausts
        its retry budget lands in :attr:`failed_rules` for the
        controller's recovery resync instead of being silently lost.
        ``extra_mods`` counts additional flow-mods (deletions) the same
        transaction carries, so diff installs pay for their removals.
        """
        latency = self.control_rtt + self.per_rule_latency * (
            len(rules) + extra_mods
        )
        done_at = self.sim.now + latency
        self.install_batches += 1
        self.pending_installs += 1
        self._pending_rule_ids.update(id(r) for r in rules)
        self._m_install_latency.observe(latency)

        def _commit(attempt: int) -> None:
            if not self.online:
                if attempt < self.max_install_retries:
                    self.install_retries += 1
                    self._m_retries.inc()
                    self.sim.schedule(
                        self.retry_backoff * (2.0 ** attempt), _commit, attempt + 1
                    )
                    return
                self.pending_installs -= 1
                self._pending_rule_ids.difference_update(id(r) for r in rules)
                self.install_failures += len(rules)
                self._m_failures.inc(len(rules))
                self.failed_rules.extend(rules)
                if self._tracer is not None:
                    self._tracer.emit(
                        self.sim.now, "programmer", "install_failed",
                        rules=len(rules), attempts=attempt + 1,
                    )
                return
            self.pending_installs -= 1
            self._pending_rule_ids.difference_update(id(r) for r in rules)
            for rule in rules:
                rule.installed_at = self.sim.now
                self._rules.append(rule)
                self.rules_installed += 1
                self._m_rules.inc()
                self._emit("install", rule)
            self.peak_table_size = max(self.peak_table_size, len(self._rules))
            self._m_table.set(len(self._rules))
            if self._tracer is not None:
                self._tracer.emit(
                    self.sim.now,
                    "programmer",
                    "install",
                    rules=len(rules),
                    latency=latency,
                    table_size=len(self._rules),
                )
            if on_installed is not None:
                on_installed(rules)

        self.sim.schedule(latency, _commit, 0)
        return done_at

    def install_diff(
        self,
        add: list[Rule],
        remove: list[Rule],
        on_installed: Optional[Callable[[list[Rule]], None]] = None,
    ) -> float:
        """One batched flow-mod transaction: deletions plus installs.

        The staged pipeline's install stage merges the diffs of many
        aggregates; sending the whole diff as a single transaction
        charges one control RTT for the lot while still paying per-rule
        programming latency for every mod, deletions included.
        Deletions take effect immediately (the table stops matching the
        old rules as soon as the controller decides), exactly like the
        incremental path's ``remove`` + ``install`` sequence.  They are
        issued in canonical :func:`rule_sort_key` order — not whatever
        dict order the caller collected them in — so a batched diff
        replays byte-identically in golden traces.
        """
        for rule in sorted(remove, key=rule_sort_key):
            self.remove(rule)
        return self.install(add, on_installed, extra_mods=len(remove))

    def take_failed(self) -> list[Rule]:
        """Drain the abandoned-install backlog (recovery resync)."""
        failed, self.failed_rules = self.failed_rules, []
        return failed

    def remove(self, rule: Rule) -> None:
        """Delete a rule from the table (idempotent)."""
        if rule in self._rules:
            self._rules.remove(rule)
            self._m_table.set(len(self._rules))
            self._emit("remove", rule)

    def clear(self) -> None:
        """Delete every rule, emitting remove events."""
        for rule in list(self._rules):
            self.remove(rule)

    # ------------------------------------------------------------------
    def lookup(self, flow: Flow) -> Optional[Rule]:
        """Highest-priority (then most specific, then newest) matching rule."""
        best: Optional[Rule] = None
        for rule in self._rules:
            if not rule.match.covers(flow):
                continue
            if best is None or (rule.priority, rule.match.specificity()) >= (
                best.priority,
                best.match.specificity(),
            ):
                best = rule
        if best is not None:
            best.hits += 1
        return best

    @property
    def table_size(self) -> int:
        """Rules currently installed."""
        return len(self._rules)
