"""Outside-in layer attribution for the traced benchmark run.

Nothing in ``repro`` knows it is being traced.  :class:`LayerTracer`
patches the public points where control crosses from one module into
another — callbacks handed to ``Simulator.schedule_at``, hooks handed to
``Network``/``LinkStatsService``/task trackers, callbacks handed to
``Network.start_flow``/``FlowProgrammer.install``, and a short list of
direct entry points — and wraps each callee in a span labelled with the
layer of the module that *defines* it.  A span's self time is its
duration minus the spans nested inside it, so every second of a unit of
work lands on exactly one layer or on the untraced remainder of the
thread that drove it.

Patches are installed by :meth:`LayerTracer.install` and removed by
:meth:`LayerTracer.uninstall`.  Objects built while installed keep
their wrapped callbacks, so a traced unit builds its own stack.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

#: module prefix -> layer name (longest prefix wins).
MODULE_LAYERS = {
    "repro.hadoop": "hadoop",
    "repro.instrumentation": "instrumentation",
    "repro.core": "core",
    "repro.pipeline": "pipeline",
    "repro.sdn": "sdn",
    "repro.simnet.engine": "simnet.engine",
    "repro.simnet.network": "simnet.network",
    "repro.simnet.fairshare": "simnet.fairshare",
    "repro.simnet.netflow": "simnet.netflow",
    "repro.simnet.background": "simnet.background",
    "repro.experiments": "experiments",
}
#: every layer a span can land on: ``other`` is the rest of ``repro``
#: (faults, forecast, flows, paths, topology), ``bench`` this package.
LAYERS = tuple(sorted(set(MODULE_LAYERS.values()))) + ("other", "bench")

#: the closure test: per-layer self times plus the untraced remainder
#: must equal the traced wall time to within this share of it.
CLOSURE_TOLERANCE = 1e-6

#: pipeline stage pumps; a call that made progress counts as busy time.
PUMPS = {
    "pump_bind": "bind",
    "pump_shard": "shard",
    "pump_alloc": "alloc",
    "pump_install": "install",
}


@functools.lru_cache(maxsize=None)
def module_layer(module: str) -> str:
    """Layer owning ``module`` (``bench`` outside ``repro``)."""
    if module != "repro" and not module.startswith("repro."):
        return "bench"
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else "other"


def _callee(fn: Any) -> Any:
    """Strip partials and bound methods down to the defining function."""
    while True:
        if isinstance(fn, functools.partial):
            fn = fn.func
        elif hasattr(fn, "__func__"):
            fn = fn.__func__
        else:
            return fn


class _ThreadAcc:
    """One thread's open-span stack and totals (merged when read)."""

    def __init__(self) -> None:
        self.stack: list[float] = []   # child time of each open span
        self.top = 0.0                 # summed duration of outermost spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)


class LayerTracer:
    """Exclusive-time accounting per layer, installed by monkeypatching."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._accs: list[_ThreadAcc] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._originals: dict[tuple[Any, str], Any] = {}
        self._layer_of_code: dict[Any, str] = {}
        #: named counters (see :meth:`count`); single writer per name
        #: except ``pipeline`` counters, which only the service's
        #: threads touch and which tolerate a lost increment.
        self.counters: dict[str, float] = defaultdict(float)
        #: instances built while installed, read for their own tallies.
        self.programmers: list = []
        self.stats_services: list = []
        self._live_elastic = 0
        self._shuffle_seen = 0
        self._shuffle_live = 0
        #: spans and counts accumulate only while set (the timed region);
        #: outside it the wrappers call straight through.
        self.active = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def acc(self) -> _ThreadAcc:
        """The calling thread's accumulator (created on first use)."""
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _ThreadAcc()
            with self._lock:
                self._accs.append(acc)
        return acc

    def span(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as a span of ``layer``; returns its result."""
        if not self.active:
            return fn(*args, **kwargs)
        acc = self.acc()
        stack = acc.stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            acc.self_s[layer] += dur - stack.pop()
            acc.calls[layer] += 1
            if stack:
                stack[-1] += dur
            else:
                acc.top += dur

    def layer_of(self, fn: Callable) -> str:
        f = _callee(fn)
        code = getattr(f, "__code__", f)
        layer = self._layer_of_code.get(code)
        if layer is None:
            mod = getattr(f, "__module__", None) or type(f).__module__
            layer = self._layer_of_code[code] = module_layer(mod)
        return layer

    def bind(self, fn: Callable) -> Callable:
        """Wrap a callback so each call is a span of its defining layer."""
        layer = self.layer_of(fn)
        span = self.span
        if layer == "simnet.netflow":
            note = self._netflow_sample

            def traced_probe(*args: Any) -> Any:
                # the probe samples on its ticks and on shuffle-flow events
                if not args or args[-1].is_shuffle():
                    note()
                return span(layer, fn, *args)

            return traced_probe

        def traced(*args: Any, **kwargs: Any) -> Any:
            return span(layer, fn, *args, **kwargs)

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[name] += amount

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """(self seconds, calls, pump busy seconds) summed over threads."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        with self._lock:
            accs = list(self._accs)
        for acc in accs:
            for out, src in ((self_s, acc.self_s), (calls, acc.calls), (busy, acc.busy)):
                for k, v in src.items():
                    out[k] += v
        return dict(self_s), dict(calls), dict(busy)

    def closure(self, wall_s: float) -> dict:
        """The calling thread's attribution closure over ``wall_s``.

        Per-layer self times plus the untraced remainder (wall time no
        span covered) must add up to the wall time; ``error`` is the
        relative miss.  A span that lost a child's time, or counted it
        twice, shows here, as does a span that ran outside ``wall_s``
        (a negative remainder).
        """
        acc = self.acc()
        self_sum = sum(acc.self_s.values())
        remainder = wall_s - acc.top
        error = abs(self_sum + remainder - wall_s) / wall_s
        return {
            "self_s": self_sum,
            "remainder_s": remainder,
            "error": error,
            "ok": error <= CLOSURE_TOLERANCE and remainder >= 0.0,
        }

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` by ``make(current value)``."""
        current = getattr(owner, name)
        self._originals[(owner, name)] = current
        # an inherited attribute is restored by deleting the override
        self._patches.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, make(current))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, name, own = self._patches.pop()
            if own is None:
                delattr(owner, name)
            else:
                setattr(owner, name, own)
        self._originals.clear()

    def _entry(self, layer: str, counter: str | None = None):
        """Patch factory: each call of the original is a span of ``layer``."""
        span, count = self.span, self.count

        def make(orig):
            @functools.wraps(orig)
            def entry(*args, **kwargs):
                if counter is not None:
                    count(counter)
                return span(layer, orig, *args, **kwargs)

            return entry

        return make

    def _registrar(self, make):
        """Patch factory for ``register(obj, fn)``: the hook is bound."""
        bind = self.bind

        @functools.wraps(make)
        def register(obj, fn, *args, **kwargs):
            return make(obj, bind(fn), *args, **kwargs)

        return register

    def _remember(self, into: list):
        """Patch factory for ``__init__``: keep every instance built."""

        def make(orig):
            @functools.wraps(orig)
            def __init__(obj, *args, **kwargs):
                orig(obj, *args, **kwargs)
                into.append(obj)

            return __init__

        return make

    def install(self) -> None:
        """Patch every attribution point (import-time lookups included)."""
        from repro.core import allocator as allocator_mod
        from repro.core.scheduler import PythiaPolicy
        from repro.hadoop.tasktracker import TaskTracker
        from repro.pipeline.core import PipelineCore
        from repro.sdn.dataplane import TableDrivenPolicy
        from repro.sdn.policy import EcmpPolicy
        from repro.sdn.programming import FlowProgrammer
        from repro.sdn.stats_service import LinkStatsService
        from repro.simnet import fairshare as fairshare_mod
        from repro.simnet import network as network_mod
        from repro.simnet.background import BackgroundTraffic
        from repro.simnet.engine import Simulator
        from repro.simnet.network import Network

        bind, count, span = self.bind, self.count, self.span
        entry = self._entry

        # -- engine: every dispatched callback, plus the loop itself -----
        def make_schedule_at(orig):
            @functools.wraps(orig)
            def schedule_at(sim, when, fn, *args, **kwargs):
                return orig(sim, when, bind(fn), *args, **kwargs)

            return schedule_at

        self._patch(Simulator, "schedule_at", make_schedule_at)
        self._patch(Simulator, "run", entry("simnet.engine"))

        # -- hook registration ----------------------------------------------
        for owner, name in (
            (Network, "add_flow_hook"),
            (Network, "add_settle_hook"),
            (LinkStatsService, "add_sample_hook"),
            (TaskTracker, "subscribe"),
        ):
            self._patch(owner, name, self._registrar)

        # -- network: entry points, completion callbacks, counting hooks --
        def make_net_init(orig):
            @functools.wraps(orig)
            def __init__(net, *args, **kwargs):
                orig(net, *args, **kwargs)
                self._watch_network(net)

            return __init__

        def make_start_flow(orig):
            @functools.wraps(orig)
            def start_flow(net, flow, path, on_complete=None):
                if on_complete is not None:
                    on_complete = bind(on_complete)
                return span("simnet.network", orig, net, flow, path, on_complete)

            return start_flow

        self._patch(Network, "__init__", make_net_init)
        self._patch(Network, "start_flow", make_start_flow)
        self._patch(Network, "stop_flow", entry("simnet.network"))

        # -- fair-share solver (network.py binds it by name) -----------------
        def make_solve(orig):
            @functools.wraps(orig)
            def solve(pair_flow, *args, **kwargs):
                count("fairshare.solves")
                if pair_flow.size:
                    count("fairshare.flows_solved", int(np.count_nonzero(np.bincount(pair_flow))))
                count("fairshare.live_at_solve", self._live_elastic)
                return span("simnet.fairshare", orig, pair_flow, *args, **kwargs)

            return solve

        self._patch(network_mod, "maxmin_rates_componentwise", make_solve)
        self._patch(fairshare_mod, "maxmin_rates_pairs", entry("simnet.fairshare"))

        # -- control plane -----------------------------------------------------
        def make_install(orig):
            @functools.wraps(orig)
            def install(prog, rules, on_installed=None, extra_mods=0):
                count("sdn.install_txns")
                count("sdn.mods", len(rules) + extra_mods)
                if on_installed is not None:
                    on_installed = bind(on_installed)
                return span("sdn", orig, prog, rules, on_installed, extra_mods)

            return install

        self._patch(allocator_mod._BaseAllocator, "allocate", entry("core", "core.allocate_calls"))
        self._patch(FlowProgrammer, "__init__", self._remember(self.programmers))
        self._patch(FlowProgrammer, "install", make_install)
        self._patch(FlowProgrammer, "install_diff", entry("sdn"))
        self._patch(FlowProgrammer, "lookup", entry("sdn"))
        self._patch(LinkStatsService, "__init__", self._remember(self.stats_services))
        self._patch(EcmpPolicy, "place", entry("sdn", "sdn.place_calls"))
        self._patch(TableDrivenPolicy, "place", entry("sdn", "sdn.place_calls"))
        self._patch(PythiaPolicy, "place", entry("core", "sdn.place_calls"))
        self._patch(BackgroundTraffic, "populate", entry("simnet.background"))
        self._patch(BackgroundTraffic, "teardown", entry("simnet.background"))

        # -- staged pipeline ---------------------------------------------------
        self._patch(PipelineCore, "submit", entry("pipeline"))
        for pump, stage in PUMPS.items():
            self._patch(PipelineCore, pump, self._pump(stage))

    def _pump(self, stage: str):
        """A pump span whose duration counts as busy when it made progress."""

        def make(orig):
            @functools.wraps(orig)
            def pump(*args, **kwargs):
                t0 = time.perf_counter()
                out = self.span("pipeline", orig, *args, **kwargs)
                if (out[0] > 0) if isinstance(out, tuple) else out:
                    self.acc().busy[stage] += time.perf_counter() - t0
                return out

            return pump

        return make

    # ------------------------------------------------------------------
    # network-side tallies, observed through the public hooks
    # ------------------------------------------------------------------
    def _watch_network(self, net) -> None:
        """Count settles, flow starts and live flows of one network."""
        self._live_elastic = 0
        self._shuffle_seen = 0
        self._shuffle_live = 0

        def on_flow(event: str, flow) -> None:
            if event == "start":
                self.count("network.flow_starts")
                self._live_elastic += flow.elastic
                if flow.is_shuffle():
                    self._shuffle_seen += 1
                    self._shuffle_live += 1
            elif event == "end":
                self._live_elastic -= flow.elastic
                if flow.is_shuffle():
                    self._shuffle_live -= 1

        def on_settle(_net) -> None:
            self.count("network.settles")

        # registered through the unpatched methods: bookkeeping, not a layer
        Network = type(net)
        self._originals[(Network, "add_flow_hook")](net, on_flow)
        self._originals[(Network, "add_settle_hook")](net, on_settle)

    def _netflow_sample(self) -> None:
        """Note the probe's scan ratio (live ÷ ever-seen shuffle flows)."""
        if self._shuffle_seen:
            self.count("netflow.samples")
            self.count("netflow.live", self._shuffle_live)
            self.count("netflow.seen", self._shuffle_seen)
