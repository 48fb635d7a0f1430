"""Process-wide invariant-checker context (the ``repro.obs`` pattern).

Subsystems that can be watched (the :class:`~repro.simnet.network.Network`
and the :class:`~repro.sdn.controller.Controller`) consult this module at
construction time and register themselves with the active checker, if
any.  The default is no checker, which costs one ``None`` check per
constructor — nothing on any hot path.  Enable checking for a run by
building the stack inside :func:`use_checker`::

    from repro.faults import InvariantChecker, use_checker

    with use_checker(InvariantChecker()) as checker:
        result = run_experiment(...)

``run_experiment(invariants=True)`` and the ``repro chaos run`` CLI do
this for you; setting the ``REPRO_INVARIANTS`` environment variable
turns the checker on for every experiment run in the process (e.g. the
whole test suite) without touching call sites.

This module deliberately imports nothing from the simulator so that
``repro.simnet.network`` can import it without a cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Protocol


class Watcher(Protocol):
    """What the runtime expects of an installed invariant checker."""

    def watch_network(self, network) -> None: ...

    def watch_controller(self, controller) -> None: ...


_active_checker: Optional[Watcher] = None


def get_checker() -> Optional[Watcher]:
    """The checker new subsystems should register with (None = off)."""
    return _active_checker


def set_checker(checker: Optional[Watcher]) -> None:
    """Install a process-wide checker (None disables checking)."""
    global _active_checker
    _active_checker = checker


def resolve_invariants(invariants: Optional[bool]) -> Optional[tuple[int, str]]:
    """The effective checking request as ``(stride, scope)``, or None.

    An explicit argument beats the environment.  ``None`` reads
    ``REPRO_INVARIANTS``: unset or ``0`` is off, ``N`` (N > 1) checks
    every Nth settle — the knob that keeps suite-wide checking
    affordable on big runs — and ``full`` forces the whole-fabric audit
    at every checkpoint instead of the O(component) scoped default.
    """
    stride = 1
    scope = "component"
    if invariants is None:
        env = os.environ.get("REPRO_INVARIANTS", "")
        invariants = env not in ("", "0")
        if invariants and env.isdigit():
            stride = max(1, int(env))
        if env == "full":
            scope = "full"
    return (stride, scope) if invariants else None


@contextmanager
def use_checker(checker: Optional[Watcher]) -> Iterator[Optional[Watcher]]:
    """Scoped override of the invariant-checker context."""
    global _active_checker
    prev = _active_checker
    _active_checker = checker
    try:
        yield checker
    finally:
        _active_checker = prev
