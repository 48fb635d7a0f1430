"""The composition root: one builder wires the control-plane stack."""

import ast
from pathlib import Path

from repro.core.config import PythiaConfig
from repro.stack import build_stack

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BUILDER = SRC / "stack.py"
#: constructors only the builder may call.
GUARDED = {"Controller", "PythiaScheduler", "HederaScheduler"}


def _guarded_calls(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in GUARDED:
            calls.append((name, node.lineno))
    return calls


def test_control_plane_is_constructed_only_by_the_builder():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}(...)"
        for path in sorted(SRC.rglob("*.py"))
        if path != BUILDER
        for name, line in _guarded_calls(path)
    ]
    assert offenders == [], "wire the stack through repro.stack.build_stack"
    # The scan must be able to see a call at all.
    assert {name for name, _ in _guarded_calls(BUILDER)} == GUARDED


def test_every_controller_timing_comes_from_the_config():
    cfg = PythiaConfig(
        k_paths=2,
        stats_period=0.5,
        stats_alpha=0.3,
        per_rule_latency=0.01,
        control_rtt=0.005,
        mgmt_latency=0.007,
    )
    ctrl = build_stack("pythia", cfg).controller
    assert ctrl.topology_service.k == 2
    assert (ctrl.stats_service.period, ctrl.stats_service.alpha) == (0.5, 0.3)
    assert ctrl.programmer.per_rule_latency == 0.01
    assert ctrl.programmer.control_rtt == 0.005
    assert ctrl.mgmt_latency == 0.007
