"""Ablations over Pythia's design choices (DESIGN.md items A1-A3).

* **A1 — aggregation policy**: server-pair (paper default) vs rack-pair
  (§IV's forwarding-state-conservation variant).  Expectation: rack-pair
  slashes installed rules at a small JCT cost.
* **A2 — scheduler family**: ECMP (load-unaware) vs Hedera-style
  (load-aware, reactive, application-blind) vs Pythia (load-aware,
  predictive, application-informed), the §II/§VI argument.
* **A3 — routing/programming sensitivity**: k in k-shortest-paths on a
  multi-spine fabric, and rule-install latency up to the point where
  rules lose the race against flow arrival (the §V-C timing-budget
  claim, inverted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import format_table
from repro.core.allocator import _ALLOCATORS
from repro.core.config import PythiaConfig
from repro.experiments.common import run_experiment
from repro.simnet.topology import leaf_spine
from repro.workloads.nutch import nutch_indexing_job
from repro.workloads.sort import sort_job


@dataclass
class AblationRow:
    """One variant's outcome in an ablation table."""
    label: str
    jct: float
    detail: str = ""


def ablate_aggregation(ratio: Optional[float] = 10, seed: int = 1) -> list[AblationRow]:
    """A1: server-pair vs rack-pair aggregation (forwarding-state cost)."""
    from repro.sdn.switch_tables import SwitchTableView

    rows = []
    for policy in ("server_pair", "rack_pair"):
        res = run_experiment(
            nutch_indexing_job(),
            scheduler="pythia",
            ratio=ratio,
            seed=seed,
            pythia_config=PythiaConfig(aggregation=policy),
        )
        assert res.controller is not None
        tcam = SwitchTableView(res.topology, res.controller.programmer).max_occupancy()
        rows.append(
            AblationRow(
                label=policy,
                jct=res.jct,
                detail=(
                    f"peak_rules={res.policy_stats['peak_rules']} "
                    f"installs={res.policy_stats['rules_installed']} "
                    f"tcam_max={tcam}"
                ),
            )
        )
    return rows


def ablate_schedulers(
    ratio: Optional[float] = 10, seed: int = 1, input_gb: float = 12.0
) -> list[AblationRow]:
    """A2: ECMP vs Hedera vs Pythia on the same sort job."""
    rows = []
    for sched in ("ecmp", "hedera", "pythia"):
        res = run_experiment(
            sort_job(input_gb=input_gb), scheduler=sched, ratio=ratio, seed=seed
        )
        detail = ""
        if sched == "hedera":
            detail = f"reroutes={res.policy_stats.get('reroutes', 0)}"
        if sched == "pythia":
            detail = f"rule_hits={res.policy_stats.get('rule_hits', 0)}"
        rows.append(AblationRow(label=sched, jct=res.jct, detail=detail))
    return rows


def ablate_allocators(ratio: Optional[float] = 10, seed: int = 1) -> list[AblationRow]:
    """A1b: the three flow-scheduling algorithms behind §IV's plug point."""
    rows = []
    for kind in _ALLOCATORS:
        res = run_experiment(
            sort_job(input_gb=12.0),
            scheduler="pythia",
            ratio=ratio,
            seed=seed,
            pythia_config=PythiaConfig(allocation=kind),
        )
        rows.append(AblationRow(label=kind, jct=res.jct))
    return rows


def ablate_ordering(ratio: Optional[float] = 10, seed: int = 1) -> list[AblationRow]:
    """A2b: criticality (first-fit decreasing) vs arrival-order packing.

    §VI positions Pythia against FlowComb partly on ordering: "network
    optimization flow scheduling in FlowComb does not leverage
    application intelligence except from predicted flow volumes ...
    Pythia ... incorporat[es] flow priority as a criterion".
    """
    rows = []
    for ordering, label in (("criticality", "criticality (pythia)"),
                            ("arrival", "arrival (flowcomb-style)")):
        res = run_experiment(
            sort_job(input_gb=12.0, skew_alpha=0.8),
            scheduler="pythia",
            ratio=ratio,
            seed=seed,
            pythia_config=PythiaConfig(ordering=ordering),
        )
        rows.append(AblationRow(label=label, jct=res.jct))
    return rows


def ablate_weighted_shuffle(ratio: Optional[float] = 10, seed: int = 2) -> list[AblationRow]:
    """W1: §II's proportionality — per-flow weights from reducer volume.

    Expectation (measured, honest): the heavy reducer's fetches speed
    up, but the job barrier barely moves on this topology because the
    heavy reducer's tail is bound by its own access link and the
    parallel-copy serialisation.
    """
    from repro.analysis.shuffle_breakdown import mean_transfer_seconds
    from repro.hadoop.partition import explicit_weights

    rows = []
    for weighted in (False, True):
        spec = sort_job(input_gb=6.0, num_reducers=10)
        spec.reducer_weights = explicit_weights([5, 1, 1, 1, 1, 1, 1, 1, 1, 1])
        res = run_experiment(
            spec,
            scheduler="pythia",
            ratio=ratio,
            seed=seed,
            pythia_config=PythiaConfig(weighted_shuffle=weighted),
        )
        rows.append(
            AblationRow(
                label="weighted" if weighted else "unweighted",
                jct=res.jct,
                detail=f"mean_fetch={mean_transfer_seconds(res.run):.2f}s",
            )
        )
    return rows


def ablate_k_paths(seed: int = 1, input_gb: float = 8.0) -> list[AblationRow]:
    """A3a: k-shortest-paths fan-out on a 4-spine leaf-spine fabric."""
    rows = []
    for k in (1, 2, 4):
        res = run_experiment(
            sort_job(input_gb=input_gb, num_reducers=16),
            scheduler="pythia",
            ratio=None,
            seed=seed,
            topology_factory=lambda: leaf_spine(leaves=2, spines=4, hosts_per_leaf=5),
            pythia_config=PythiaConfig(k_paths=k),
        )
        rows.append(AblationRow(label=f"k={k}", jct=res.jct))
    return rows


def ablate_install_latency(
    ratio: Optional[float] = 10, seed: int = 1
) -> list[AblationRow]:
    """A3b: how slow can rule programming get before Pythia degrades?

    The paper's timing argument: prediction leads flows by seconds
    while installs take milliseconds.  Sweeping the per-rule latency
    through 4 ms (hardware), 100 ms (slow software switch) and 5 s
    (pathological) shows fallback-to-ECMP taking over.
    """
    rows = []
    for latency in (0.004, 0.1, 5.0):
        res = run_experiment(
            sort_job(input_gb=12.0),
            scheduler="pythia",
            ratio=ratio,
            seed=seed,
            pythia_config=PythiaConfig(per_rule_latency=latency),
        )
        rows.append(
            AblationRow(
                label=f"{latency * 1000:g}ms/rule",
                jct=res.jct,
                detail=f"fallbacks={res.policy_stats['fallbacks']}",
            )
        )
    return rows


def render_ablation(title: str, rows: list[AblationRow]) -> str:
    """Render one ablation's rows as a titled table."""
    return title + "\n" + format_table(
        ["variant", "JCT (s)", "detail"], [(r.label, r.jct, r.detail) for r in rows]
    )
