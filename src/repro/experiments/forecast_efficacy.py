"""Forecast efficacy: prediction accuracy vs lead time vs JCT gain.

Evaluates the :mod:`repro.forecast` subsystem with the paper's own
methodology — compare schedulers on the same workload × over-
subscription grid, averaged over seeds — on the *step-background
scenario*: partway through the job, a stepped CBR surge
(:class:`~repro.simnet.background.BackgroundRamp`) ramps up on one
trunk path.  A measured-load allocator keeps scoring that path by its
pre-surge EWMA and only reacts once the link is already saturated; a
trend-aware forecaster sees the first steps coming up and both (a)
scores new placements against the predicted occupancy and (b)
proactively reroutes elephants off the dying path.

Two sweeps:

* :func:`forecast_efficacy_sweep` — ecmp / hedera / measured-load
  pythia / pythia+{each forecaster} across oversubscription ratios,
  reporting mean/std JCT plus the forecast-side counters (MAE,
  reroutes, stale fallbacks) per variant.
* :func:`forecast_lead_time_curve` — one forecaster across a range of
  horizons, reporting how prediction error grows with lead time and
  what that does to JCT (the accuracy-vs-lead-time trade the related
  elephant-prediction work plots).

Both run through :func:`repro.runner.run_cells`, so ``workers=N`` fans
cells over processes and ``cache_dir=...`` memoises them; every
variant's knobs travel in ``run_kwargs`` (dataclasses, so the cells
stay content-addressable).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.analysis import format_table
from repro.core.config import PythiaConfig
from repro.hadoop.job import JobSpec
from repro.runner import run_cells, sweep_grid
from repro.simnet.background import BackgroundRamp
from repro.workloads import sort_job

#: trunk capacity is 2 x 1 GbE on the two-rack testbed; the surge adds
#: ~0.5 GbE to the second trunk path over an 8 s window mid-shuffle.
DEFAULT_RAMP = BackgroundRamp(at=5.0, duration=8.0, rate=60e6, steps=4, path_index=1)

#: the forecasters under evaluation, in report order.
DEFAULT_MODES: tuple[str, ...] = ("ewma", "ar")

DEFAULT_RATIOS: tuple[Optional[float], ...] = (5, 10)


def default_spec() -> JobSpec:
    """The sweep's workload: a sort sized to keep cells snappy."""
    return sort_job(input_gb=0.8)


@dataclass(frozen=True)
class EfficacyRow:
    """One (variant, ratio) aggregate of the efficacy sweep."""

    variant: str
    ratio: Optional[float]
    mean_jct: float
    std_jct: float
    samples: tuple[float, ...]
    #: mean streaming forecast MAE (bytes/s) over the runs that scored
    #: at least one matured forecast; None when no run did (non-forecast
    #: variants, or horizons every job ends before).
    forecast_mae: Optional[float] = None
    #: mean proactive reroutes per run; 0 for non-forecast variants.
    reroutes: float = 0.0
    #: mean measured-EWMA fallbacks per run (staleness indicator).
    stale_fallbacks: float = 0.0


@dataclass(frozen=True)
class LeadTimeRow:
    """One horizon point of the accuracy-vs-lead-time curve."""

    horizon: float
    mean_jct: float
    std_jct: float
    #: as :attr:`EfficacyRow.forecast_mae`.
    forecast_mae: Optional[float]
    reroutes: float


def _aggregate(
    variant: str,
    ratio: Optional[float],
    summaries,
) -> EfficacyRow:
    jcts = [s.jct for s in summaries]
    stats = [s.policy_stats for s in summaries]

    def mean_of(key: str) -> float:
        vals = [st.get(key, 0.0) for st in stats]
        return float(np.mean(vals)) if vals else 0.0

    # A run that matured no forecast reports an MAE of 0; averaging it
    # in would score it as perfect.
    maes = [
        st["forecast_mae_bytes"]
        for st in stats
        if st.get("forecast_evaluations", 0) > 0
    ]
    return EfficacyRow(
        variant=variant,
        ratio=ratio,
        mean_jct=float(np.mean(jcts)),
        std_jct=float(np.std(jcts, ddof=1)) if len(jcts) > 1 else 0.0,
        samples=tuple(jcts),
        forecast_mae=float(np.mean(maes)) if maes else None,
        reroutes=mean_of("forecast_reroutes"),
        stale_fallbacks=mean_of("forecast_stale_fallbacks"),
    )


def _variant_cells_and_kwargs(
    variant: str,
    spec_factory: Callable[[], JobSpec],
    ratios: Sequence[Optional[float]],
    seeds: Sequence[int],
    ramp: BackgroundRamp,
    horizon: float,
):
    """(scheduler, cells, run_kwargs) for one report variant."""
    if variant.startswith("pythia+"):
        scheduler = "pythia"
        config = PythiaConfig(
            forecast_mode=variant.split("+", 1)[1], forecast_horizon=horizon
        )
    else:
        scheduler = variant
        config = None
    cells = sweep_grid(spec_factory, (scheduler,), ratios, seeds)
    run_kwargs: dict = {"background_ramp": ramp}
    if config is not None:
        run_kwargs["pythia_config"] = config
    return cells, run_kwargs


def forecast_efficacy_sweep(
    spec_factory: Callable[[], JobSpec] = default_spec,
    modes: Sequence[str] = DEFAULT_MODES,
    ratios: Sequence[Optional[float]] = DEFAULT_RATIOS,
    seeds: Sequence[int] = (1, 2, 3),
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    ramp: BackgroundRamp = DEFAULT_RAMP,
    horizon: float = 5.0,
) -> list[EfficacyRow]:
    """JCT of every scheduler variant on the step-background scenario.

    Variants: ``ecmp``, ``hedera``, measured-load ``pythia``, and
    ``pythia+<mode>`` for each forecaster in ``modes``; one row per
    (variant, ratio).
    """
    variants = ["ecmp", "hedera", "pythia"] + [f"pythia+{m}" for m in modes]
    rows: list[EfficacyRow] = []
    for variant in variants:
        cells, run_kwargs = _variant_cells_and_kwargs(
            variant, spec_factory, ratios, seeds, ramp, horizon
        )
        report = run_cells(
            cells, workers=workers, cache_dir=cache_dir, run_kwargs=run_kwargs
        )
        per_ratio = len(seeds)
        for i, ratio in enumerate(ratios):
            chunk = report.summaries[i * per_ratio : (i + 1) * per_ratio]
            rows.append(_aggregate(variant, ratio, chunk))
    return rows


def forecast_lead_time_curve(
    mode: str = "ar",
    horizons: Sequence[float] = (1.0, 2.0, 5.0, 10.0),
    spec_factory: Callable[[], JobSpec] = default_spec,
    ratio: Optional[float] = 5,
    seeds: Sequence[int] = (1, 2, 3),
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    ramp: BackgroundRamp = DEFAULT_RAMP,
) -> list[LeadTimeRow]:
    """Forecast error and JCT as the prediction horizon stretches."""
    rows: list[LeadTimeRow] = []
    for horizon in horizons:
        cells, run_kwargs = _variant_cells_and_kwargs(
            f"pythia+{mode}", spec_factory, (ratio,), seeds, ramp, horizon
        )
        report = run_cells(
            cells, workers=workers, cache_dir=cache_dir, run_kwargs=run_kwargs
        )
        agg = _aggregate(f"pythia+{mode}", ratio, report.summaries)
        rows.append(
            LeadTimeRow(
                horizon=horizon,
                mean_jct=agg.mean_jct,
                std_jct=agg.std_jct,
                forecast_mae=agg.forecast_mae,
                reroutes=agg.reroutes,
            )
        )
    return rows


def _format_mae(mae: Optional[float]) -> str:
    return "n/a" if mae is None else f"{mae / 1e6:.2f}"


def format_efficacy(rows: Sequence[EfficacyRow]) -> str:
    """Render the efficacy sweep as the CLI's table."""
    return format_table(
        ["variant", "ratio", "mean JCT (s)", "std", "MAE (MB/s)", "reroutes", "fallbacks"],
        [
            (
                r.variant,
                "none" if r.ratio is None else f"1:{r.ratio:g}",
                f"{r.mean_jct:.2f}",
                f"{r.std_jct:.2f}",
                _format_mae(r.forecast_mae),
                f"{r.reroutes:.1f}",
                f"{r.stale_fallbacks:.1f}",
            )
            for r in rows
        ],
    )


def format_lead_time(rows: Sequence[LeadTimeRow]) -> str:
    """Render the lead-time curve as the CLI's table."""
    return format_table(
        ["horizon (s)", "mean JCT (s)", "std", "MAE (MB/s)", "reroutes"],
        [
            (
                f"{r.horizon:g}",
                f"{r.mean_jct:.2f}",
                f"{r.std_jct:.2f}",
                _format_mae(r.forecast_mae),
                f"{r.reroutes:.1f}",
            )
            for r in rows
        ],
    )
