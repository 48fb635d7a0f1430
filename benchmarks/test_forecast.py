"""Forecast-efficacy regression gates (companion to BENCH_forecast.json).

Machine-independent gates for the predictive link-load pipeline: the
wall-clock-free quantities — forecast MAE on closed-form series, the
step-background JCT ordering, proactive reroute-count bounds, and
frozen-stats graceful degradation — are asserted here; the measured
JCT/MAE numbers behind them are recorded in BENCH_forecast.json.

Everything runs on the two-rack testbed at a small sort scale, so the
whole file is a CI smoke (<10 s), not a benchmark-harness run.
"""

import numpy as np
import pytest

from repro.core.config import PythiaConfig
from repro.experiments.common import run_experiment
from repro.experiments.forecast_efficacy import DEFAULT_RAMP
from repro.faults.chaos import ChaosSchedule, StatsFreeze
from repro.forecast.models import make_forecaster
from repro.workloads import sort_job

SEEDS = (1, 2)


def _jct(seed, config=None):
    return run_experiment(
        sort_job(input_gb=0.8),
        "pythia",
        ratio=5,
        seed=seed,
        pythia_config=config,
        background_ramp=DEFAULT_RAMP,
    )


# ----------------------------------------------------------------------
# forecast accuracy on closed-form series (no simulator, no wall clock)
# ----------------------------------------------------------------------
def _mae_on_series(model, series, horizon_steps):
    """One-shot backtest: observe the prefix, predict h steps out."""
    errors = []
    for t in range(len(series) - horizon_steps):
        model.observe(float(t), np.array([series[t]]))
        if model.ready():
            pred = float(model.predict(float(horizon_steps))[0])
            errors.append(abs(pred - series[t + horizon_steps]))
    return float(np.mean(errors))


def test_trend_forecasters_beat_ewma_on_ramp():
    """The gate that justifies the subsystem: on a ramp (the step
    scenario's leading edge) the trend-aware AR model must beat the
    flat-EWMA baseline's 3-step-ahead error essentially exactly."""
    series = [10.0 * t for t in range(24)]
    ewma = _mae_on_series(make_forecaster("ewma", nlinks=1), series, 3)
    ar = _mae_on_series(make_forecaster("ar", nlinks=1), series, 3)
    assert ar < 0.01 * ewma, f"ar {ar:.4f} vs ewma {ewma:.1f}"


def test_forecast_mae_bounded_on_step_series():
    """A step is the hardest case for trend models: whatever a model
    extrapolates across the edge, it must settle on the plateau."""
    series = [0.0] * 12 + [100.0] * 12
    # converged tails: both models within 5% of the plateau
    for name in ("ewma", "ar"):
        model = make_forecaster(name, nlinks=1)
        for t, x in enumerate(series):
            model.observe(float(t), np.array([x]))
        assert float(model.predict(3.0)[0]) == pytest.approx(100.0, rel=0.05)


# ----------------------------------------------------------------------
# step-background JCT gate (the issue's acceptance criterion)
# ----------------------------------------------------------------------
def test_forecast_improves_step_background_jct():
    """pythia+ar mean JCT <= measured-load pythia mean JCT under the
    stepped background surge, averaged over the CI seeds."""
    base, fc = [], []
    for seed in SEEDS:
        base.append(_jct(seed).jct)
        result = _jct(seed, PythiaConfig(forecast_mode="ar"))
        fc.append(result.jct)
        # reroute-count bounds: proactive moves happened, but the
        # cooldown kept them to a handful (not reroute thrash)
        reroutes = result.policy_stats["forecast_reroutes"]
        assert 1 <= reroutes <= 10, f"seed {seed}: {reroutes} reroutes"
    print(f"\nstep-background JCT  pythia {np.mean(base):.2f}s  "
          f"pythia+ar {np.mean(fc):.2f}s  (seeds {SEEDS})")
    assert np.mean(fc) <= np.mean(base), f"{np.mean(fc):.2f} > {np.mean(base):.2f}"


def test_forecast_off_is_bit_identical_to_default():
    """forecast_mode='off' must not perturb the measured-load pipeline:
    same seed, same JCT, no forecast counters in the run stats."""
    for seed in SEEDS:
        default = _jct(seed)
        off = _jct(seed, PythiaConfig(forecast_mode="off"))
        assert off.jct == default.jct
        assert "forecast_mode" not in off.policy_stats
        assert "forecast_mode" not in default.policy_stats


# ----------------------------------------------------------------------
# frozen-stats chaos: graceful degradation
# ----------------------------------------------------------------------
def test_frozen_stats_degrades_gracefully():
    """A mid-job stats freeze with forecasting on must complete without
    crashing or violating invariants, and the forecast service must
    record the degradation (fallbacks and/or a gap reset) rather than
    acting on stale trends."""
    freeze = ChaosSchedule(events=[StatsFreeze(at=4.0, duration=6.0)])
    for seed in SEEDS:
        result = run_experiment(
            sort_job(input_gb=0.8),
            "pythia",
            ratio=5,
            seed=seed,
            pythia_config=PythiaConfig(forecast_mode="ar"),
            background_ramp=DEFAULT_RAMP,
            chaos=lambda topo: freeze,
            invariants=True,
        )
        assert result.run.completed_at is not None
        assert result.invariants["violations"] == 0
        stats = result.policy_stats
        assert stats["forecast_gap_resets"] >= 1  # the thaw was discounted
        # one StatsFreeze event = two recorded transitions (frozen, live)
        assert result.faults_injected.get("stats_freeze", 0) == 2


def test_frozen_stats_forecast_matches_measured_fallback():
    """While degraded the forecast answers ARE the measured EWMA, so a
    fully frozen run must end with JCT close to the measured-load
    baseline's (same placements modulo pre-freeze reroutes)."""
    freeze = ChaosSchedule(events=[StatsFreeze(at=0.5, duration=60.0)])
    for seed in SEEDS:
        base = run_experiment(
            sort_job(input_gb=0.8),
            "pythia",
            ratio=5,
            seed=seed,
            background_ramp=DEFAULT_RAMP,
            chaos=lambda topo: freeze,
        )
        fc = run_experiment(
            sort_job(input_gb=0.8),
            "pythia",
            ratio=5,
            seed=seed,
            pythia_config=PythiaConfig(forecast_mode="ar"),
            background_ramp=DEFAULT_RAMP,
            chaos=lambda topo: freeze,
        )
        assert fc.run.completed_at is not None and base.run.completed_at is not None
        # frozen from t=0.5: the forecaster never becomes ready, every
        # answer is a measured fallback, and no proactive moves happen
        assert fc.policy_stats["forecast_reroutes"] == 0
        assert fc.jct == pytest.approx(base.jct, rel=1e-9)
