"""Aggregation of forecast-efficacy cells into report rows."""

from types import SimpleNamespace

import pytest

from repro.experiments.forecast_efficacy import _aggregate, format_efficacy


def summary(jct, **stats):
    return SimpleNamespace(jct=jct, policy_stats=stats)


def test_aggregate_averages_mae_over_evaluated_runs_only():
    row = _aggregate(
        "pythia+ar",
        5,
        [
            summary(10.0, forecast_evaluations=4, forecast_mae_bytes=2e6,
                    forecast_reroutes=3, forecast_stale_fallbacks=1),
            # the job ended before any forecast matured: MAE 0 is "unknown"
            summary(14.0, forecast_evaluations=0, forecast_mae_bytes=0.0,
                    forecast_reroutes=1, forecast_stale_fallbacks=5),
        ],
    )
    assert row.forecast_mae == pytest.approx(2e6)
    # every other column still averages over all runs
    assert row.mean_jct == pytest.approx(12.0)
    assert row.samples == (10.0, 14.0)
    assert row.reroutes == pytest.approx(2.0)
    assert row.stale_fallbacks == pytest.approx(3.0)


def test_aggregate_reports_no_mae_without_matured_forecasts():
    unevaluated = _aggregate(
        "pythia+ar",
        5,
        [summary(13.0, forecast_evaluations=0, forecast_mae_bytes=0.0)] * 3,
    )
    measured = _aggregate("pythia", 5, [summary(15.0), summary(16.0)])
    assert unevaluated.forecast_mae is None
    assert measured.forecast_mae is None
    assert measured.reroutes == 0.0
    table = format_efficacy([unevaluated, measured])
    assert table.count("n/a") == 2
