"""Forecaster behaviour on constant / ramp / step / frozen-gap series.

The EWMA expectations are exact closed forms of the published
recurrence, so any drift in the update equation fails loudly rather
than shifting results quietly.
"""

import numpy as np
import pytest

from repro.forecast.models import (
    ARForecaster,
    EwmaExtrapolationForecaster,
    FORECASTERS,
    LinkLoadForecaster,
    make_forecaster,
)


def feed(model, series):
    for t, x in enumerate(series):
        model.observe(float(t), np.asarray(x, dtype=float))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_has_builtin_models():
    assert set(FORECASTERS) == {"ewma", "ar"}
    for name in ("ewma", "ar"):
        model = make_forecaster(name, nlinks=3)
        assert isinstance(model, LinkLoadForecaster)
        assert model.name == name


def test_make_forecaster_rejects_unknown():
    with pytest.raises(ValueError, match="unknown forecaster"):
        make_forecaster("oracle", nlinks=2)


# ----------------------------------------------------------------------
# EWMA extrapolation — exact closed forms
# ----------------------------------------------------------------------
def test_ewma_constant_series_is_exact():
    model = EwmaExtrapolationForecaster(nlinks=2, alpha=0.5)
    feed(model, [[40e6, 10e6]] * 5)
    assert model.ready()
    np.testing.assert_allclose(model.predict(5.0), [40e6, 10e6])


def test_ewma_ramp_closed_form():
    # x_t = 10 t; level_t = a x_t + (1-a) level_{t-1}, level_0 = x_0
    alpha = 0.5
    model = EwmaExtrapolationForecaster(nlinks=1, alpha=alpha)
    level = 0.0
    for t in range(6):
        x = 10.0 * t
        level = x if t == 0 else alpha * x + (1 - alpha) * level
        model.observe(float(t), np.array([x]))
    # flat extrapolation: the horizon does not move the prediction,
    # so an EWMA baseline always lags a ramp by a fixed gap.
    np.testing.assert_allclose(model.predict(1.0), [level])
    np.testing.assert_allclose(model.predict(100.0), [level])
    assert model.predict(5.0)[0] < 50.0  # strictly behind the ramp


def test_ewma_step_converges_geometrically():
    alpha = 0.5
    model = EwmaExtrapolationForecaster(nlinks=1, alpha=alpha)
    feed(model, [[0.0]] * 3 + [[100.0]] * 4)
    # after k post-step samples: 100 (1 - (1-a)^k), here k = 4
    expected = 100.0 * (1 - (1 - alpha) ** 4)
    np.testing.assert_allclose(model.predict(2.0), [expected])


def test_ewma_reset_keeps_level():
    model = EwmaExtrapolationForecaster(nlinks=1)
    feed(model, [[50.0], [50.0]])
    model.reset()
    assert model.ready()  # a flat level has no trend to discount
    np.testing.assert_allclose(model.predict(1.0), [50.0])


# ----------------------------------------------------------------------
# AR(p)
# ----------------------------------------------------------------------
def test_ar_needs_enough_history():
    model = ARForecaster(nlinks=1, order=3)
    feed(model, [[1.0]] * 7)
    assert not model.ready()
    model.observe(7.0, np.array([1.0]))
    assert model.ready()  # 2 * order + 2 = 8


def test_ar_constant_series_is_reproduced():
    model = ARForecaster(nlinks=2, order=2)
    feed(model, [[80e6, 3e6]] * 12)
    np.testing.assert_allclose(model.predict(1.0), [80e6, 3e6], rtol=1e-4)
    np.testing.assert_allclose(model.predict(6.0), [80e6, 3e6], rtol=1e-3)


def test_ar_recovers_ar2_process():
    # x_t = 5 + 0.6 x_{t-1} + 0.3 x_{t-2}, deterministic
    xs = [10.0, 12.0]
    for _ in range(28):
        xs.append(5.0 + 0.6 * xs[-1] + 0.3 * xs[-2])
    model = ARForecaster(nlinks=1, order=2, window=32)
    feed(model, [[x] for x in xs])
    truth = 5.0 + 0.6 * xs[-1] + 0.3 * xs[-2]
    assert model.predict(1.0)[0] == pytest.approx(truth, rel=1e-3)


def test_ar_ramp_tracks_slope():
    model = ARForecaster(nlinks=1, order=2, window=16)
    feed(model, [[10.0 * t] for t in range(12)])
    # AR with intercept fits a linear series exactly: x_t = x_{t-1} + 10
    assert model.predict(1.0)[0] == pytest.approx(120.0, rel=1e-2)
    assert model.predict(4.0)[0] == pytest.approx(150.0, rel=5e-2)


def test_ar_reset_requires_rewarm():
    model = ARForecaster(nlinks=1, order=2)
    feed(model, [[5.0]] * 10)
    assert model.ready()
    model.reset()
    assert not model.ready()
    feed(model, [[5.0]] * (2 * 2 + 2))
    assert model.ready()


def test_ar_multi_link_fits_are_independent():
    # one constant link, one ramp link — the batched solve must not mix them
    model = ARForecaster(nlinks=2, order=2, window=16)
    feed(model, [[50.0, 10.0 * t] for t in range(12)])
    pred = model.predict(1.0)
    assert pred[0] == pytest.approx(50.0, rel=1e-3)
    assert pred[1] == pytest.approx(120.0, rel=1e-2)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "ctor",
    [
        lambda: EwmaExtrapolationForecaster(nlinks=0),
        lambda: EwmaExtrapolationForecaster(nlinks=1, alpha=0.0),
        lambda: EwmaExtrapolationForecaster(nlinks=1, alpha=1.5),
        lambda: ARForecaster(nlinks=0),
        lambda: ARForecaster(nlinks=1, order=0),
        lambda: ARForecaster(nlinks=1, order=3, window=4),
    ],
)
def test_constructor_validation(ctor):
    with pytest.raises(ValueError):
        ctor()
