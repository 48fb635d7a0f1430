"""Per-link background-load forecasters.

Pythia predicts *shuffle* demand from application intent; the other
half of the picture — background occupancy on each link — is only ever
measured (:class:`~repro.sdn.stats_service.LinkStatsService`'s EWMA).
This module closes the loop from the measurement side: a
:class:`LinkLoadForecaster` consumes the stats service's smoothed
per-link background series, one observation per poll, and predicts the
per-link occupancy a *horizon* into the future, so the allocator can
score path residuals against where the network is going rather than
where it last was ("Predictive networking and optimization for
flow-based networks"; "Methods for Predicting Behavior of Elephant
Flows in Data Center Networks").

Every model is vectorised across links — state is a handful of
``(nlinks,)`` arrays, one ``observe`` per stats poll — and every model
follows the same discipline after a frozen-stats gap: :meth:`reset`
drops trend/window state (the series across the gap is not a
contiguous sample), so no trend fitted across missing data is ever
extrapolated.  The flat EWMA keeps its level; AR empties its window
and the forecast service answers with the measured EWMA until it
re-warms.

Two models ship, named in :data:`FORECASTERS`: the flat EWMA baseline
and a per-link AR(p).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class LinkLoadForecaster(Protocol):
    """One-step-fed, h-seconds-out per-link load predictor."""

    name: str

    def observe(self, now: float, values: np.ndarray) -> None:
        """Feed one poll's smoothed per-link loads (bytes/s)."""
        ...

    def predict(self, horizon: float) -> np.ndarray:
        """Per-link load (bytes/s) ``horizon`` seconds past the last
        observation.  Only meaningful when :meth:`ready` is true."""
        ...

    def ready(self) -> bool:
        """True once enough history has been observed to predict."""
        ...

    def reset(self) -> None:
        """Discount accumulated trend/window state (frozen-stats gap)."""
        ...


class EwmaExtrapolationForecaster:
    """Flat extrapolation of an EWMA level — the measured-load baseline.

    Predicting "the future equals the current smoothed level" is
    exactly what the allocator assumed before forecasting existed, so
    this model is the control arm of every efficacy comparison: any
    JCT gain a trend-aware model shows is measured against it.  With
    ``alpha=1`` it degenerates to last-observation-carried-forward.
    """

    name = "ewma"

    def __init__(self, nlinks: int, period: float = 1.0, alpha: float = 0.5) -> None:
        if nlinks < 1:
            raise ValueError("nlinks must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.period = period
        self.alpha = alpha
        self._level = np.zeros(nlinks)
        self._observations = 0

    def observe(self, now: float, values: np.ndarray) -> None:
        if self._observations == 0:
            self._level = np.asarray(values, dtype=float).copy()
        else:
            self._level = self.alpha * values + (1.0 - self.alpha) * self._level
        self._observations += 1

    def predict(self, horizon: float) -> np.ndarray:
        return self._level.copy()

    def ready(self) -> bool:
        return self._observations >= 1

    def reset(self) -> None:
        # A flat level has no trend to discount; keep it.
        pass


class ARForecaster:
    """Per-link AR(p) fitted by ridge-regularised least squares.

    Keeps a sliding window of the last ``window`` observations per link
    and, on demand, fits ``x_t = c + sum_i phi_i * x_(t-i)`` over that
    window.  Multi-step prediction iterates the one-step model.  The
    fit is batched across links through the normal equations (one
    ``(p+1, p+1)`` solve per link, vectorised with ``np.linalg.solve``
    on a stacked array); a tiny ridge term keeps constant series —
    singular design matrices — well-posed, and the solution then
    reproduces the constant exactly.
    """

    name = "ar"

    def __init__(
        self,
        nlinks: int,
        period: float = 1.0,
        order: int = 3,
        window: int = 32,
        ridge: float = 1e-6,
    ) -> None:
        if nlinks < 1:
            raise ValueError("nlinks must be >= 1")
        if order < 1:
            raise ValueError("order must be >= 1")
        if window < 2 * order + 2:
            raise ValueError("window must be >= 2 * order + 2")
        self.period = period
        self.order = order
        self.window = window
        self.ridge = ridge
        self._history = np.zeros((window, nlinks))
        self._count = 0

    def observe(self, now: float, values: np.ndarray) -> None:
        self._history = np.roll(self._history, -1, axis=0)
        self._history[-1] = np.asarray(values, dtype=float)
        self._count = min(self._count + 1, self.window)

    def ready(self) -> bool:
        return self._count >= 2 * self.order + 2

    def reset(self) -> None:
        self._count = 0

    def _fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients ``(c, phi)`` and the scale used to condition them."""
        p = self.order
        series = self._history[self.window - self._count:]  # (n, nlinks)
        n, nlinks = series.shape
        # Normalise each link by its own scale so the ridge term is
        # dimensionless (byte-rate magnitudes would otherwise swamp it).
        scale = np.maximum(np.abs(series).max(axis=0), 1.0)
        s = series / scale
        rows = n - p
        # Design tensor: X[k] is link k's (rows, p+1) lagged matrix.
        x = np.empty((nlinks, rows, p + 1))
        x[:, :, 0] = 1.0
        for i in range(1, p + 1):
            x[:, :, i] = s[p - i: n - i].T
        y = s[p:].T  # (nlinks, rows)
        xtx = np.einsum("kri,krj->kij", x, x)
        xtx += self.ridge * np.eye(p + 1)
        xty = np.einsum("kri,kr->ki", x, y)
        # (nlinks, p+1, 1) rhs: batched solve needs an explicit column.
        coef = np.linalg.solve(xtx, xty[:, :, None])[:, :, 0]
        return coef[:, 0], coef[:, 1:], scale

    def predict(self, horizon: float) -> np.ndarray:
        p = self.order
        steps = max(1, int(round(horizon / self.period)))
        c, phi, scale = self._fit()
        # lags[:, 0] is x_(t), lags[:, i] is x_(t-i)
        lags = (self._history[-p:] / scale)[::-1].T.copy()  # (nlinks, p)
        for _ in range(steps):
            nxt = c + np.einsum("ki,ki->k", phi, lags)
            lags = np.concatenate([nxt[:, None], lags[:, :-1]], axis=1)
        return lags[:, 0] * scale


#: model-name -> factory(nlinks, period, **kwargs);
#: :attr:`~repro.core.config.PythiaConfig.forecast_mode` is validated
#: against these keys.
FORECASTERS: dict[str, Callable[..., LinkLoadForecaster]] = {
    "ewma": EwmaExtrapolationForecaster,
    "ar": ARForecaster,
}


def make_forecaster(name: str, nlinks: int, period: float = 1.0, **kwargs) -> LinkLoadForecaster:
    """Instantiate a forecaster by name."""
    try:
        factory = FORECASTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown forecaster {name!r}; known: {sorted(FORECASTERS)}"
        ) from None
    return factory(nlinks=nlinks, period=period, **kwargs)
