"""Predictive per-link load forecasting (ROADMAP item 3).

Closes Pythia's measurement-side prediction loop: forecasters model
each link's background occupancy from the stats service's sample
stream, the :class:`ForecastService` serves horizon-out predictions
with measured-EWMA fallback under staleness, and the
:class:`ProactiveRerouter` moves elephants off links forecast to
saturate before they actually do.
"""

from repro.forecast.models import (
    ARForecaster,
    EwmaExtrapolationForecaster,
    FORECASTERS,
    LinkLoadForecaster,
    make_forecaster,
)
from repro.forecast.reroute import ProactiveRerouter
from repro.forecast.service import ForecastService

__all__ = [
    "ARForecaster",
    "EwmaExtrapolationForecaster",
    "FORECASTERS",
    "ForecastService",
    "LinkLoadForecaster",
    "ProactiveRerouter",
    "make_forecaster",
]
