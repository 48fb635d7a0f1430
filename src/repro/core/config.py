"""Pythia tunables, gathered in one place.

Defaults reflect the paper's deployment: k=2 usable inter-rack paths on
the testbed (we default k=4 so larger fabrics work unchanged), 3-5 ms
per-rule switch programming, sub-second controller statistics, and a
~10 s shuffle demand horizon for converting predicted bytes into an
expected load when packing paths.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PythiaConfig:
    """Knobs of the Pythia control plane."""

    #: k in the k-shortest-paths routing graph (§IV).
    k_paths: int = 4
    #: seconds over which a predicted transfer's bytes are assumed to
    #: drain when estimating the load it will put on a path.
    demand_horizon: float = 10.0
    #: controller link-stats sampling period / EWMA weight.
    stats_period: float = 1.0
    stats_alpha: float = 0.5
    #: hardware flow-install latency (3-5 ms/flow, §V-C) and control RTT.
    per_rule_latency: float = 0.004
    control_rtt: float = 0.002
    #: one-way management-network latency (out-of-band, §III).
    mgmt_latency: float = 0.002
    #: rule priority for Pythia aggregates (above the ECMP default of 0).
    rule_priority: int = 10
    #: allocation algorithm: "first_fit" (the paper's heuristic),
    #: "best_fit", or "water_filling" (the §IV "further flow scheduling
    #: algorithms" extension point).
    allocation: str = "first_fit"
    #: aggregation granularity: "server_pair" (paper default) or
    #: "rack_pair" (the §IV forwarding-state-conservation variant).
    aggregation: str = "server_pair"
    #: allocation ordering within a batch: "criticality" (largest
    #: predicted volume first — §VI credits Pythia with "incorporating
    #: flow priority as a criterion ... in addition to flow sizes") or
    #: "arrival" (FIFO, the FlowComb-style variant §VI contrasts).
    ordering: str = "criticality"
    #: weighted-shuffle extension (§II's motivating observation made
    #: actionable): flows toward a skewed reducer get a fair-share
    #: weight proportional to that reducer's predicted volume share, so
    #: "the flows terminated at reducer-0 ... get five times more
    #: network capacity".  Off by default (the paper's prototype routes
    #: but does not rate-weight).
    weighted_shuffle: bool = False
    #: clamp range for per-flow weights when weighted_shuffle is on.
    weight_clamp: tuple = (0.25, 8.0)
    #: background-load forecaster: "off" (score against the measured
    #: EWMA, the paper's prototype behaviour) or a name registered in
    #: :data:`repro.forecast.models.FORECASTERS` ("ewma",
    #: "holt_winters", "ar").  Anything but "off" makes the allocator
    #: score path residuals against forecast(now + forecast_horizon).
    forecast_mode: str = "off"
    #: seconds ahead the forecaster predicts for allocation/rerouting.
    forecast_horizon: float = 5.0
    #: stats staleness beyond which forecasts degrade to the measured
    #: EWMA; None means 3 x stats_period.
    forecast_stale_after: float | None = None
    #: run the proactive elephant rerouter when forecasting is on.
    forecast_reroute: bool = True
    #: forecast utilisation above which a link counts as saturating.
    reroute_threshold: float = 0.85
    #: minimum peak-utilisation improvement a reroute must deliver.
    reroute_margin: float = 0.05
    #: transport stall charged per proactive reroute (same physics as
    #: the Hedera baseline's mid-flight path change).
    reroute_pause: float = 0.1
    #: flows with less left than this cannot amortise a reroute.
    reroute_min_bytes: float = 8e6
    #: seconds a freshly rerouted flow is left alone.
    reroute_cooldown: float = 2.0
    #: prediction-ingestion pipeline: "off" (default — the monolithic
    #: collector → allocate → install chain, bit-identical to the
    #: original control path) or "staged" (bounded queues between
    #: explicit bind/shard/allocate/install stages; see
    #: :mod:`repro.pipeline`).
    pipeline_mode: str = "off"
    #: collector shards in staged mode; each shard owns the aggregate
    #: partitions its (job, destination) hash range maps to.
    pipeline_shards: int = 2
    #: per-queue capacity between stages (items; full queues push back).
    pipeline_queue_capacity: int = 256
    #: max items one stage pump consumes / max flow-mods merged into a
    #: single batched install transaction.
    pipeline_batch_max: int = 64
    #: drop superseded predictions for the same (job, map, reducer) key
    #: within a shard batch before folding them into aggregates.
    pipeline_coalesce: bool = True
    #: record the collector-facing message stream (predictions and
    #: reducer locations) so it can be saved as a replay tape.
    record_messages: bool = False

    def __post_init__(self) -> None:
        if self.k_paths < 1:
            raise ValueError("k_paths must be >= 1")
        if self.demand_horizon <= 0:
            raise ValueError("demand_horizon must be positive")
        if self.allocation not in ("first_fit", "best_fit", "water_filling"):
            raise ValueError(f"unknown allocation {self.allocation!r}")
        if self.aggregation not in ("server_pair", "rack_pair"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.ordering not in ("criticality", "arrival"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.forecast_mode != "off":
            # Validated against the registry lazily (import cycle: the
            # forecast package imports nothing from core, but config is
            # imported everywhere) — unknown names still fail fast at
            # construction time.
            from repro.forecast.models import FORECASTERS

            if self.forecast_mode not in FORECASTERS:
                raise ValueError(
                    f"unknown forecast_mode {self.forecast_mode!r}; "
                    f"registered: {sorted(FORECASTERS)} (or 'off')"
                )
        if self.forecast_horizon <= 0:
            raise ValueError("forecast_horizon must be positive")
        if self.forecast_stale_after is not None and self.forecast_stale_after <= 0:
            raise ValueError("forecast_stale_after must be positive")
        if not 0.0 < self.reroute_threshold <= 1.5:
            raise ValueError("reroute_threshold must be in (0, 1.5]")
        if self.reroute_margin < 0:
            raise ValueError("reroute_margin must be non-negative")
        if self.pipeline_mode not in ("off", "staged"):
            raise ValueError(
                f"unknown pipeline_mode {self.pipeline_mode!r}; "
                "choose 'off' or 'staged'"
            )
        if self.pipeline_shards < 1:
            raise ValueError("pipeline_shards must be >= 1")
        if self.pipeline_queue_capacity < 1:
            raise ValueError("pipeline_queue_capacity must be >= 1")
        if self.pipeline_batch_max < 1:
            raise ValueError("pipeline_batch_max must be >= 1")
