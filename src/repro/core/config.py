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
    #: background-load forecaster: "off" (score against the measured
    #: EWMA, the paper's prototype behaviour) or a key of
    #: :data:`repro.forecast.models.FORECASTERS` ("ewma", "ar").
    #: Anything but "off" makes the allocator score path residuals
    #: against forecast(now + forecast_horizon) and runs the proactive
    #: elephant rerouter with its default guard rails.
    forecast_mode: str = "off"
    #: seconds ahead the forecaster predicts for allocation/rerouting.
    forecast_horizon: float = 5.0
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
        if self.stats_period <= 0:
            raise ValueError("stats_period must be positive")
        if not 0.0 < self.stats_alpha <= 1.0:
            raise ValueError("stats_alpha must be in (0, 1]")
        # Names are validated against the allocator and forecaster
        # tables lazily (config is imported everywhere, and the forecast
        # package stays unloaded while forecasting is off) — unknown
        # names still fail fast at construction time.
        from repro.core.allocator import _ALLOCATORS

        if self.allocation not in _ALLOCATORS:
            raise ValueError(
                f"unknown allocation {self.allocation!r}; "
                f"choose one of {sorted(_ALLOCATORS)}"
            )
        if self.aggregation not in ("server_pair", "rack_pair"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.ordering not in ("criticality", "arrival"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.forecast_mode != "off":
            from repro.forecast.models import FORECASTERS

            if self.forecast_mode not in FORECASTERS:
                raise ValueError(
                    f"unknown forecast_mode {self.forecast_mode!r}; "
                    f"choose 'off' or one of {sorted(FORECASTERS)}"
                )
        if self.forecast_horizon <= 0:
            raise ValueError("forecast_horizon must be positive")
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
