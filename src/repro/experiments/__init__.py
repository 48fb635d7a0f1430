"""Experiment runners: one module per paper table/figure.

See DESIGN.md's experiment index.  Every runner stands on one stack —
topology, fluid network, controller + scheduler from
:func:`repro.stack.build_stack`, plus the Hadoop cluster,
instrumentation and background traffic the shared harness in
:mod:`repro.experiments.common` layers on top — executes the workload
to completion, and returns structured results that the benchmark
harness renders as the paper's rows/series.
"""

from repro.experiments.common import RunResult, run_experiment, run_pair

__all__ = ["RunResult", "run_experiment", "run_pair"]
