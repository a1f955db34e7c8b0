"""Experiment harness: one declaration per paper figure/table.

:data:`~repro.bench.experiments.EXPERIMENTS` is the table of
experiments; each declares its runs as an
:class:`~repro.bench.experiments.ExperimentPlan` (one fresh
deterministic cluster per configuration under comparison) and
regenerates a figure's underlying numbers (same series the paper plots)
on this reproduction's simulator.
:func:`~repro.bench.experiments.run_experiment` runs one, in process
and in spec order, and :mod:`repro.bench.report` renders the results as
ASCII tables.  See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for recorded paper-vs-measured outcomes.
"""

from repro.bench.experiments import (
    EXPERIMENTS,
    RESULT_SCHEMA_VERSION,
    ExperimentPlan,
    ExperimentResult,
    RunSpec,
    build_plan,
    run_experiment,
)
from repro.bench.report import (
    format_bar_chart,
    format_bench_summary,
    format_series_table,
    format_table,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentPlan",
    "ExperimentResult",
    "RESULT_SCHEMA_VERSION",
    "RunSpec",
    "build_plan",
    "run_experiment",
    "format_table",
    "format_bar_chart",
    "format_bench_summary",
    "format_series_table",
]
