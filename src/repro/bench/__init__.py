"""Experiment harness: one declaration per paper figure/table.

:data:`~repro.bench.experiments.EXPERIMENTS` is the table of
experiments; each declares its runs as an
:class:`~repro.bench.parallel.ExperimentPlan` (one fresh deterministic
cluster per configuration under comparison) and regenerates a figure's
underlying numbers (same series the paper plots) on this
reproduction's simulator.  :func:`~repro.bench.parallel.run_experiment`
runs one; :class:`~repro.bench.parallel.ExperimentRunner` executes plans
serially or across a process pool, memoized through
:class:`~repro.bench.cache.ResultCache`, and :mod:`repro.bench.report`
renders the results as ASCII tables.  See DESIGN.md §3 for the
experiment index and EXPERIMENTS.md for recorded paper-vs-measured
outcomes.
"""

from repro.bench.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.bench.experiments import (
    EXPERIMENTS,
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    build_plan,
)
from repro.bench.parallel import (
    ExperimentPlan,
    ExperimentRunner,
    RunSpec,
    run_experiment,
)
from repro.bench.report import (
    format_bar_chart,
    format_bench_summary,
    format_series_table,
    format_table,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "EXPERIMENTS",
    "ExperimentPlan",
    "ExperimentResult",
    "ExperimentRunner",
    "RESULT_SCHEMA_VERSION",
    "ResultCache",
    "RunSpec",
    "build_plan",
    "run_experiment",
    "format_table",
    "format_bar_chart",
    "format_bench_summary",
    "format_series_table",
]
