"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (figure, table, or
prose claim) through :mod:`repro.bench`, prints the series the paper
plots, and asserts the paper's *shape* (who wins, roughly by how much,
where trends cross) — not absolute numbers, which depend on the
authors' testbed.

Scale: set ``REPRO_BENCH_SCALE`` (default ``0.5``) to trade run time
against workload size; ``1.0`` reproduces the full-size runs quoted in
EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

#: Fraction of each scenario's root-transaction count to run.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

#: Master seed for every benchmark run (EXPERIMENTS.md quotes this).
BENCH_SEED = 11


@pytest.fixture
def show():
    """Print an ExperimentResult table under ``-s``."""

    def _show(result):
        print()
        print(result.render())
        return result

    return _show
