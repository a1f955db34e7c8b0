"""Pinned verdicts of the judge.

Each case is one fully determined fuzz task; its pin is the number of
violations :func:`repro.check.run_task` reports (the judge's, or the
trace judges' alone on a run that ended in error) and a digest of
them as ``(checker, index, message)`` rows, in order.  A change to how
the checkers read the trace must leave every pin as it is; a change to
the protocol or the trace format that moves one re-reads it from a run.

The cases: every registered mutation at the task shape that must catch
it, seeds 0-2; one clean task per fault preset; one clean task with
semantic lock modes.  The benchmark's own spelling of a mutation
(``benchmarks/perf/child.py`` sets ``cluster.lockmgr.test_mutations``)
must reach the same verdict as :func:`install_mutations`.
"""

import hashlib

import pytest

from dataclasses import replace

from repro.check import FuzzTask, judge, run_task
from repro.check.explorer import build_config
from repro.check.mutations import MUTATIONS
from repro.faults.plan import FAULT_PRESETS
from repro.runtime import Cluster
from repro.workload import SCENARIOS, generate_workload, run_workload

CLEAN = (0, "4f53cda18c2baa0c")

PINS = {
    "skip-precommit-retention-0": (191, "7e2a284a61194b98"),
    "skip-precommit-retention-1": (258, "a04e19e795b29f9d"),
    "skip-precommit-retention-2": (249, "88a175520a9c3092"),
    "skip-rejoin-invalidation-0": (34, "41239d29dc202a6f"),
    "skip-rejoin-invalidation-1": (31, "ff172ae2fa9ec107"),
    "skip-rejoin-invalidation-2": (32, "da2cce793a43011f"),
    "commute-conflicting-writes-0": (233, "ccaeb2687a23380d"),
    "commute-conflicting-writes-1": (161, "1d3c53ad476298fd"),
    "commute-conflicting-writes-2": (225, "390704907c5d61b2"),
    **{f"preset-{preset}": CLEAN for preset in FAULT_PRESETS},
    "semantic": CLEAN,
}


def _tasks():
    tasks = {}
    for name, mutation in MUTATIONS.items():
        for seed in range(3):
            tasks[f"{name}-{seed}"] = FuzzTask(
                seed=seed, mutate=(name,), **mutation.catch_with)
    for preset in FAULT_PRESETS:
        tasks[f"preset-{preset}"] = FuzzTask(seed=0, preset=preset)
    tasks["semantic"] = FuzzTask(seed=0, semantic=True)
    return tasks


TASKS = _tasks()


def pin_of(violations):
    rows = [(v.checker, v.index, v.message) for v in violations]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_every_case_is_pinned():
    assert sorted(TASKS) == sorted(PINS)


@pytest.mark.parametrize("case", sorted(TASKS))
def test_verdict_is_pinned(case):
    assert pin_of(run_task(TASKS[case]).violations) == PINS[case]


@pytest.mark.parametrize("name", ["skip-precommit-retention",
                                  "commute-conflicting-writes"])
def test_benchmark_spelling_reaches_the_same_verdict(name):
    task = replace(TASKS[f"{name}-0"], mutate=())
    cluster = Cluster(build_config(task))
    cluster.lockmgr.test_mutations = frozenset([name])
    run_workload(cluster, generate_workload(
        SCENARIOS[task.scenario].scaled(task.scale), seed=task.seed))
    assert pin_of(judge(cluster).violations) == PINS[f"{name}-0"]
