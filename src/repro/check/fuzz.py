"""Fuzz campaigns: N seeds x protocols x fault presets.

:func:`run_campaign` enumerates :class:`~repro.check.explorer.FuzzTask`
combinations, executes each one under every oracle and checker, and on
failure shrinks the task (:func:`~repro.check.explorer.minimize`),
emits the one-line repro command, and dumps the failing trace as a
JSONL artifact — the race-detector workflow ``repro fuzz`` exposes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.check.explorer import (
    DEFAULT_POLICIES,
    FuzzReport,
    FuzzTask,
    minimize,
    repro_command,
    run_task,
)
from repro.util.errors import ConfigurationError

ALL_PROTOCOLS = ("cotec", "otec", "lotec", "rc")


@dataclass
class Failure:
    """One failing task, minimized, with its artifacts."""

    report: FuzzReport
    minimized: FuzzTask
    command: str
    artifacts: List[str] = field(default_factory=list)


@dataclass
class CampaignResult:
    """Aggregate outcome of one fuzz campaign."""

    tasks_run: int = 0
    committed: int = 0
    failed_txns: int = 0
    failures: List[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def trace_to_jsonl(trace: Sequence[dict]) -> str:
    """Serialize already-sanitized event dicts, one JSON object per
    line — the same format :func:`repro.obs.export.events_to_jsonl`
    produces from live events."""
    return "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in trace
    )


def _write_failure_artifacts(out_dir: str, failure: Failure) -> None:
    task = failure.report.task
    stem = f"fail-{task.protocol}-seed{task.seed}"
    if task.preset:
        stem += f"-{task.preset}"
    base = os.path.join(out_dir, stem)
    os.makedirs(out_dir, exist_ok=True)
    trace_path = f"{base}.trace.jsonl"
    with open(trace_path, "w") as handle:
        handle.write(trace_to_jsonl(failure.report.trace))
    failure.artifacts.append(trace_path)
    report_path = f"{base}.txt"
    with open(report_path, "w") as handle:
        handle.write(f"task: {task.describe()}\n")
        handle.write(f"repro: {failure.command}\n\n")
        for line in failure.report.failure_summary():
            handle.write(line + "\n")
    failure.artifacts.append(report_path)


def run_campaign(
    seeds: int,
    seed_base: int = 0,
    protocols: Sequence[str] = ALL_PROTOCOLS,
    presets: Sequence[Optional[str]] = (None,),
    policies: Sequence[str] = DEFAULT_POLICIES,
    scenario: str = "medium-high",
    scale: float = 0.25,
    nodes: int = 4,
    migration: bool = False,
    semantic: bool = False,
    mutate: Tuple[str, ...] = (),
    out_dir: Optional[str] = None,
    minimize_failures: bool = True,
    stop_on_failure: bool = False,
    progress: Optional[Callable[[FuzzReport], None]] = None,
) -> CampaignResult:
    """Run ``seeds`` x ``protocols`` x ``presets`` fuzz tasks.

    Each task's tie-break policy cycles deterministically through
    ``policies`` (keyed by the task counter), so a campaign mixes the
    random walk with every adversarial schedule.  Failures are
    minimized (unless disabled), given a one-line repro command, and —
    with ``out_dir`` set — dumped as ``*.trace.jsonl`` + ``*.txt``
    artifact pairs.
    """
    if seeds < 1:
        # Zero seeds would run nothing and report the campaign clean.
        raise ConfigurationError(
            f"a fuzz campaign needs at least one seed, got {seeds}"
        )
    result = CampaignResult()
    counter = 0
    for seed in range(seed_base, seed_base + seeds):
        for protocol in protocols:
            for preset in presets:
                policy = policies[counter % len(policies)]
                counter += 1
                task = FuzzTask(
                    seed=seed, protocol=protocol, preset=preset,
                    policy=policy, scenario=scenario, scale=scale,
                    nodes=nodes, migration=migration, semantic=semantic,
                    mutate=mutate,
                )
                report = run_task(task)
                result.tasks_run += 1
                result.committed += report.committed
                result.failed_txns += report.failed
                if progress is not None:
                    progress(report)
                if report.ok:
                    continue
                minimized = (
                    minimize(task) if minimize_failures else task
                )
                failure = Failure(
                    report=report, minimized=minimized,
                    command=repro_command(minimized),
                )
                if out_dir is not None:
                    _write_failure_artifacts(out_dir, failure)
                result.failures.append(failure)
                if stop_on_failure:
                    return result
    return result
