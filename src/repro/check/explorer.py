"""The schedule explorer: one fuzz task = one reproducible run.

A :class:`FuzzTask` fully determines an execution — workload seed,
protocol, fault preset, tie-break policy, scenario, scale, node count,
and any test-only protocol mutations.  :func:`run_task` executes it
with tracing on and judges the result with every oracle this repo has:

* the serial-replay serializability oracle and the precedence-graph
  oracle (:mod:`repro.runtime.verify`),
* the nested-O2PL reference model (:mod:`repro.check.reference`),
* the trace invariant checkers (:mod:`repro.check.invariants`).

Identical tasks produce byte-identical traces (everything derives from
the seed and the deterministic simulation), which is what makes the
one-line repro command :func:`repro_command` emits trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.check.events import Violation, event_dicts
from repro.check.invariants import run_invariants
from repro.check.mutations import install_mutations, require_known
from repro.check.reference import check_reference_model
from repro.faults.plan import FAULT_PRESETS
from repro.gdo.migration import MigrationConfig
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.verify import (
    check_conflict_serializability,
    check_serializability,
)
from repro.util.errors import ConfigurationError, ReproError
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

#: Tie-break policies a default fuzz campaign cycles through: the
#: random walk for breadth plus every adversarial policy.
DEFAULT_POLICIES = (
    "random", "writer-first", "reader-first", "lifo", "starve-node",
)


@dataclass(frozen=True)
class FuzzTask:
    """One fully determined fuzzing execution."""

    seed: int
    protocol: str = "lotec"
    preset: Optional[str] = None      # FAULT_PRESETS key, or None
    policy: str = "random"            # repro.sim.tiebreak spec
    scenario: str = "medium-high"
    scale: float = 0.25
    nodes: int = 4
    migration: bool = False           # adaptive GDO home migration
    semantic: bool = False            # commutativity-based lock modes
    mutate: Tuple[str, ...] = ()      # repro.check.mutations names

    def __post_init__(self) -> None:
        require_known(self.mutate)

    def describe(self) -> str:
        parts = [
            f"seed={self.seed}", self.protocol,
            f"preset={self.preset or 'none'}", f"policy={self.policy}",
            self.scenario, f"scale={self.scale}", f"nodes={self.nodes}",
        ]
        if self.migration:
            parts.append("migration")
        if self.semantic:
            parts.append("semantic")
        if self.mutate:
            parts.append(f"mutate={','.join(self.mutate)}")
        return " ".join(parts)


@dataclass
class FuzzReport:
    """Everything :func:`run_task` learned about one task."""

    task: FuzzTask
    committed: int = 0
    failed: int = 0
    serializable: bool = True
    conflict_serializable: bool = True
    violations: List[Violation] = field(default_factory=list)
    error: Optional[str] = None       # unexpected runtime exception
    oracle_detail: List[str] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.serializable and self.conflict_serializable
                and not self.violations and self.error is None)

    def failure_summary(self) -> List[str]:
        lines: List[str] = []
        if self.error is not None:
            lines.append(f"runtime error: {self.error}")
        if not self.serializable:
            lines.append("serial-replay oracle: NOT equivalent")
        if not self.conflict_serializable:
            lines.append("precedence-graph oracle: cycle")
        lines.extend(self.oracle_detail)
        lines.extend(str(violation) for violation in self.violations)
        return lines


def build_config(task: FuzzTask) -> ClusterConfig:
    if task.preset is not None and task.preset not in FAULT_PRESETS:
        raise ConfigurationError(
            f"unknown fault preset {task.preset!r}; "
            f"known: {sorted(FAULT_PRESETS)}"
        )
    if task.scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {task.scenario!r}; known: {sorted(SCENARIOS)}"
        )
    return ClusterConfig(
        num_nodes=task.nodes, protocol=task.protocol, seed=task.seed,
        audit_accesses=False, trace=True, tiebreak=task.policy,
        faults=FAULT_PRESETS[task.preset] if task.preset else None,
        # Default policy knobs: eager enough to actually migrate at
        # fuzz scale, so the checkers exercise moved entries.
        migration=MigrationConfig() if task.migration else None,
        semantic_locks=task.semantic,
    )


def run_task(task: FuzzTask, keep_trace: bool = False) -> FuzzReport:
    """Execute one task and judge it with every checker.

    ``keep_trace`` attaches the sanitized trace-event dicts to the
    report (for artifact dumps and byte-identity tests).
    """
    report = FuzzReport(task=task)
    config = build_config(task)
    params = SCENARIOS[task.scenario].scaled(task.scale)
    workload = generate_workload(params, seed=task.seed)
    cluster = Cluster(config)
    install_mutations(cluster, task.mutate)
    try:
        run = run_workload(cluster, workload)
        report.committed = run.committed
        report.failed = run.failed
    except ReproError as exc:
        # The workload runner tolerates transaction aborts; anything
        # escaping it is a protocol-level failure the fuzzer caught.
        # A run that ends with families still in flight (the liveness
        # failure mode: quiescence with untriggered processes) lands
        # here too — so the invariant checkers still get to judge the
        # partial trace.  The state oracles are skipped: the cluster is
        # not in a judgeable end state.
        report.error = f"{type(exc).__name__}: {exc}"
        report.trace = event_dicts(cluster.trace_events)
        report.violations.extend(run_invariants(report.trace))
        return report
    events = event_dicts(cluster.trace_events)
    if keep_trace:
        report.trace = events
    try:
        serial = check_serializability(cluster)
        report.serializable = serial.equivalent
        report.oracle_detail.extend(
            serial.state_mismatches + serial.result_mismatches
        )
    except ReproError as exc:
        # e.g. divergent page owners while digesting state: the run is
        # internally inconsistent — count it as an oracle failure.
        report.serializable = False
        report.oracle_detail.append(
            f"oracle error: {type(exc).__name__}: {exc}"
        )
    conflict = check_conflict_serializability(cluster)
    report.conflict_serializable = conflict.equivalent
    report.oracle_detail.extend(
        line for line in conflict.state_mismatches
        if not conflict.equivalent
    )
    report.violations.extend(check_reference_model(
        events, allow_recursive_reads=config.allow_recursive_reads
    ))
    report.violations.extend(run_invariants(events))
    if not report.ok and not report.trace:
        report.trace = events
    return report


def repro_command(task: FuzzTask) -> str:
    """The one-liner that re-runs exactly this task."""
    parts = [
        "repro fuzz --seeds 1", f"--seed-base {task.seed}",
        f"--protocols {task.protocol}",
        f"--presets {task.preset or 'none'}",
        f"--policies {task.policy}",
        f"--scenario {task.scenario}", f"--scale {task.scale}",
        f"--nodes {task.nodes}",
    ]
    if task.migration:
        parts.append("--migration")
    if task.semantic:
        parts.append("--semantic")
    if task.mutate:
        parts.append(f"--mutate {','.join(task.mutate)}")
    return " ".join(parts)


def minimize(task: FuzzTask, max_attempts: int = 8) -> FuzzTask:
    """Greedily shrink a failing task while it keeps failing.

    Tries, in order: dropping the fault preset, reverting the tie-break
    policy to plain FIFO, and halving the workload scale (twice).  Each
    candidate reduction is re-executed (bounded by ``max_attempts``)
    and kept only if the failure survives — so the returned task is
    always a genuinely failing task, at most as big as the input.
    """
    current = task
    attempts = 0

    def still_fails(candidate: FuzzTask) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return not run_task(candidate).ok

    for build in (
        lambda t: replace(t, preset=None) if t.preset else None,
        lambda t: replace(t, migration=False) if t.migration else None,
        lambda t: replace(t, policy="fifo") if t.policy != "fifo" else None,
        lambda t: replace(t, scale=round(t.scale / 2, 4))
        if t.scale > 0.06 else None,
        lambda t: replace(t, scale=round(t.scale / 2, 4))
        if t.scale > 0.06 else None,
    ):
        candidate = build(current)
        if candidate is None:
            continue
        if still_fails(candidate):
            current = candidate
    return current
