"""The judge and the schedule explorer.

:func:`judge` is the one definition of a clean run: ``repro run
--check``, ``repro load --check`` and every fuzz task gate on it.  It
judges a finished, traced cluster with every oracle this repo has:

* the serial-replay serializability oracle (:mod:`repro.runtime.verify`),
* the nested-O2PL reference model (:mod:`repro.check.reference`) and the
  trace invariant checkers (:mod:`repro.check.invariants`), over one
  reading of the event stream (:class:`repro.check.events.TraceIndex`).
  Conflict order is judged there once, by ``invariant.commit-order``:
  every lock is held to root commit or abort, so conflicting grants
  that follow commit order leave the precedence graph acyclic.

A :class:`FuzzTask` fully determines an execution — workload seed,
protocol, fault preset, tie-break policy, scenario, scale, node count,
and any test-only protocol mutations — and :func:`run_task` executes it
with tracing on and judges it.  Identical tasks produce byte-identical
traces (everything derives from the seed and the deterministic
simulation), which is what makes the one-line repro command
:func:`repro_command` emits trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.check.events import TraceIndex, Violation
from repro.check.invariants import run_invariants
from repro.check.mutations import install_mutations, require_known
from repro.check.reference import check_reference_model
from repro.faults.plan import FAULT_PRESETS
from repro.gdo.migration import MigrationConfig
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.verify import check_serializability
from repro.util.errors import ConfigurationError, ReproError
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

#: Tie-break policies a default fuzz campaign cycles through: the
#: random walk for breadth plus every adversarial policy.
DEFAULT_POLICIES = (
    "random", "writer-first", "reader-first", "lifo", "starve-node",
)


@dataclass
class Verdict:
    """What :func:`judge` found out about one finished run."""

    serializable: bool = True
    committed_roots: int = 0
    violations: List[Violation] = field(default_factory=list)
    oracle_detail: List[str] = field(default_factory=list)
    trace: List[dict] = field(default_factory=list)  # judged event dicts

    @property
    def ok(self) -> bool:
        return self.serializable and not self.violations

    def failure_summary(self) -> List[str]:
        lines: List[str] = []
        if not self.serializable:
            lines.append("serial-replay oracle: NOT equivalent")
        lines.extend(self.oracle_detail)
        lines.extend(str(violation) for violation in self.violations)
        return lines


def judge(cluster: Cluster) -> Verdict:
    """Judge a finished run: the serial replay, then the reference model
    and the invariant checkers over its trace."""
    if not cluster.tracer.enabled:
        raise ConfigurationError("judge needs a traced run: pass trace=True")
    verdict = Verdict(committed_roots=len(cluster.commit_log))
    try:
        serial = check_serializability(cluster)
        verdict.serializable = serial.equivalent
        verdict.oracle_detail.extend(
            serial.state_mismatches + serial.result_mismatches
        )
    except ReproError as exc:
        # e.g. divergent page owners while digesting state: the run is
        # internally inconsistent — count it as an oracle failure.
        verdict.serializable = False
        verdict.oracle_detail.append(
            f"oracle error: {type(exc).__name__}: {exc}"
        )
    trace = TraceIndex(cluster.trace_events)
    verdict.trace = trace.events
    verdict.violations.extend(check_reference_model(trace))
    verdict.violations.extend(run_invariants(trace))
    return verdict


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
class FuzzReport(Verdict):
    """Everything :func:`run_task` learned about one task: the judge's
    verdict plus the run's own outcome."""

    task: Optional[FuzzTask] = None
    committed: int = 0
    failed: int = 0
    error: Optional[str] = None       # unexpected runtime exception

    @property
    def ok(self) -> bool:
        return self.error is None and super().ok

    def failure_summary(self) -> List[str]:
        error = [] if self.error is None else [f"runtime error: {self.error}"]
        return error + super().failure_summary()


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
        trace=True, tiebreak=task.policy,
        faults=FAULT_PRESETS[task.preset] if task.preset else None,
        # Default policy knobs: eager enough to actually migrate at
        # fuzz scale, so the checkers exercise moved entries.
        migration=MigrationConfig() if task.migration else None,
        semantic_locks=task.semantic,
    )


def run_task(task: FuzzTask, keep_trace: bool = False) -> FuzzReport:
    """Execute one task and :func:`judge` it.

    A failing report carries the sanitized trace-event dicts (for
    artifact dumps); ``keep_trace`` keeps them on a clean one too (for
    byte-identity tests).
    """
    config = build_config(task)
    params = SCENARIOS[task.scenario].scaled(task.scale)
    workload = generate_workload(params, seed=task.seed)
    cluster = Cluster(config)
    install_mutations(cluster, task.mutate)
    try:
        run = run_workload(cluster, workload)
    except ReproError as exc:
        # The workload runner tolerates transaction aborts; anything
        # escaping it is a protocol-level failure the fuzzer caught.
        # A run that ends with families still in flight (the liveness
        # failure mode: quiescence with untriggered processes) lands
        # here too — so the trace judges still get to judge the partial
        # trace, in the order judge() runs them.  The serial replay is
        # skipped: the cluster is not in a judgeable end state.
        trace = TraceIndex(cluster.trace_events)
        return FuzzReport(task=task, error=f"{type(exc).__name__}: {exc}",
                          trace=trace.events,
                          violations=check_reference_model(trace)
                          + run_invariants(trace))
    report = FuzzReport(task=task, committed=run.committed,
                        failed=run.failed, **vars(judge(cluster)))
    if report.ok and not keep_trace:
        report.trace = []
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
