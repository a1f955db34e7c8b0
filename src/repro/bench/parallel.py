"""Parallel, cacheable execution of experiment plans.

Every experiment in :mod:`repro.bench.experiments` is a pure function
of its inputs: one deterministic cluster simulation per configuration
under comparison, with no shared state between configurations.  This
module turns that purity into throughput and memoization:

* a :class:`RunSpec` declares one cluster run — workload parameters,
  seed, :class:`~repro.runtime.config.ClusterConfig`, and the named
  builder that executes it and reduces it to a JSON-primitive
  *measurement* dict;
* an :class:`ExperimentPlan` is an ordered list of specs plus a
  ``collect`` function that folds the measurements (in spec order)
  into an :class:`~repro.bench.experiments.ExperimentResult`;
* an :class:`ExperimentRunner` executes the specs of one plan — or of
  a whole batch of plans at once — serially or across a
  ``multiprocessing`` pool, consulting an optional
  :class:`~repro.bench.cache.ResultCache` first.

Measurements are canonicalized through a JSON round-trip before they
reach ``collect``, so a result assembled from pool workers or from
cache files is byte-identical to one computed serially in-process.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.config import ClusterConfig
from repro.util.errors import ConfigurationError
from repro.workload.params import WorkloadParams


def _require_json_native(value, path: str) -> None:
    """Reject any payload value ``json.dumps`` could not round-trip.

    The cache fingerprints ``json.dumps(payload)``: a value that only
    serializes via a fallback ``repr`` (worst case one carrying a
    memory address) would make the key unstable across processes —
    silently always-missing, or colliding when the repr elides what
    differs.  Failing at construction turns that silent hazard into a
    loud :class:`ConfigurationError` naming the offending field.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _require_json_native(item, f"{path}[{index}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"RunSpec payload key {key!r} at {path} is "
                    f"{type(key).__name__}, not str — the cache key would "
                    f"depend on json.dumps coercion"
                )
            _require_json_native(item, f"{path}.{key}")
        return
    raise ConfigurationError(
        f"RunSpec payload value at {path} is {type(value).__name__} "
        f"({value!r}), not JSON-native — its cache fingerprint would fall "
        f"back to repr() and be unstable across processes"
    )


@dataclass(frozen=True)
class RunSpec:
    """One deterministic cluster run, declared rather than executed.

    Attributes:
        key: label of this run within its experiment (protocol name,
            sweep point, variant, ...) — display only, not keyed.
        config: the full cluster configuration for the run.
        params: workload generator parameters; ``None`` when the run
            uses a custom ``builder`` instead of a generated workload.
        seed: workload-generation seed.
        builder: name of the run's builder in
            :data:`repro.bench.experiments.BUILDERS` (``"workload"`` =
            generate the workload from ``params`` and run it).
        builder_args: ``(name, value)`` pairs passed to the builder.
    """

    key: str
    config: ClusterConfig
    params: Optional[WorkloadParams] = None
    seed: int = 11
    builder: str = "workload"
    builder_args: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # The cache fingerprints json.dumps(payload); anything that
        # would serialize via a repr fallback must fail loudly here,
        # not silently produce an always-miss (or colliding) key.
        _require_json_native(self.payload(), "payload")

    def payload(self) -> Dict[str, object]:
        """Everything that determines this run's measurement, as plain
        data — the cache fingerprints exactly this, so the same run
        declared by two experiments is computed once."""
        return {
            "seed": self.seed,
            "config": asdict(self.config),
            "params": None if self.params is None else asdict(self.params),
            "builder": self.builder,
            "builder_args": [list(pair) for pair in self.builder_args],
        }


@dataclass
class ExperimentPlan:
    """An experiment as data: ordered runs plus the fold over them."""

    specs: List[RunSpec]
    collect: Callable[[List[Dict[str, object]]], object]


def _canonical(measurement: Dict[str, object]) -> Dict[str, object]:
    """JSON round-trip: makes fresh, pooled, and cached measurements
    indistinguishable (tuples become lists, keys become strings)."""
    return json.loads(json.dumps(measurement))


def execute_run(spec: RunSpec) -> Dict[str, object]:
    """Run one spec to completion and reduce it to a measurement.

    This is the unit of work shipped to pool workers; everything it
    needs travels inside the picklable ``spec``.
    """
    # The builders live with the experiments that declare their runs.
    from repro.bench.experiments import BUILDERS

    return _canonical(BUILDERS[spec.builder](spec))


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

@dataclass
class RunnerStats:
    """Outcome of the runner's most recent ``execute`` batch."""

    runs: int = 0
    cache_hits: int = 0
    executed: int = 0

    def record(self, runs: int, cache_hits: int) -> None:
        self.runs = runs
        self.cache_hits = cache_hits
        self.executed = runs - cache_hits


class ExperimentRunner:
    """Executes experiment plans, optionally in parallel and cached.

    ``jobs`` is the worker-process count (1 = serial, in-process).
    ``cache`` is a :class:`~repro.bench.cache.ResultCache` or ``None``.
    Results are always merged in spec order, so the output of a
    parallel run is byte-identical to the serial one.
    """

    def __init__(self, jobs: int = 1, cache=None):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.last_stats = RunnerStats()
        self.last_plan_sizes: Dict[str, int] = {}
        self.last_plan_hits: Dict[str, int] = {}
        self._last_hit_flags: List[bool] = []

    # -- plan execution ----------------------------------------------------

    def run(self, experiment_id: str, **options):
        """Build and run one experiment of the table; the keyword
        options (seed, scale, num_nodes, plus the experiment's own
        knobs) reach :func:`~repro.bench.experiments.build_plan`."""
        return self.run_many([experiment_id], **options)[experiment_id]

    def run_many(self, experiment_ids: Sequence[str], **options):
        """Run a batch of experiments as one flat spec list, so the
        pool stays busy across experiment boundaries.  Returns
        ``{experiment id: result}`` in the requested order."""
        from repro.bench.experiments import build_plan

        plans = [(eid, build_plan(eid, **options)) for eid in experiment_ids]
        specs = [spec for _, plan in plans for spec in plan.specs]
        measurements = self.execute(specs)
        self.last_plan_sizes = {eid: len(plan.specs) for eid, plan in plans}
        self.last_plan_hits = {}
        results = {}
        offset = 0
        for eid, plan in plans:
            size = len(plan.specs)
            chunk = measurements[offset:offset + size]
            self.last_plan_hits[eid] = sum(
                self._last_hit_flags[offset:offset + size]
            )
            offset += size
            results[eid] = plan.collect(chunk)
        return results

    # -- spec execution ----------------------------------------------------

    def execute(self, specs: Sequence[RunSpec]) -> List[Dict[str, object]]:
        """Measurements for every spec, in order: cache first, then the
        pool (or the current process) for the misses."""
        results: List[Optional[Dict[str, object]]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)
        if pending:
            todo = [specs[index] for index in pending]
            if self.jobs > 1 and len(todo) > 1:
                processes = min(self.jobs, len(todo))
                with multiprocessing.get_context().Pool(processes) as pool:
                    fresh = pool.map(execute_run, todo, chunksize=1)
            else:
                fresh = [execute_run(spec) for spec in todo]
            for index, measurement in zip(pending, fresh):
                results[index] = measurement
                if self.cache is not None:
                    self.cache.put(specs[index], measurement)
        self.last_stats.record(runs=len(specs),
                               cache_hits=len(specs) - len(pending))
        executed = set(pending)
        self._last_hit_flags = [
            index not in executed for index in range(len(specs))
        ]
        return results  # type: ignore[return-value]


def run_experiment(experiment_id: str, *, jobs: int = 1, cache=None,
                   **options):
    """Run one experiment of :data:`repro.bench.experiments.EXPERIMENTS`.

    >>> result = run_experiment("fig6", jobs=4, scale=0.5)
    >>> result = run_experiment("fig7", software_costs=["100us", "500ns"])
    >>> print(result.render())
    """
    return ExperimentRunner(jobs=jobs, cache=cache).run(
        experiment_id, **options
    )
