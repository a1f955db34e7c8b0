"""Deliberate protocol breakages, installed from the checking side.

The checkers are themselves tested against a broken protocol: a
mutated run that passes means the fuzzer has gone blind.  Production
code carries none of this — each installer wraps one method of an
already-built cluster, and traces nothing, because a real bug would
not announce itself.  :data:`MUTATIONS` is the one name → installer
table; beside each installer sits the fuzz-task shape that must catch
it (``tests/test_check_fuzz.py::test_every_mutation_is_caught``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Collection, Dict, NamedTuple, Optional

from repro.txn.locks import LockManager
from repro.txn.semantic import SemanticMode
from repro.util.errors import ConfigurationError


def _skip_precommit_retention(cluster) -> None:
    """Instead of the parent inheriting and retaining a pre-committing
    child's locks (Algorithm 4.3), drop whatever the family no longer
    strictly holds and wake anyone queued — other families can then
    touch the objects while this family's root is still running."""
    lockmgr = cluster.lockmgr

    def precommit_release(txn) -> None:
        for object_id in sorted(txn.lock_objects):
            entry = lockmgr.directory.entry(object_id)
            entry.release_on_abort(txn)
            for waiter in entry.pump(lockmgr.allow_recursive_reads):
                waiter.wake.succeed(entry.page_map_snapshot())
            lockmgr.directory.refresh_deadlock_edges(object_id)
        lockmgr._detect_deadlocks()

    lockmgr.precommit_release = precommit_release


def _skip_rejoin_invalidation(cluster) -> None:
    """Forget to reconcile stale holder records on rejoin: a recorded
    holder the live entry no longer has (its family terminated during
    the crash window) is re-installed as a retainer first, so the
    honest reconciliation finds it "still live" and keeps the ghost,
    which blocks foreign families forever.  No-op on a cluster whose
    plan has no crash, hence no rejoin."""
    recovery = cluster.recovery
    if recovery is None:
        return
    honest_rejoin = recovery.rejoin

    def rejoin(crash) -> None:
        holders = recovery.wal.node(crash.node_index).holders
        for object_id in sorted(holders, key=lambda oid: oid.value):
            entry = recovery.directory.entry(object_id)
            for txn, mode in holders[object_id]:
                if (txn.id not in entry.holders
                        and txn.id not in entry.retainers):
                    entry._retain(txn, mode)
        honest_rejoin(crash)

    recovery.rejoin = rejoin


def _commute_conflicting_writes(cluster) -> None:
    """Hand out semantic modes whose table claims every same-class
    pair commutes, so two genuinely conflicting writers are granted
    concurrently.  Only the lock manager's view is wrapped: the trace
    artifact carries the honest table, so the checkers must catch the
    resulting lost updates / non-serializable schedules."""
    lockmgr = cluster.lockmgr
    honest_mode_for = lockmgr.semantic_mode_for

    def semantic_mode_for(class_name, method_name, base):
        mode = honest_mode_for(class_name, method_name, base)
        if isinstance(mode, SemanticMode):
            # The honest table's read surface, as SemanticMode and the
            # executor consume it, with every pair commuting.
            mode = SemanticMode(mode.base, mode.tag, SimpleNamespace(
                methods=mode.table.methods,
                commutes=lambda left, right: True))
        return mode

    lockmgr.semantic_mode_for = semantic_mode_for


class Mutation(NamedTuple):
    """An installer, the ``FuzzTask`` fields under which it must be
    caught on at least 9 of 10 seeds, and the checker that must report
    it (``None``: any failing verdict counts)."""

    install: Callable[[object], None]
    catch_with: Dict[str, object]
    checker: Optional[str] = None


MUTATIONS: Dict[str, Mutation] = {
    "skip-precommit-retention": Mutation(
        _skip_precommit_retention, {"policy": "random"}),
    "skip-rejoin-invalidation": Mutation(
        _skip_rejoin_invalidation,
        {"preset": "crash-partition", "scale": 0.5}, "invariant.liveness"),
    "commute-conflicting-writes": Mutation(
        _commute_conflicting_writes,
        {"semantic": True, "policy": "random", "scale": 0.125}),
}


def require_known(names: Collection[str]) -> None:
    """A misspelt mutation raises instead of running the honest
    protocol under its name and reporting it clean."""
    for name in names:
        if name not in MUTATIONS:
            raise ConfigurationError(
                f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")


def install_mutations(cluster, names: Collection[str]) -> None:
    """Break ``cluster`` in each named way (before anything runs)."""
    require_known(names)
    for name in names:
        MUTATIONS[name].install(cluster)


# benchmarks/perf/child.py, which a PR may not edit, still spells its
# --mutate self-test `cluster.lockmgr.test_mutations = frozenset([name])`.
# This write-only attribute, attached from here so txn/ stays free of
# test-only code, routes that spelling through the table; it goes when
# that file can call install_mutations(cluster, [name]).
def _set_test_mutations(lockmgr, names) -> None:
    install_mutations(SimpleNamespace(lockmgr=lockmgr, recovery=None), names)


LockManager.test_mutations = property(fset=_set_test_mutations)
