"""Node crash/recovery side effects.

The *timing* of a crash is static — the injector's down-windows are
computed from the plan — but a crash also has to actively damage the
running system: every non-committing transaction family hosted on the
node is interrupted mid-coroutine, its directory entries are
reclaimed so other families stop waiting on a ghost, and holder-list
cache entries pointing at the node are invalidated.  This module
performs those side effects at the scheduled instants.

The model is fail-stop with stable storage: committed page versions
owned by the node survive the window (as if disk-backed), and a family
that has passed its commit point (``committing`` flag set by the
executor) is allowed to finish — its remaining messages are simply
delayed by the down-window drop/retransmit rule, which preserves
commit atomicity without a write-ahead log.
"""

from typing import TYPE_CHECKING

from repro.util.errors import NodeCrashError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.injector import FaultInjector

__all__ = ["CrashController"]


class CrashController:
    """Schedules the plan's crash and partition windows as processes."""

    def __init__(self, env, injector: "FaultInjector", lockmgr, cache,
                 executor, tracer, recovery=None):
        self.env = env
        self.injector = injector
        self.lockmgr = lockmgr
        self.cache = cache
        self.executor = executor
        self.tracer = tracer
        # Optional RecoveryManager: arms GDO home failover after the
        # detection timeout and durable replay/reconciliation on rejoin.
        self.recovery = recovery

    def schedule(self) -> None:
        """Spawn one driver process per planned crash/partition event."""
        for crash in self.injector.plan.crashes:
            self.env.process(self._run(crash),
                             name=f"fault.crash:N{crash.node_index}")
        for index, cut in enumerate(self.injector.plan.partitions):
            # Enforcement lives in the injector's static windows; these
            # processes only record the start/heal instants, which the
            # liveness checker needs to know when waiting is excusable.
            self.env.process(self._run_partition(cut),
                             name=f"fault.partition:{index}")

    def _run(self, crash):
        if crash.at_s > 0:
            yield self.env.timeout(crash.at_s)
        self._crash(crash)
        if self.recovery is not None:
            self.env.process(self.recovery.failover(crash),
                             name=f"fault.failover:N{crash.node_index}")
        yield self.env.timeout(crash.up_at_s - crash.at_s)
        self._recover(crash)

    def _run_partition(self, cut):
        if cut.at_s > 0:
            yield self.env.timeout(cut.at_s)
        if self.tracer.enabled:
            self.tracer.partition_start(cut.group_a, cut.heal_after_s)
        yield self.env.timeout(cut.heal_after_s)
        if self.tracer.enabled:
            self.tracer.partition_heal(cut.group_a)

    def _crash(self, crash) -> None:
        node_index = crash.node_index
        self.injector.stats.crashes += 1
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.node_crash(node_index, crash.up_at_s - crash.at_s)
        crashed_roots = []
        for root, family in sorted(self.executor.live_families.items()):
            if family.node.value != node_index or family.committing:
                continue
            crashed_roots.append(root)
            self.injector.stats.crash_aborted_families += 1
            if tracing:
                self.tracer.crash_abort(node_index, root)
            # Volatile state dies with the node: purge the family's
            # uncommitted writes from the store *before* crash_release
            # frees its locks, or a later family could read the doomed
            # writes while the interrupted coroutine's own (message-
            # stalled) unwinding has yet to reach the undo logs.
            self.executor.crash_rollback(family.txn)
            if family.process is not None:
                family.process.interrupt(
                    NodeCrashError(family.txn.id, node=family.node))
        invalidated = self.cache.invalidate_node(node_index)
        if invalidated and tracing:
            self.tracer.crash_cache_invalidate(node_index, invalidated)
        # Reclaim directory state even when no family was interrupted:
        # a family may already be unwinding (e.g. mid-abort) while its
        # waiters still sit in entry queues.
        self.lockmgr.crash_release(crashed_roots)

    def _recover(self, crash) -> None:
        self.injector.stats.recoveries += 1
        if self.tracer.enabled:
            self.tracer.node_recover(crash.node_index)
        if self.recovery is not None:
            self.recovery.rejoin(crash)
