"""Node crash/recovery side effects.

The *timing* of a crash is static — the injector's down-windows are
computed from the plan — but a crash also has to actively damage the
running system: every non-committing transaction family hosted on the
node is interrupted mid-coroutine, its uncommitted writes are rolled
back, its directory entries are reclaimed so other families stop
waiting on a ghost, and holder-list cache entries pointing at the node
are invalidated.  This module performs those side effects at the
scheduled instants, and holds new root attempts off a down node (the
executor's ``start_hooks``).

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

    def __init__(self, env, injector: "FaultInjector", lockmgr, directory,
                 cache, executor, tracer, recovery=None):
        self.env = env
        self.injector = injector
        self.lockmgr = lockmgr
        self.directory = directory
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
            if family.txn.node.value != node_index or family.committing:
                continue
            crashed_roots.append(family.txn)
            self.injector.stats.crash_aborted_families += 1
            if tracing:
                self.tracer.crash_abort(node_index, root)
            # Volatile state dies with the node: purge the family's
            # uncommitted writes from the store *before* crash_release
            # frees its locks, or a later family could read the doomed
            # writes while the interrupted coroutine's own (message-
            # stalled) unwinding has yet to reach the undo logs.
            self.crash_rollback(family.txn)
            if family.process is not None:
                family.process.interrupt(
                    NodeCrashError(family.txn.id, node=family.txn.node))
        invalidated = self.cache.invalidate_node(node_index)
        if invalidated and tracing:
            self.tracer.crash_cache_invalidate(node_index, invalidated)
        # Reclaim directory state even when no family was interrupted:
        # a family may already be unwinding (e.g. mid-abort) while its
        # waiters still sit in entry queues.
        self.crash_release(crashed_roots)

    def crash_rollback(self, root) -> int:
        """Discard a crash-aborted family's uncommitted writes *now*.

        A node crash frees the family's directory entries at the crash
        instant (:meth:`crash_release`), but the family's own unwinding
        — which normally applies the undo logs frame by frame — is
        exception-driven and can stall on the down node's messaging
        until rejoin.  In that window another family could acquire the
        freed locks and read the doomed family's dirty slots straight
        out of the crashed node's store.  Volatile state dies with the
        node, so the whole family tree's logs and abort actions are
        applied here, newest frame first; the stalled unwinding later
        re-applies only already-emptied logs and idempotent actions.
        """
        store = self.executor.stores[root.node]
        applied = 0

        def walk(txn) -> None:
            nonlocal applied
            for child in reversed(txn.children):
                walk(child)
            applied += txn.undo.apply(store)
            txn.dirty.clear()
            for action in txn.abort_actions:
                action(txn)

        walk(root)
        return applied

    def crash_release(self, roots) -> None:
        """Forcibly reclaim directory state of crash-aborted families.

        A crashed family cannot run its own release protocol (its node
        is down and its processes were interrupted), so the GDO acts
        unilaterally: each root is marked aborted (its prefetchers,
        which no interrupt reaches, then take no lock), every entry
        drops the family's queued waiters (their processes are already
        dead — no wake is delivered) and releases its held/retained
        locks, then pumps so survivors stop waiting on a ghost.  Runs
        instantaneously at the crash instant; the control traffic a
        real directory would need is deliberately not charged, because
        the crashed node could not answer it.

        Idempotent with respect to the family's own in-flight abort
        processing: ``release_family`` and ``remove_family_waiters``
        are no-ops once the family is gone from an entry.
        """
        if not roots:
            return
        for root in roots:
            root.mark_aborted()
        dead = sorted(root.id.root for root in roots)
        for object_id, entry in sorted(self.directory.entries().items()):
            roots_before = entry.blocking_family_roots()
            touched = False
            for root in dead:
                if entry.remove_family_waiters(root):
                    touched = True
                if entry.family_present(root):
                    entry.release_family(root)
                    touched = True
            if not touched:
                continue
            if entry.is_free:
                self.cache.on_freed(object_id)
            # The lock manager's own grant path (Algorithm 4.4).
            self.lockmgr._deliver_grants(entry, entry.pump(), roots_before)

    def await_node_up(self, node):
        """Hold a new root attempt off while ``node`` is inside a crash
        window; with no crash covering now this yields nothing."""
        while True:
            until = self.injector.down_until(node, self.env.now)
            if until <= self.env.now:
                return
            yield self.env.timeout(until - self.env.now)

    def _recover(self, crash) -> None:
        self.injector.stats.recoveries += 1
        if self.tracer.enabled:
            self.tracer.node_recover(crash.node_index)
        if self.recovery is not None:
            self.recovery.rejoin(crash)
