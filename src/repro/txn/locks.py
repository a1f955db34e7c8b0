"""The lock manager: Algorithms 4.1-4.4 on the simulated network.

Lock processing is split exactly as in the paper:

* **Local operations** touch only the holder list cached at the site
  where the holding family executes — they cost no messages.  These are
  intra-family acquisitions, pre-commit lock inheritance, and
  sub-transaction aborts whose locks stay retained by an ancestor.
* **Global operations** message the object's GDO home node: first
  acquisition by a family, enqueueing behind another family, root
  commit/abort release (with piggybacked dirty-page info), and the
  grant messages that carry the holder list and page map to a newly
  admitted family's site (Algorithm 4.2 / 4.4).

The generator methods (``acquire``, ``root_commit_release``, the abort
releases) are simulation processes: ``yield``ed sends advance the
virtual clock and are charged to :class:`~repro.net.NetworkStats`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.faults.injector import NULL_INJECTOR
from repro.gdo.cache import EntryCacheTracker
from repro.gdo.deadlock import first_cycle, pick_victim
from repro.gdo.directory import Directory
from repro.gdo.entry import DirectoryEntry, GrantDecision, LockMode, Waiter
from repro.net.message import Message, MessageCategory
from repro.net.transport import Transport
from repro.net.sizes import SizeModel
from repro.obs.tracer import NULL_TRACER
from repro.sim import Event, Process
from repro.txn.semantic import SemanticMode
from repro.txn.transaction import Transaction
from repro.util.backoff import backoff_delay
from repro.util.errors import (
    DeadlockError,
    LockTimeoutError,
    NodeCrashError,
    ProtocolError,
    RecursiveInvocationError,
)
from repro.util.ids import NodeId, ObjectId


@dataclass
class LockStats:
    """Lock-operation counters (the §5.1 locking-overhead discussion)."""

    local_acquisitions: int = 0
    global_acquisitions: int = 0
    waits: int = 0
    deadlocks: int = 0
    recursive_rejections: int = 0
    prefetch_granted: int = 0
    prefetch_denied: int = 0
    lock_timeouts: int = 0
    #: The deadlock detector's work: DFS runs started.
    cycle_searches: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "local_acquisitions": self.local_acquisitions,
            "global_acquisitions": self.global_acquisitions,
            "waits": self.waits,
            "deadlocks": self.deadlocks,
            "recursive_rejections": self.recursive_rejections,
            "prefetch_granted": self.prefetch_granted,
            "prefetch_denied": self.prefetch_denied,
            "lock_timeouts": self.lock_timeouts,
            "cycle_searches": self.cycle_searches,
        }


@dataclass(init=False)
class _BlockedFamily:
    """The entry a blocked family waits on and its one queued waiter."""

    __slots__ = ("entry", "waiter")
    entry: DirectoryEntry
    waiter: Waiter

    def __init__(self, entry: DirectoryEntry, waiter: Waiter):
        self.entry = entry
        self.waiter = waiter


class LockManager:
    """Drives directory entries, charges GDO traffic, detects deadlock."""

    def __init__(self, env, network: Transport, directory: Directory,
                 sizes: SizeModel, cache: EntryCacheTracker,
                 tracer=None, injector=None, migration=None, wal=None):
        self.env = env
        self.network = network
        self.directory = directory
        self.sizes = sizes
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector if injector is not None else NULL_INJECTOR
        #: Per-node durable record (repro.faults.wal); the home node's
        #: holder lists are snapshotted on every global grant/release so
        #: crash recovery can replay them.  ``None`` unless the fault
        #: plan schedules crashes.
        self.wal = wal
        #: Optional :class:`~repro.gdo.migration.HomeMigrationManager`;
        #: ``None`` keeps the static partition (and adds zero work).
        self.migration = migration
        # Entries with a home handoff currently on the wire; blocks a
        # second concurrent migration of the same entry.
        self._migrating: Set[ObjectId] = set()
        self.stats = LockStats()
        # At most one blocked transaction per (sequential) family.
        self._blocked: Dict[int, _BlockedFamily] = {}
        # Root serials of families killed by a node crash.  In-flight
        # helper processes (prefetchers) consult this so they never
        # grant new locks to a dead family after its cleanup ran.
        self.dead_families: Set[int] = set()
        # Per-object grant history: (family root serial, mode, sim time)
        # in grant order.  Feeds the precedence-graph oracle
        # (repro.runtime.verify.check_conflict_serializability).
        self.grant_history: Dict[ObjectId, List[Tuple[int, LockMode, float]]] = {}
        # Per-class commutativity tables (semantic lock modes); empty
        # unless ClusterConfig.semantic_locks registered them.
        self._commutativity: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Semantic lock modes
    # ------------------------------------------------------------------

    def register_commutativity(self, class_name: str, table) -> None:
        """Install one class's commutativity table (semantic modes on)."""
        self._commutativity[class_name] = table

    def commutativity_tables(self) -> Dict[str, object]:
        """The honest registered tables (checker artifact source)."""
        return dict(self._commutativity)

    def semantic_mode_for(self, class_name: str, method_name: str,
                          base: LockMode):
        """The lock mode for invoking ``method_name`` on ``class_name``.

        Returns a :class:`SemanticMode` when the class has a registered
        table and the method is eligible; otherwise the plain base mode
        (the conservative R/W fallback).
        """
        table = self._commutativity.get(class_name)
        if table is None:
            return base
        summary = table.methods.get(method_name)
        if summary is None or not summary.semantic:
            return base
        return SemanticMode(base, f"{class_name}.{method_name}", table)

    def _record_grant(self, object_id: ObjectId, txn, mode: LockMode) -> None:
        self.grant_history.setdefault(object_id, []).append(
            (txn.id.root, mode, self.env.now)
        )

    # ------------------------------------------------------------------
    # Acquisition (Algorithms 4.1 and 4.2)
    # ------------------------------------------------------------------

    def acquire(self, txn: Transaction, entry: DirectoryEntry, mode: LockMode):
        """Acquire the lock of ``entry``'s object for ``txn`` (simulation
        process).  The entry comes by reference, bound on the object's
        metadata at registration; ``txn.lock_objects`` carries it on.

        Returns the page-map snapshot sent with a *global* grant, or
        ``None`` for purely local grants (no data movement is implied
        by a local grant — the family's site already has whatever it
        fetched at its global acquisition).
        """
        object_id = entry.object_id
        node = txn.node
        # Algorithm 4.1: serve from the locally cached holder list when
        # this site caches the entry AND the requester belongs to the
        # holding family; every other case forwards to the global path.
        if (
            self.cache.is_local(object_id, node)
            and entry.family_present(txn.id.root)
        ):
            decision = entry.decide(txn, mode)
            if decision is GrantDecision.RECURSIVE:
                self.stats.recursive_rejections += 1
                raise RecursiveInvocationError(txn.id, object_id)
            if decision is GrantDecision.GRANTED:
                entry.grant(txn, mode)
                self._record_grant(object_id, txn, mode)
                txn.lock_objects[object_id] = entry
                self.stats.local_acquisitions += 1
                if self.tracer.enabled:
                    self.tracer.lock_granted(txn, object_id, mode, "local",
                                             info=entry.trace_info())
                return None
            # WAIT_GLOBAL: our family retains the lock, but readers from
            # another family also hold it — Algorithm 4.1's ELSE branch
            # forwards such requests to GlobalLockAcquisition.
        # Algorithm 4.2: global processing at the entry's home node.
        self.stats.global_acquisitions += 1
        if self.migration is not None:
            self.migration.record_access(object_id, node)
        if (self.injector.enabled and self.injector.failover_detect_s() > 0
                and self.injector.is_down(entry.home_node, self.env.now)):
            yield from self._reroute_failover(entry)
        home = entry.home_node
        request_started = self.env.now
        if self.tracer.enabled:
            self.tracer.gdo_forward(node, home, object_id)
        if not (self.env.marks_tail
                and self.network.lands_inline(node, home)):
            request = Message(
                src=node, dst=home,
                category=MessageCategory.LOCK_REQUEST,
                size_bytes=self.sizes.lock_request(), object_id=object_id,
            )
            yield self.network.send(request)
        if entry.home_node != home:
            # The entry's home migrated while our request was on the
            # wire: the stale home forwards it (one extra hop).
            yield from self._forward_request(object_id, home,
                                             entry.home_node)
        family_already_present = entry.family_present(txn.id.root)
        decision = entry.decide(txn, mode)
        if decision is GrantDecision.RECURSIVE:
            self.stats.recursive_rejections += 1
            raise RecursiveInvocationError(txn.id, object_id)
        if decision is GrantDecision.GRANTED:
            entry.grant(txn, mode)
            self._record_grant(object_id, txn, mode)
            self.cache.on_granted(object_id, node)
            if self.wal is not None:
                self._wal_record_holders(object_id, entry)
            # A re-entrant grant (the family already holds/retains the
            # lock, e.g. after its cached entry was displaced) carries
            # no page map and moves NO data — the family's site has
            # been current since its first acquisition, and may hold
            # uncommitted writes a transfer must never clobber.
            snapshot = (None if family_already_present
                        else entry.page_map_snapshot())
            if not (self.env.marks_tail
                    and self.network.lands_inline(entry.home_node, node)):
                grant = Message(
                    src=entry.home_node, dst=node,
                    category=MessageCategory.LOCK_GRANT,
                    size_bytes=(
                        self.sizes.control() if snapshot is None
                        else self.sizes.lock_grant(
                            holder_entries=len(entry.holder_entries()),
                            page_map_entries=len(snapshot),
                        )
                    ),
                    object_id=object_id,
                )
                yield self.network.send(grant)
            txn.lock_objects[object_id] = entry
            if self.tracer.enabled:
                self.tracer.gdo_request_latency(
                    entry.home_node, self.env.now - request_started
                )
                self.tracer.lock_granted(txn, object_id, mode, "global",
                                         info=entry.trace_info())
            return snapshot
        payload = yield from self._wait(entry, txn, mode)
        if self.tracer.enabled:
            self.tracer.gdo_request_latency(
                entry.home_node, self.env.now - request_started
            )
        txn.lock_objects[object_id] = entry
        return payload

    def try_prefetch(self, txn: Transaction, object_id: ObjectId,
                     mode: LockMode):
        """Optimistic, non-blocking pre-acquisition (§5.1/§6).

        Charges a GDO round trip; if the lock is free for ``txn`` it is
        granted and immediately demoted to *retained* so descendants of
        ``txn`` acquire it locally.  If not immediately grantable, the
        request gives up (no queueing — optimism never blocks, so it
        cannot add deadlocks).  Returns the page-map snapshot on a
        fresh grant, else None.
        """
        entry = self.directory.entry(object_id)
        node = txn.node
        if txn.id.root in self.dead_families:
            raise NodeCrashError(txn.id, node=node)
        if entry.family_present(txn.id.root):
            return None  # already ours: nothing to pre-acquire
        if self.migration is not None:
            self.migration.record_access(object_id, node)
        if (self.injector.enabled and self.injector.failover_detect_s() > 0
                and self.injector.is_down(entry.home_node, self.env.now)):
            yield from self._reroute_failover(entry)
        home = entry.home_node
        request = Message(
            src=node, dst=home,
            category=MessageCategory.LOCK_REQUEST,
            size_bytes=self.sizes.lock_request(), object_id=object_id,
        )
        yield self.network.send(request)
        if entry.home_node != home:
            yield from self._forward_request(object_id, home,
                                             entry.home_node)
        if txn.id.root in self.dead_families:
            # The family's node crashed while the request was on the
            # wire; granting now would leak a lock nobody releases.
            raise NodeCrashError(txn.id, node=node)
        decision = entry.decide(txn, mode)
        if decision is not GrantDecision.GRANTED or entry.family_present(
            txn.id.root
        ):
            self.stats.prefetch_denied += 1
            if self.tracer.enabled:
                self.tracer.lock_prefetch(txn, object_id, granted=False,
                                          mode=mode)
            nack = Message(
                src=entry.home_node, dst=node,
                category=MessageCategory.CONTROL,
                size_bytes=self.sizes.control(), object_id=object_id,
            )
            yield self.network.send(nack)
            return None
        entry.grant(txn, mode)
        self._record_grant(object_id, txn, mode)
        entry.demote_to_retained(txn)
        self.cache.on_granted(object_id, node)
        if self.wal is not None:
            self._wal_record_holders(object_id, entry)
        self.stats.prefetch_granted += 1
        if self.tracer.enabled:
            self.tracer.lock_prefetch(txn, object_id, granted=True, mode=mode)
        snapshot = entry.page_map_snapshot()
        grant = Message(
            src=entry.home_node, dst=node,
            category=MessageCategory.LOCK_GRANT,
            size_bytes=self.sizes.lock_grant(
                holder_entries=len(entry.holder_entries()),
                page_map_entries=len(snapshot),
            ),
            object_id=object_id,
        )
        yield self.network.send(grant)
        if txn.id.root in self.dead_families:
            # Crash landed during the grant's flight; the crash cleanup
            # already reclaimed the entry, so just stop quietly.
            raise NodeCrashError(txn.id, node=node)
        txn.lock_objects[object_id] = entry
        return snapshot

    def _wal_record_holders(self, object_id: ObjectId,
                            entry: DirectoryEntry) -> None:
        """Snapshot the entry's holders into its home's durable record.

        A crashed home takes no writes: its stable storage keeps the
        last pre-crash snapshot, which is exactly what the node must
        reconcile (discard stale holders) when it rejoins — see
        :meth:`repro.faults.recovery.RecoveryManager.rejoin`.  Called
        only under a ``wal is not None`` branch, so crashes are planned
        and the injector is a real one.
        """
        home = entry.home_node
        if self.injector.is_down(home, self.env.now):
            return
        self.wal.record_holders(home.value, object_id, entry)

    def _reroute_failover(self, entry: DirectoryEntry):
        """Wait out a dead home until failover re-homes the entry.

        Without failover armed, a request to a down home rides the
        retransmission loop until the node recovers — correct, but the
        family stalls for the whole crash window.  With it, back off on
        the unified curve (base = the detection timeout, so the first
        re-check lands right around the failover instant) until either
        the entry was re-homed to the live successor or the node
        recovered first; the caller then re-reads ``entry.home_node``.
        Called only under an ``injector.enabled`` branch.
        """
        self.injector.stats.failover_reroutes += 1
        base = self.injector.failover_detect_s()
        attempt = 0
        while self.injector.is_down(entry.home_node, self.env.now):
            yield self.env.timeout(backoff_delay(base, attempt))
            attempt += 1

    def _forward_request(self, object_id: ObjectId, old_home: NodeId,
                         new_home: NodeId):
        """One extra hop for a request that raced a home migration: the
        stale home still answers its old address and relays to the new
        home (DESIGN §11's forwarding protocol)."""
        if self.migration is not None:
            self.migration.note_forwarded()
        if self.tracer.enabled:
            self.tracer.gdo_request_forwarded(object_id, old_home, new_home)
        relay = Message(
            src=old_home, dst=new_home,
            category=MessageCategory.LOCK_REQUEST,
            size_bytes=self.sizes.lock_request(), object_id=object_id,
        )
        yield self.network.send(relay)

    def _wait(self, entry: DirectoryEntry, txn: Transaction, mode: LockMode):
        """Block until granted; raises DeadlockError if chosen as victim."""
        root = txn.id.root
        if root in self._blocked:
            raise ProtocolError(
                f"family {root} blocked twice concurrently; families are "
                f"sequential (one live request at a time)"
            )
        self.stats.waits += 1
        wake = self.env.event()
        # Scheduling hints for same-instant tie-break policies
        # (repro.sim.tiebreak): which family/node/mode this wake admits.
        wake.hints = {
            "kind": "lockwait",
            # Tie-break policies key on the plain base (writer-first
            # must treat W+tag exactly like W).
            "mode": getattr(mode, "base", mode).value,
            "node": txn.node.value, "root": txn.id.root,
            "object": entry.object_id.value,
        }
        waiter = Waiter(txn=txn, mode=mode, wake=wake)
        entry.enqueue_global(waiter)
        self._blocked[root] = _BlockedFamily(entry=entry, waiter=waiter)
        self._detect_deadlocks(root)
        tracing = self.tracer.enabled
        token = (self.tracer.lock_wait_begin(txn, entry.object_id, mode)
                 if tracing else None)
        # Shard attribution is pinned at enqueue time: a migration
        # mid-wait must not unbalance the inc/dec pair.
        shard = entry.home_node
        if tracing:
            self.tracer.gdo_queue_depth(shard, +1)
        timeout_s = (self.injector.lock_wait_timeout_s()
                     if self.injector.enabled else 0.0)
        try:
            if timeout_s > 0:
                payload = yield from self._wait_bounded(entry, waiter,
                                                        timeout_s)
            else:
                payload = yield waiter.wake
        except BaseException:
            if tracing:
                self.tracer.lock_wait_end(token, ok=False)
            raise
        finally:
            if tracing:
                self.tracer.gdo_queue_depth(shard, -1)
            self._blocked.pop(root, None)
        if tracing:
            self.tracer.lock_wait_end(token, ok=True)
        self._record_grant(entry.object_id, txn, mode)
        return payload

    def _wait_bounded(self, entry: DirectoryEntry, waiter: Waiter,
                      timeout_s: float):
        """Race the wake event against the fault plan's wait bound.

        On timeout the waiter is withdrawn from the entry and the whole
        family aborts with :class:`LockTimeoutError` (the executor
        retries it with backoff).  Two races need care: the grant may
        already be *in flight* when the timer fires (the waiter is no
        longer queued — honor the grant), and the wake may fail at the
        same instant the timer fires (deadlock victim — re-raise it).
        """
        started = self.env.now
        index, value = yield self.env.any_of(
            [waiter.wake, self.env.timeout(timeout_s)]
        )
        if index == 0:
            return value
        if waiter.wake.triggered:
            if waiter.wake.ok:
                return waiter.wake.value
            raise waiter.wake.value
        if not entry.remove_waiter(waiter.txn_id):
            if waiter.txn_id.root in self.dead_families:
                raise NodeCrashError(waiter.txn_id)
            # Already granted; the grant message is on the wire.
            payload = yield waiter.wake
            return payload
        waited = self.env.now - started
        self.stats.lock_timeouts += 1
        self.injector.stats.lock_timeouts += 1
        if self.tracer.enabled:
            self.tracer.lock_timeout(waiter.txn, entry.object_id, waited)
        raise LockTimeoutError(waiter.txn_id, entry.object_id, waited)

    def _detect_deadlocks(self, root: int) -> None:
        """Abort a victim per cycle, after family ``root`` blocked.

        The graph is read off the lock table (:mod:`repro.gdo.deadlock`)
        and the lock manager leaves no cycle reachable from a blocked
        family, so a new cycle needs a new edge whose target waits.  The
        blocking family's edges are new.  Every other new edge points at
        a family that just gained a lock, or a stronger one: the running
        requester, a family a pump just admitted (its waiter left the
        queue), a pre-committing child's parent, a root prefetching
        before it runs.  That family waits for nobody, so a cycle
        through the edge can only close when it next blocks — here
        again.  So every cycle runs through ``root``, and a search from
        ``root`` finds one exactly when one exists.  While it does, the
        victim's cycle is the first one found from the blocked families
        in serial order — which cycle dies is part of the schedule — and
        a victim's abort only deletes its edges, so every cycle left
        still runs through ``root``: one search from it ends the round,
        however many other families wait.  The round reads each family's
        edges at most once and keeps its cycle-free certificates.
        """
        blocked = self._blocked
        edges: Dict[int, List[int]] = {}
        cycle_free: Set[int] = set()
        while first_cycle((root,), blocked, edges, cycle_free,
                          self.stats) is not None:
            cycle = first_cycle(sorted(blocked), blocked, edges, cycle_free,
                                self.stats)
            # Its waiter left the queue: it reaches nothing now (when it
            # is ``root``, the round is over without another search).
            cycle_free.add(self._abort_victim(cycle))

    def _abort_victim(self, cycle) -> int:
        """Fail the youngest blocked family of ``cycle``; returns its root."""
        victim_root = pick_victim(cycle, self._blocked)
        self.stats.deadlocks += 1
        if self.tracer.enabled:
            self.tracer.deadlock(victim_root, cycle)
        blocked = self._blocked.pop(victim_root)
        txn_id = blocked.waiter.txn_id
        blocked.entry.remove_waiter(txn_id)
        blocked.waiter.wake.fail(DeadlockError(txn_id, cycle))
        return victim_root

    # ------------------------------------------------------------------
    # Release (Algorithms 4.3 and 4.4)
    # ------------------------------------------------------------------

    def precommit_release(self, txn: Transaction) -> None:
        """Pre-commit lock disposition — purely local (Algorithm 4.3).

        The parent inherits and retains every lock ``txn`` holds or
        retains; any waiter this makes grantable is woken on the spot.
        """
        parent = txn.parent
        if parent is None:
            raise ProtocolError("precommit_release on a root transaction")
        held = txn.lock_objects
        if held and self.tracer.enabled:
            self.tracer.lock_inherited(txn, parent, sorted(held))
        wakes = []
        for _object_id, entry in sorted(held.items()):
            entry.release_to_parent(txn, parent)
            if entry.waiting_families:  # nobody queued: nothing to pump
                for waiter in entry.pump():  # a loop: no generator frame
                    wakes.append(waiter.wake)
        # Same-instant wakes ride one batched heap entry (FIFO order
        # preserved — see Environment.succeed_all).
        self.env.succeed_all(wakes)

    def sub_abort_release(self, txn: Transaction):
        """Sub-transaction abort (Algorithm 4.3, last case) — process.

        Locks retained by an ancestor stay retained (local, free);
        locks the family no longer needs are released globally with no
        dirty-page info.
        """
        freed: Dict[ObjectId, DirectoryEntry] = {}
        wakes = []
        for object_id, entry in sorted(txn.lock_objects.items()):
            family_gone = entry.release_on_abort(txn)
            if family_gone:
                # Defer pumping to the global path so newly admitted
                # families get their grant message and cache update.
                freed[object_id] = entry
            else:
                wakes.extend(
                    waiter.wake
                    for waiter in entry.pump()
                )
        self.env.succeed_all(wakes)
        yield from self._global_release(
            node=txn.node, root_serial=txn.id.root, entries=freed,
            dirty={}, resident_versions={}, cause="sub-abort",
        )

    def root_commit_release(self, root: Transaction, resident_versions):
        """Root commit (Algorithm 4.4) — simulation process.

        ``resident_versions`` maps object id -> {page: local version} at
        the committing node; with the dirty sets accumulated up the
        tree it updates the page map before other families are admitted.
        Returns ``{object id: directory entry}`` of every released lock.
        """
        return (yield from self._global_release(
            node=root.node, root_serial=root.id.root,
            entries=dict(sorted(root.lock_objects.items())),
            dirty=root.dirty, resident_versions=resident_versions,
            cause="commit",
        ))

    def root_abort_release(self, root: Transaction):
        """Root abort: release everything, no dirty info (Algorithm 4.3)."""
        yield from self._global_release(
            node=root.node, root_serial=root.id.root,
            entries=dict(sorted(root.lock_objects.items())),
            dirty={}, resident_versions={}, cause="abort",
        )

    def _global_release(self, node: NodeId, root_serial: int,
                        entries: Dict[ObjectId, DirectoryEntry],
                        dirty: Dict[ObjectId, set],
                        resident_versions: Dict[ObjectId, Dict[int, int]],
                        cause: str = "commit"):
        """Release ``entries`` (object id -> entry, in id order) at their
        homes; returns them."""
        if not entries:
            return entries
        if self.tracer.enabled:
            self.tracer.lock_released(node, root_serial, list(entries), cause)
        # One release message per distinct home node, dirty info
        # piggybacked (§4.1: "Dirty page information may be piggybacked
        # on each global lock release message").
        by_home: Dict[NodeId, List[ObjectId]] = defaultdict(list)
        for object_id, entry in entries.items():
            by_home[entry.home_node].append(object_id)
        # Releasing at the one home the objects have is a local call:
        # it lands in place for the delivery and the ``all_of`` of it.
        if (len(by_home) != 1 or not self.env.marks_tail
                or not self.network.lands_inline(
                    node, next(iter(by_home)), 2)):
            sends = []
            for home, oids in sorted(by_home.items()):
                if (home == node and len(by_home) > 1
                        and self.env.tiebreak is None):
                    # Our own share is a local call that lands at once
                    # and only counts the ``all_of`` down; the remote
                    # shares land later.  Count its one event, no send.
                    self.env._events_processed += 1
                    continue
                dirty_entries = sum(len(dirty.get(oid, ())) for oid in oids)
                message = Message(
                    src=node, dst=home,
                    category=MessageCategory.LOCK_RELEASE,
                    size_bytes=self.sizes.lock_release(dirty_entries),
                )
                sends.append(self.network.send(message))
            yield self.env.all_of(sends)
        # Any object whose home migrated while the release was on the
        # wire gets its share relayed by the stale home (one hop each).
        forwards = []
        for home, oids in sorted(by_home.items()):
            for object_id in oids:
                new_home = entries[object_id].home_node
                if new_home != home:
                    if self.migration is not None:
                        self.migration.note_forwarded()
                    if self.tracer.enabled:
                        self.tracer.gdo_request_forwarded(object_id, home,
                                                          new_home)
                    relay = Message(
                        src=home, dst=new_home,
                        category=MessageCategory.LOCK_RELEASE,
                        size_bytes=self.sizes.lock_release(
                            len(dirty.get(object_id, ()))
                        ),
                        object_id=object_id,
                    )
                    forwards.append(self.network.send(relay))
        if forwards:
            yield self.env.all_of(forwards)
        for object_id, entry in entries.items():
            entry.apply_commit(
                node,
                dirty.get(object_id, ()),
                resident_versions.get(object_id, {}),
            )
            # Other families may still hold the lock (shared read):
            # their site's cached holder list stays authoritative, so
            # only a free entry leaves the cache — before any pump.
            if entry.waiting_families:
                roots_before = entry.blocking_family_roots()
                entry.release_family(root_serial)
                # Drop any of our own stragglers still queued (family
                # abort).
                for waiter in entry.remove_family_waiters(root_serial):
                    if not waiter.wake.triggered:
                        waiter.wake.fail(ProtocolError(
                            f"waiter of released family {root_serial}"))
                if not entry.holders and not entry.retainers:
                    self.cache.on_freed(object_id)
                self._deliver_grants(entry, entry.pump(), roots_before)
            else:  # nobody queued: nothing to drop, pump or grant
                entry.release_family(root_serial)
                if not entry.holders and not entry.retainers:
                    self.cache.on_freed(object_id)
            if self.wal is not None:
                self._wal_record_holders(object_id, entry)
        if self.migration is not None:
            # Detached: re-homing is the directory's own housekeeping.
            # Running it inline would suspend the releasing family past
            # the point where pumped waiters resume, letting a
            # later-granted family commit (and trace its commit) before
            # the releaser does — inverting commit order vs conflict
            # order and breaking the serial-replay oracle.
            self.env.call_later(0.0, self._migration_check, entries,
                                root_serial)
        return entries

    def _migration_check(self, entries: Dict[ObjectId, DirectoryEntry],
                         root_serial: int) -> None:
        """Start :meth:`_maybe_migrate` where a detached process's
        first step would run it, and give it a process only if it sends
        a handoff — most checks move nothing.  Such a check ends here,
        in place of the finished process's heap entry, which nothing
        awaits: counted on the FIFO path, queued for a tie-break policy
        to rank as it always did."""
        env = self.env
        check = self._maybe_migrate(entries)
        handoff = next(check, None)
        if handoff is not None:
            Process(env, check, name=f"gdo-migrate:{root_serial}",
                    awaiting=handoff)
        elif env.tiebreak is None:
            env._events_processed += 1
        else:
            Event(env).succeed()

    def _maybe_migrate(self, entries: Dict[ObjectId, DirectoryEntry]):
        """Adaptive re-homing of freshly quiesced entries (DESIGN §11).

        Run detached (:meth:`_migration_check`) at the tail of a global
        release, after grants were pumped: an entry is only
        moved when it is fully quiescent — no holders, no retainers, no
        queued waiters — so the move is pure accounting (no in-flight
        grant ever references the old home) and correctness is
        untouched.  The handoff message is charged and yielded; if
        anything touched the entry while the handoff was on the wire,
        the move is abandoned (the access counts survive, so it is
        reconsidered at the next quiesce).
        """
        for object_id, entry in entries.items():
            if object_id in self._migrating:
                continue
            if entry.holders or entry.retainers or entry.waiting_families:
                continue  # not quiescent
            target = self.migration.pick_target(object_id, entry.home_node)
            if target is None:
                continue
            old_home = entry.home_node
            snapshot = entry.page_map_snapshot()
            handoff = Message(
                src=old_home, dst=target,
                category=MessageCategory.GDO_MIGRATE,
                size_bytes=self.sizes.migration_transfer(
                    holder_entries=len(entry.holder_entries()),
                    page_map_entries=len(snapshot),
                ),
                object_id=object_id,
            )
            self._migrating.add(object_id)
            try:
                yield self.network.send(handoff)
            finally:
                self._migrating.discard(object_id)
            if entry.holders or entry.retainers or entry.waiting_families:
                continue  # a racing request got in first: stay put
            moved_from = self.directory.move_home(object_id, target)
            if self.wal is not None:
                self.wal.record_home_moved(moved_from.value, target.value,
                                           object_id)
            # The quiescent entry has no holders, but a stale cached
            # holder list at any site would now route Algorithm 4.1's
            # fast path to the wrong home — drop it.
            self.cache.on_freed(object_id)
            self.migration.note_migrated(object_id)

    def _deliver_grants(self, entry: DirectoryEntry, woken: List[Waiter],
                        roots_before) -> None:
        """Send grant messages to newly admitted families (Algorithm 4.4:
        "Send the list pointed to by HolderPtr and the page map to the
        new holder's site").  Waiters wake when the grant arrives."""
        if not woken:
            return
        snapshot = entry.page_map_snapshot()
        by_site: Dict[NodeId, List[Waiter]] = defaultdict(list)
        immediate: List[Waiter] = []
        for waiter in woken:
            if waiter.txn_id.root in roots_before:
                immediate.append(waiter)  # family already held: local wake
            else:
                by_site[waiter.txn.node].append(waiter)
        self.env.succeed_all([waiter.wake for waiter in immediate])
        for site, waiters in sorted(by_site.items()):
            self.cache.on_granted(entry.object_id, site)
            grant = Message(
                src=entry.home_node, dst=site,
                category=MessageCategory.LOCK_GRANT,
                size_bytes=self.sizes.lock_grant(
                    holder_entries=len(entry.holder_entries()),
                    page_map_entries=len(snapshot),
                ),
                object_id=entry.object_id,
            )
            delivery = self.network.send(grant)

            def wake_all(_event, wakes=[w.wake for w in waiters],
                         payload=snapshot):
                self.env.succeed_all(wakes, payload)

            delivery.add_callback(wake_all)

    # ------------------------------------------------------------------
    # Crash recovery (fault injection)
    # ------------------------------------------------------------------

    def crash_release(self, roots) -> None:
        """Forcibly reclaim directory state of crash-aborted families.

        A crashed family cannot run its own release protocol (its node
        is down and its processes were interrupted), so the GDO acts
        unilaterally: every entry drops the family's queued waiters
        (their processes are already dead — no wake is delivered) and
        releases its held/retained locks, then pumps so survivors stop
        waiting on a ghost.  Runs instantaneously at the crash instant;
        the control traffic a real directory would need is deliberately
        not charged, because the crashed node could not answer it.

        Idempotent with respect to the family's own in-flight abort
        processing: ``release_family`` and ``remove_family_waiters``
        are no-ops once the family is gone from an entry.
        """
        dead = set(roots)
        self.dead_families.update(dead)
        if not dead:
            return
        for object_id, entry in sorted(self.directory.entries().items()):
            roots_before = entry.blocking_family_roots()
            touched = False
            for root in sorted(dead):
                if entry.remove_family_waiters(root):
                    touched = True
                if entry.family_present(root):
                    entry.release_family(root)
                    touched = True
            if not touched:
                continue
            if entry.is_free:
                self.cache.on_freed(object_id)
            woken = entry.pump()
            self._deliver_grants(entry, woken, roots_before)
