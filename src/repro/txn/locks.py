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

Extensions (home migration, the WAL, failover, the fault plan's
lock-wait bound) attach to :class:`LockManager`'s hook lists, which
``Cluster`` fills only for what the configuration turns on: an
unconfigured run pays no call (DESIGN §2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.gdo.cache import EntryCacheTracker
from repro.gdo.deadlock import (BlockedFamily, find_cycle, first_cycle,
                                pick_victim)
from repro.gdo.entry import DirectoryEntry, GrantDecision, LockMode, Waiter
from repro.net.message import Message, MessageCategory
from repro.net.transport import Transport
from repro.net.sizes import SizeModel
from repro.obs.tracer import NULL_TRACER
from repro.txn.semantic import SemanticMode
from repro.txn.transaction import Transaction, TxnState
from repro.util.errors import (
    DeadlockError,
    NodeCrashError,
    ProtocolError,
    RecursiveInvocationError,
)
from repro.util.ids import NodeId, ObjectId


@dataclass
class LockStats:
    """Lock-operation counters (the §5.1 locking-overhead discussion).

    ``local_acquisitions`` counts grants served from a cached entry;
    ``global_acquisitions`` counts every (non-prefetch) request sent to
    the GDO home, whether it was granted at once, waited or was refused.
    """

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
        return dict(vars(self))  # every field, in declaration order


class LockManager:
    """Drives directory entries, charges GDO traffic, detects deadlock."""

    def __init__(self, env, network: Transport, sizes: SizeModel,
                 cache: EntryCacheTracker, tracer=None):
        self.env = env
        self.network = network
        self.sizes = sizes
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = LockStats()
        # At most one blocked transaction per (sequential) family.
        self._blocked: Dict[int, BlockedFamily] = {}
        # Per-class commutativity tables (semantic lock modes); empty
        # unless ClusterConfig.semantic_locks registered them.
        self._commutativity: Dict[str, object] = {}
        # Where extensions attach, each list in registration order.
        #: ``hook(object_id, node)`` on each global request (migration).
        self.request_hooks: List = []
        #: ``yield from hook(entry)`` before a global request is sent;
        #: returns once the entry's home is up (failover).
        self.home_hooks: List = []
        #: ``hook()`` on each request or release a stale home relays.
        self.forward_hooks: List = []
        #: ``hook(entry)`` on each global grant (the WAL).
        self.grant_hooks: List = []
        #: ``hook(node, root_serial, entries, dirty)`` once a global
        #: release has applied and pumped its entries (WAL, migration).
        self.release_hooks: List = []
        #: ``yield from wait_bound(entry, waiter)`` in place of a plain
        #: wait for the wake (the fault plan's lock-wait timeout).
        self.wait_bound = None

    # ------------------------------------------------------------------
    # Semantic lock modes
    # ------------------------------------------------------------------

    def register_commutativity(self, class_name: str, table) -> None:
        """Install one class's commutativity table (semantic modes on)."""
        self._commutativity[class_name] = table

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

    # ------------------------------------------------------------------
    # Acquisition (Algorithms 4.1 and 4.2)
    # ------------------------------------------------------------------

    def acquire(self, txn: Transaction, entry: DirectoryEntry,
                mode: LockMode, prefetch: bool = False):
        """Acquire the lock of ``entry``'s object for ``txn`` (simulation
        process).  The entry comes by reference, bound on the object's
        metadata at registration; ``txn.lock_objects`` carries it on.

        Returns the page-map snapshot sent with a *global* grant, or
        ``None`` for purely local grants (no data movement is implied
        by a local grant — the family's site already has whatever it
        fetched at its global acquisition).

        ``prefetch`` is the optimistic pre-acquisition of §5.1/§6, by a
        root before it runs, on the same global path.  It never waits:
        a lock not grantable at once is refused with a NACK, so optimism
        cannot add deadlocks.  A grant is demoted to *retained*, so the
        root's descendants acquire it locally.
        """
        object_id = entry.object_id
        node = txn.node
        if prefetch:
            self._check_alive(txn)
            if entry.family_present(txn.id.root):
                return None  # already ours: nothing to pre-acquire
        else:
            # Algorithm 4.1: serve from the locally cached holder list
            # when this site caches the entry AND the requester belongs
            # to the holding family; every other case goes global.
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
                    txn.lock_objects[object_id] = entry
                    self.stats.local_acquisitions += 1
                    if self.tracer.enabled:
                        self.tracer.lock_granted(
                            txn, object_id, mode, "local",
                            info=entry.trace_info())
                    return None
                # WAIT_GLOBAL: our family retains the lock, but readers
                # from another family also hold it — Algorithm 4.1's ELSE
                # branch forwards such requests to GlobalLockAcquisition.
            self.stats.global_acquisitions += 1
        # Algorithm 4.2: global processing at the entry's home node.
        for hook in self.request_hooks:
            hook(object_id, node)
        for hook in self.home_hooks:
            yield from hook(entry)
        home = entry.home_node
        request_started = self.env.now
        if self.tracer.enabled and not prefetch:
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
            # The entry's home moved while our request was on the wire:
            # the stale home relays it (one extra hop).
            yield self._relay(object_id, home, entry.home_node,
                              MessageCategory.LOCK_REQUEST,
                              self.sizes.lock_request())
        family_already_present = entry.family_present(txn.id.root)
        decision = entry.decide(txn, mode)
        if prefetch:
            self._check_alive(txn)
            if (decision is not GrantDecision.GRANTED
                    or family_already_present):
                self.stats.prefetch_denied += 1
                if self.tracer.enabled:
                    self.tracer.lock_prefetch(txn, object_id, granted=False,
                                              mode=mode)
                yield self.network.send(Message(
                    src=entry.home_node, dst=node,
                    category=MessageCategory.CONTROL,
                    size_bytes=self.sizes.control(), object_id=object_id,
                ))
                return None
        if decision is GrantDecision.RECURSIVE:
            self.stats.recursive_rejections += 1
            raise RecursiveInvocationError(txn.id, object_id)
        if decision is GrantDecision.GRANTED:
            entry.grant(txn, mode)
            if prefetch:
                entry.demote_to_retained(txn)
                self.stats.prefetch_granted += 1
            self.cache.on_granted(object_id, node)
            for hook in self.grant_hooks:
                hook(entry)
            if prefetch and self.tracer.enabled:
                self.tracer.lock_prefetch(txn, object_id, granted=True,
                                          mode=mode)
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
            if prefetch:
                self._check_alive(txn)
            txn.lock_objects[object_id] = entry
            if self.tracer.enabled and not prefetch:
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

    @staticmethod
    def _check_alive(txn: Transaction) -> None:
        """A prefetcher is a helper process of its family, which a crash
        of the family's node does not interrupt: once the crash aborted
        the family (and its cleanup ran), any lock granted to it would
        leak, so the prefetcher stops — before its request, after it,
        and after the grant's flight."""
        if txn.state is TxnState.ABORTED:
            raise NodeCrashError(txn.id, node=txn.node)

    def _relay(self, object_id: ObjectId, old_home: NodeId,
               new_home: NodeId, category: MessageCategory, size: int):
        """Send the extra hop of a request or release that raced a home
        move: the stale home still answers its old address and relays
        to the new home (DESIGN §11's forwarding protocol)."""
        for hook in self.forward_hooks:
            hook()
        if self.tracer.enabled:
            self.tracer.gdo_request_forwarded(object_id, old_home, new_home)
        return self.network.send(Message(
            src=old_home, dst=new_home, category=category, size_bytes=size,
            object_id=object_id,
        ))

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
            "mode": getattr(mode, "base", mode)._value_,
            "node": txn.node.value, "root": txn.id.root,
            "object": entry.object_id.value,
        }
        waiter = Waiter(txn=txn, mode=mode, wake=wake)
        entry.enqueue_global(waiter)
        self._blocked[root] = BlockedFamily(entry, waiter)
        self._detect_deadlocks(root)
        tracing = self.tracer.enabled
        token = (self.tracer.lock_wait_begin(txn, entry.object_id, mode)
                 if tracing else None)
        # Shard attribution is pinned at enqueue time: a migration
        # mid-wait must not unbalance the inc/dec pair.
        shard = entry.home_node
        if tracing:
            self.tracer.gdo_queue_depth(shard, +1)
        bound = self.wait_bound
        try:
            if bound is None:
                payload = yield waiter.wake
            else:
                payload = yield from bound(entry, waiter)
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
        return payload

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
        while root not in cycle_free:  # ``first_cycle((root,), ...)``
            self.stats.cycle_searches += 1
            if find_cycle(root, blocked, edges, cycle_free) is None:
                return
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
        retains.  That admits nobody, so nothing is pumped: a retention
        blocks every foreign mode its hold blocked (a mixed join is
        plain, which blocks more), and ``txn``'s family has no waiter.
        """
        parent = txn.parent
        if parent is None:
            raise ProtocolError("precommit_release on a root transaction")
        held = txn.lock_objects
        if held and self.tracer.enabled:
            self.tracer.lock_inherited(txn, parent, sorted(held))
        for entry in held.values():
            entry.release_to_parent(txn, parent)

    def sub_abort_release(self, txn: Transaction):
        """Sub-transaction abort (Algorithm 4.3, last case) — process.

        Locks retained by an ancestor stay retained (local, free);
        locks the family no longer needs are released globally with no
        dirty-page info.
        """
        freed: Dict[ObjectId, DirectoryEntry] = {}
        wakes = []
        for object_id, entry in sorted(txn.lock_objects.items()):
            if entry.release_on_abort(txn):  # the family let go of it
                # Defer pumping to the global path so newly admitted
                # families get their grant message and cache update.
                freed[object_id] = entry
            elif entry.waiting_families:  # nobody queued: nothing to pump
                for waiter in entry.pump():  # a loop: no generator frame
                    wakes.append(waiter.wake)
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
                    forwards.append(self._relay(
                        object_id, home, new_home,
                        MessageCategory.LOCK_RELEASE,
                        self.sizes.lock_release(len(dirty.get(object_id, ()))),
                    ))
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
        for hook in self.release_hooks:
            hook(node, root_serial, entries, dirty)
        return entries

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
