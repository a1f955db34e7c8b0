"""One GDO entry: the per-object lock structure plus the page map.

The entry is pure state plus decision logic — no messaging, no
simulation events.  The lock manager (``repro.txn.locks``) drives it
and charges the network; keeping the entry synchronous makes the O2PL
rules directly unit- and property-testable.

Transactions are represented by any object exposing ``id`` (a
:class:`~repro.util.ids.TxnId`), ``node`` (a NodeId), and
``is_ancestor_of(other) -> bool``; the concrete type lives in
``repro.txn.transaction``.

Acquisition implements rule 1 of §4.1 literally: "Transaction T may
acquire a lock if no other transaction holds a conflicting lock
(multiple readers/single writer policy) and all transactions that
retain the lock are ancestors of T."  Concurrent readers from
*different* families therefore share the lock (Algorithm 4.2's
"concurrent reading is OK" branch), with the paper's reader preference
— a late read request is granted ahead of a queued writer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId, TxnId


class LockMode(enum.Enum):
    READ = "R"
    WRITE = "W"

    def conflicts_with(self, other) -> bool:
        """Multiple readers / single writer.

        ``other`` may be a :class:`~repro.txn.semantic.SemanticMode`,
        which owns the commutativity judgement — delegate so that a
        plain requester vs a semantic holder (and vice versa) gets one
        consistent answer."""
        if type(other) is LockMode:
            return self is LockMode.WRITE or other is LockMode.WRITE
        return other.conflicts_with(self)


def _base(mode) -> "LockMode":
    """Plain R/W lattice element under a (possibly semantic) mode."""
    return getattr(mode, "base", mode)


def _join(held, granted):
    """Mode recorded after a re-entrant grant or repeated retention.

    Equal modes keep themselves (a semantic tag survives retention);
    any mixed pair collapses to the plain base join."""
    if held is None or held == granted:
        return granted if held is None else held
    if _base(held) is LockMode.WRITE or _base(granted) is LockMode.WRITE:
        return LockMode.WRITE
    return LockMode.READ


class LockState(enum.Enum):
    """The paper's LockState flag: free, held for update, held for
    read, or retained (only retainers remain)."""

    FREE = "free"
    HELD_READ = "held-read"
    HELD_WRITE = "held-write"
    RETAINED = "retained"


class GrantDecision(enum.Enum):
    """Outcome of a lock request against the current entry state."""

    GRANTED = "granted"
    WAIT_LOCAL = "wait-local"        # conflict within the requester's family
    WAIT_GLOBAL = "wait-global"      # blocked by another family
    RECURSIVE = "recursive"          # conflicting ancestor holder (§3.4)


@dataclass
class PageMapEntry:
    """Which node stores the most up-to-date version of one page."""

    owner: NodeId
    version: int


@dataclass
class Waiter:
    """One queued lock request; ``wake`` is set by the lock manager to
    an object with ``succeed(payload)`` / ``fail(exc)`` (a sim event)."""

    txn: object
    mode: "LockMode"
    wake: object = None

    @property
    def txn_id(self) -> TxnId:
        return self.txn.id


@dataclass
class _FamilyQueue:
    """NonHoldersPtr element: waiting transactions of one family."""

    root: int
    site: NodeId
    waiters: List[Waiter] = field(default_factory=list)


class DirectoryEntry:
    """Lock structure + page map for one object (paper Figure 1)."""

    def __init__(self, object_id: ObjectId, home_node: NodeId,
                 page_count: int, creator_node: NodeId,
                 initial_version: int = 1):
        self.object_id = object_id
        self.home_node = home_node
        # Current holders: txn id -> mode.
        self.holders: Dict[TxnId, LockMode] = {}
        self._holder_txns: Dict[TxnId, object] = {}
        # Retainers: txn id -> strongest retained mode.
        self.retainers: Dict[TxnId, LockMode] = {}
        self._retainer_txns: Dict[TxnId, object] = {}
        # NonHoldersPtr: FIFO list of per-family waiter queues.
        self.waiting_families: List[_FamilyQueue] = []
        # Local list: waiters whose family already holds/retains the lock.
        self.local_waiters: List[Waiter] = []
        # Consistency page map.
        self.page_map: Dict[int, PageMapEntry] = {
            page: PageMapEntry(owner=creator_node, version=initial_version)
            for page in range(page_count)
        }

    # -- derived state -------------------------------------------------------

    @property
    def lock_state(self) -> LockState:
        if self.holders:
            if any(_base(mode) is LockMode.WRITE
                   for mode in self.holders.values()):
                return LockState.HELD_WRITE
            return LockState.HELD_READ
        if self.retainers:
            return LockState.RETAINED
        return LockState.FREE

    @property
    def read_count(self) -> int:
        """The paper's ReadCount field: number of concurrent readers."""
        return sum(
            1 for mode in self.holders.values()
            if _base(mode) is LockMode.READ
        )

    @property
    def is_free(self) -> bool:
        return not self.holders and not self.retainers

    def family_present(self, root_serial: int) -> bool:
        """Does this family hold or retain the lock?"""
        return any(t.root == root_serial for t in self.holders) or any(
            t.root == root_serial for t in self.retainers
        )

    def blocking_family_roots(self, exclude_root: Optional[int] = None) -> FrozenSet[int]:
        """Roots of every family holding or retaining the lock (for the
        deadlock detector's waits-for edges)."""
        roots = {t.root for t in self.holders} | {t.root for t in self.retainers}
        if exclude_root is not None:
            roots.discard(exclude_root)
        return frozenset(roots)

    def waits_for_edges(self) -> Dict[int, FrozenSet[int]]:
        """Waits-for edges keyed by actual conflict, per waiting family.

        For each queued family the head waiter's mode decides its
        blocking set: a holder/retainer family contributes an edge
        unless both its recorded mode and the waiter's are semantic and
        commute — two commuting holders must never appear as a spurious
        cycle to the deadlock detector.  Plain pairings always keep
        their edge (a plain waiter queued behind the entry is blocked
        by the entry's whole membership, exactly the pre-semantic
        behaviour)."""
        if not self.waiting_families:
            return {}
        modes_by_root: Dict[int, List[LockMode]] = {}
        for txn_id, mode in self.holders.items():
            modes_by_root.setdefault(txn_id.root, []).append(mode)
        for txn_id, mode in self.retainers.items():
            modes_by_root.setdefault(txn_id.root, []).append(mode)
        edges: Dict[int, FrozenSet[int]] = {}
        for queue in self.waiting_families:
            if not queue.waiters:
                continue
            waiter_mode = queue.waiters[0].mode
            blocking = set()
            for root, modes in modes_by_root.items():
                if root == queue.root:
                    continue
                for held_mode in modes:
                    if (getattr(waiter_mode, "tag", None) is not None
                            and getattr(held_mode, "tag", None) is not None
                            and not waiter_mode.conflicts_with(held_mode)):
                        continue
                    blocking.add(root)
                    break
            edges[queue.root] = frozenset(blocking)
        return edges

    def holder_entries(self) -> Tuple[Tuple[TxnId, NodeId], ...]:
        """The ⟨TID,NID⟩ pairs of HolderPtr (for grant message sizing);
        includes retainers, which the holding site must also know."""
        pairs = [(txn_id, txn.node) for txn_id, txn in self._holder_txns.items()]
        pairs.extend(
            (txn_id, txn.node) for txn_id, txn in self._retainer_txns.items()
        )
        return tuple(pairs)

    def trace_info(self) -> Dict[str, object]:
        """Compact lock-structure snapshot for trace-event args."""
        return {
            "lock_state": self.lock_state.value,
            "holders": len(self.holders),
            "retainers": len(self.retainers),
            "waiting_families": len(self.waiting_families),
        }

    # -- acquisition decision (rules 1-2 of §4.1) ------------------------------

    def decide(self, txn, mode: LockMode,
               allow_recursive_reads: bool = False) -> GrantDecision:
        """Classify a request; does not mutate state."""
        if self.is_free:
            return GrantDecision.GRANTED
        # Re-entrant request: txn already holds the lock.  The entry
        # keeps the *join* of the held and requested modes; when the
        # join is the held mode itself the request is covered (plain:
        # W covers R; semantic: re-invoking the same method).  Anything
        # else is an upgrade, allowed only when no other holder
        # conflicts with the joined mode.
        held = self.holders.get(txn.id)
        if held is not None:
            joined = _join(held, mode)
            if joined == held:
                return GrantDecision.GRANTED
            if all(
                holder_id == txn.id
                or not joined.conflicts_with(holder_mode)
                for holder_id, holder_mode in self.holders.items()
            ):
                return GrantDecision.GRANTED
            return self._wait_kind(txn)
        # §3.4 preclusion: an ancestor *holds* (not merely retains) the
        # lock this transaction needs — the family would deadlock with
        # itself.  Shared reads are safe and may be permitted by flag.
        # Judged on base modes: families execute sequentially, so
        # intra-family semantic concurrency buys nothing and relaxing
        # here would only weaken the Moss invariants.
        for holder_id, holder_mode in self.holders.items():
            holder = self._holder_txns[holder_id]
            if not holder.is_ancestor_of(txn):
                continue
            if (_base(mode) is LockMode.WRITE
                    or _base(holder_mode) is LockMode.WRITE
                    or not allow_recursive_reads):
                return GrantDecision.RECURSIVE
        # Rule 1a: every retainer must be an ancestor of the requester.
        # A transaction may always re-acquire a lock it retains itself
        # (Moss: the retainer and its descendants have access) — this
        # arises when optimistic pre-acquisition retained the lock for
        # the very transaction now requesting it.
        # Semantic relaxation: a foreign family's *retained* semantic
        # lock blocks only non-commuting modes — the retained method's
        # effects merge commutatively with the requester's, so Moss
        # retention need not serialize them.
        for retainer_id, retained_mode in self.retainers.items():
            if retainer_id == txn.id:
                continue
            retainer = self._retainer_txns[retainer_id]
            if retainer_id.root != txn.id.root:
                if (getattr(mode, "tag", None) is not None
                        and getattr(retained_mode, "tag", None) is not None
                        and not mode.conflicts_with(retained_mode)):
                    continue
                return GrantDecision.WAIT_GLOBAL
            if not retainer.is_ancestor_of(txn):
                return GrantDecision.WAIT_LOCAL
        # Rule 1b: no other transaction holds a conflicting lock.
        for holder_id, holder_mode in self.holders.items():
            holder = self._holder_txns[holder_id]
            if holder.is_ancestor_of(txn):
                continue  # non-conflicting ancestor (allowed shared read)
            if mode.conflicts_with(holder_mode):
                if holder_id.root == txn.id.root:
                    return GrantDecision.WAIT_LOCAL
                return GrantDecision.WAIT_GLOBAL
        return GrantDecision.GRANTED

    def _wait_kind(self, txn) -> GrantDecision:
        """Upgrade blocked: local if only family members block, else global."""
        for holder_id in self.holders:
            if holder_id != txn.id and holder_id.root != txn.id.root:
                return GrantDecision.WAIT_GLOBAL
        return GrantDecision.WAIT_LOCAL

    def grant(self, txn, mode: LockMode) -> None:
        """Record a grant decided by :meth:`decide` (or by a release)."""
        existing = self.holders.get(txn.id)
        if existing is LockMode.WRITE and mode is LockMode.READ:
            return  # W already covers R
        self.holders[txn.id] = _join(existing, mode)
        self._holder_txns[txn.id] = txn

    # -- waiting -----------------------------------------------------------------

    def enqueue_global(self, waiter: Waiter) -> None:
        """Queue a request from a non-holding family (Algorithm 4.2)."""
        root = waiter.txn_id.root
        for queue in self.waiting_families:
            if queue.root == root:
                queue.waiters.append(waiter)
                return
        self.waiting_families.append(
            _FamilyQueue(root=root, site=waiter.txn.node, waiters=[waiter])
        )

    def enqueue_local(self, waiter: Waiter) -> None:
        """Queue an intra-family conflicting request (Algorithm 4.1)."""
        self.local_waiters.append(waiter)

    def remove_waiter(self, txn_id: TxnId) -> bool:
        """Drop a waiter everywhere (deadlock victim or family abort)."""
        removed = False
        for queue in list(self.waiting_families):
            before = len(queue.waiters)
            queue.waiters = [w for w in queue.waiters if w.txn_id != txn_id]
            removed |= len(queue.waiters) != before
            if not queue.waiters:
                self.waiting_families.remove(queue)
        before = len(self.local_waiters)
        self.local_waiters = [w for w in self.local_waiters if w.txn_id != txn_id]
        removed |= len(self.local_waiters) != before
        return removed

    def remove_family_waiters(self, root_serial: int) -> List[Waiter]:
        """Drop every waiter of one family (family abort)."""
        dropped: List[Waiter] = []
        for queue in list(self.waiting_families):
            if queue.root == root_serial:
                dropped.extend(queue.waiters)
                self.waiting_families.remove(queue)
        kept = []
        for waiter in self.local_waiters:
            if waiter.txn_id.root == root_serial:
                dropped.append(waiter)
            else:
                kept.append(waiter)
        self.local_waiters = kept
        return dropped

    def waiting_family_roots(self) -> Tuple[int, ...]:
        return tuple(queue.root for queue in self.waiting_families)

    def has_waiters(self) -> bool:
        return bool(self.waiting_families) or bool(self.local_waiters)

    # -- release processing (rules 3-5 of §4.1) -----------------------------------

    def release_to_parent(self, txn, parent) -> None:
        """Pre-commit: the parent inherits and retains txn's lock.

        Covers both locks *held* by txn and locks it *retains* (rule 3:
        "its parent inherits and retains all of its locks (both held
        and retained)").
        """
        touched = False
        mode = self.holders.pop(txn.id, None)
        self._holder_txns.pop(txn.id, None)
        if mode is not None:
            touched = True
            self._retain(parent, mode)
        retained = self.retainers.pop(txn.id, None)
        self._retainer_txns.pop(txn.id, None)
        if retained is not None:
            touched = True
            self._retain(parent, retained)
        if not touched:
            raise ProtocolError(
                f"{txn.id!r} neither holds nor retains {self.object_id!r}"
            )

    def demote_to_retained(self, txn) -> None:
        """Convert a held lock into a retention by the same transaction.

        Used by optimistic pre-acquisition (§5.1/§6 future work): the
        root pre-acquires a predicted object's lock, then immediately
        demotes it so descendants can acquire it under rule 1 instead
        of tripping the §3.4 ancestor-holder preclusion.
        """
        mode = self.holders.pop(txn.id, None)
        if mode is None:
            raise ProtocolError(
                f"{txn.id!r} does not hold {self.object_id!r}; cannot demote"
            )
        self._holder_txns.pop(txn.id, None)
        self._retain(txn, mode)

    def _retain(self, txn, mode: LockMode) -> None:
        existing = self.retainers.get(txn.id)
        self.retainers[txn.id] = _join(existing, mode)
        self._retainer_txns[txn.id] = txn

    def release_on_abort(self, txn) -> bool:
        """Abort of one transaction (rule 4).

        Returns True when the requester's family no longer holds or
        retains the lock at all, i.e. GlobalLockRelease processing
        (pumping other families) may now make progress.
        """
        self.holders.pop(txn.id, None)
        self._holder_txns.pop(txn.id, None)
        self.retainers.pop(txn.id, None)
        self._retainer_txns.pop(txn.id, None)
        return not self.family_present(txn.id.root)

    def release_family(self, root_serial: int) -> None:
        """Root commit (rule 5): drop every holder/retainer of the family."""
        for txn_id in list(self.holders):
            if txn_id.root == root_serial:
                del self.holders[txn_id]
                del self._holder_txns[txn_id]
        for txn_id in list(self.retainers):
            if txn_id.root == root_serial:
                del self.retainers[txn_id]
                del self._retainer_txns[txn_id]

    def pump(self, allow_recursive_reads: bool = False) -> List[Waiter]:
        """Grant whatever is now grantable; returns the woken waiters.

        Local (same-family) waiters are tried first.  Then waiting
        families are scanned in FIFO order and any family whose head is
        now grantable is admitted (its grantable prefix becomes
        holders; any remainder moves to the local list).

        The scan deliberately does NOT stop at the first ungrantable
        family.  Algorithm 4.4's literal "unlink the next transaction
        list" is strict FIFO, but with retained read locks shared
        across families that policy deadlocks: family A, queued first,
        can be blocked by a lock family B retains, while B's own next
        request sits *behind* A in this queue — grantable, but never
        reached.  Scanning every queued family (rule 1 still decides
        each grant) preserves safety and restores liveness, at the
        price of FIFO fairness the paper's rules already forgo via
        reader preference.
        """
        granted: List[Waiter] = []
        remaining: List[Waiter] = []
        for waiter in self.local_waiters:
            decision = self.decide(waiter.txn, waiter.mode, allow_recursive_reads)
            if decision is GrantDecision.GRANTED:
                self.grant(waiter.txn, waiter.mode)
                granted.append(waiter)
            else:
                remaining.append(waiter)
        self.local_waiters = remaining
        progressed = True
        while progressed:
            progressed = False
            for queue in list(self.waiting_families):
                admitted_any = False
                while queue.waiters:
                    waiter = queue.waiters[0]
                    decision = self.decide(
                        waiter.txn, waiter.mode, allow_recursive_reads
                    )
                    if decision is not GrantDecision.GRANTED:
                        break
                    self.grant(waiter.txn, waiter.mode)
                    granted.append(waiter)
                    queue.waiters.pop(0)
                    admitted_any = True
                    progressed = True
                if not queue.waiters:
                    self.waiting_families.remove(queue)
                elif admitted_any:
                    # Family partially admitted: it now holds the lock,
                    # so its stragglers are intra-family (local) waiters.
                    self.local_waiters.extend(queue.waiters)
                    self.waiting_families.remove(queue)
        return granted

    # -- page map ------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self.page_map)

    def latest_version(self, page: int) -> int:
        return self.page_map[page].version

    def page_owner(self, page: int) -> NodeId:
        return self.page_map[page].owner

    def apply_commit(self, node: NodeId, dirty_pages, resident_versions) -> None:
        """Global release with dirty info (Algorithm 4.4, commit case).

        ``dirty_pages`` bump the version and move ownership to the
        committing node.  ``resident_versions`` (page -> local version)
        lets clean-but-current pages also claim ownership, which keeps
        the map pointing at a live copy under protocols (COTEC/OTEC)
        that fully refresh the acquiring site.
        """
        dirty = set(dirty_pages)
        for page in dirty:
            entry = self.page_map[page]
            entry.version += 1
            entry.owner = node
        for page, version in resident_versions.items():
            if page in dirty:
                continue
            entry = self.page_map[page]
            if version == entry.version:
                entry.owner = node

    def page_map_snapshot(self) -> Dict[int, PageMapEntry]:
        return {
            page: PageMapEntry(owner=entry.owner, version=entry.version)
            for page, entry in self.page_map.items()
        }
