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

The paper's local wait list for conflicts inside one family (Algorithm
4.1) is omitted: a family issues one request at a time (its live
transactions form a chain and only the leaf requests), so
:meth:`DirectoryEntry.decide` raises ``ProtocolError`` on a same-family
conflict; ``tests/test_lock_table_small_scope.py`` proves it unreachable.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Dict, FrozenSet, List, Tuple

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
    if held == granted:
        return held
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
    WAIT_GLOBAL = "wait-global"      # blocked by another family
    RECURSIVE = "recursive"          # conflicting ancestor holder (§3.4)


class PageMapEntry(tuple):
    """Which node stores the most up-to-date version of one page.

    Immutable, so the page map is copy-on-write: a commit or a
    write-back *replaces* a page's entry, and a grant's snapshot is a
    shallow ``dict`` copy whose entries no later change can reach.  A
    hand-written ``tuple`` subclass like the ids of
    :mod:`repro.util.ids` (fields are ``property(itemgetter(i))``): a
    dataclass or ``NamedTuple`` would put its generated ``__init__`` /
    ``__new__`` under cProfile's shared ``<string>`` key (DESIGN §14).
    """

    __slots__ = ()

    def __new__(cls, owner: NodeId, version: int) -> "PageMapEntry":
        return tuple.__new__(cls, (owner, version))

    def __getnewargs__(self):
        return (self[0], self[1])

    owner = property(itemgetter(0))
    version = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"PageMapEntry(owner={self[0]!r}, version={self[1]!r})"


_new_entry = tuple.__new__


class Waiter:
    """One queued lock request; ``wake`` is set by the lock manager to
    an object with ``succeed(payload)`` / ``fail(exc)`` (a sim event)."""

    __slots__ = ("txn", "mode", "wake", "txn_id")

    def __init__(self, txn, mode: "LockMode", wake=None):
        self.txn = txn
        self.mode = mode
        self.wake = wake
        self.txn_id: TxnId = txn.id


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
        # NonHoldersPtr: FIFO list of waiters, at most one per family
        # (LockManager._wait refuses a family's second block).
        self.waiting_families: List[Waiter] = []
        # Consistency page map; entries are immutable, so every page
        # starts on one shared entry.
        self.page_map: Dict[int, PageMapEntry] = dict.fromkeys(
            range(page_count), PageMapEntry(creator_node, initial_version)
        )

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
        for members in (self.holders, self.retainers):
            for txn_id in members:  # a loop, not a genexpr: no extra frame
                if txn_id.root == root_serial:
                    return True
        return False

    def blocking_family_roots(self) -> FrozenSet[int]:
        """Roots of every family holding or retaining the lock."""
        roots = set()
        for members in (self.holders, self.retainers):
            for txn_id in members:
                roots.add(txn_id.root)
        return frozenset(roots)

    def blockers_of(self, waiter: Waiter) -> List[int]:
        """Roots of the families blocking a queued waiter, sorted: its
        out-edges in the deadlock detector's waits-for graph.

        Every other family holding or retaining the lock blocks it
        unless both that family's recorded mode and the waiter's are
        semantic and commute — two commuting holders must never appear
        as a spurious cycle.  Plain pairings always keep their edge (a
        plain waiter queued behind the entry is blocked by the entry's
        whole membership).  A waiter no longer queued here (a pump
        admitted it) is blocked by nobody."""
        if waiter not in self.waiting_families:
            return []
        mode = waiter.mode
        semantic = getattr(mode, "tag", None) is not None
        blocking = set()
        for members in (self.holders, self.retainers):
            for txn_id, held in members.items():
                if (not semantic or getattr(held, "tag", None) is None
                        or mode.conflicts_with(held)):
                    blocking.add(txn_id.root)
        blocking.discard(waiter.txn_id.root)
        return sorted(blocking)

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

    def decide(self, txn, mode: LockMode) -> GrantDecision:
        """Classify a request; does not mutate state."""
        if not self.holders and not self.retainers:  # ``is_free``, inline
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
            # Rule 1a holds for an upgrade too.  Only a pair of
            # commuting semantic modes passes a foreign retainer, and
            # the joined mode of an upgrade is always plain (equal
            # modes were covered above), so every foreign retainer
            # blocks it.
            for retainer_id in self.retainers:
                if retainer_id.root != txn.id.root:
                    return GrantDecision.WAIT_GLOBAL
            if all(
                holder_id == txn.id
                or not joined.conflicts_with(holder_mode)
                for holder_id, holder_mode in self.holders.items()
            ):
                return GrantDecision.GRANTED
            for holder_id in self.holders:
                if holder_id != txn.id and holder_id.root != txn.id.root:
                    return GrantDecision.WAIT_GLOBAL
            raise self._family_conflict(
                txn, "cannot upgrade past its own family's holders")
        # §3.4 preclusion: an ancestor *holds* (not merely retains) the
        # lock this transaction needs — the family would deadlock with
        # itself, whatever the modes (a shared read included).
        root = txn.id.root  # a foreign holder is never an ancestor
        for holder_id in self.holders:
            if (holder_id.root == root
                    and self._holder_txns[holder_id].is_ancestor_of(txn)):
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
            if retainer_id.root != root:
                if (getattr(mode, "tag", None) is not None
                        and getattr(retained_mode, "tag", None) is not None
                        and not mode.conflicts_with(retained_mode)):
                    continue
                return GrantDecision.WAIT_GLOBAL
            if not self._retainer_txns[retainer_id].is_ancestor_of(txn):
                raise self._family_conflict(
                    txn, f"is not a descendant of retainer {retainer_id!r}")
        # Rule 1b: no other transaction (none an ancestor, by §3.4)
        # holds a conflicting lock; two plain modes compare inline.
        for holder_id, holder_mode in self.holders.items():
            if mode is LockMode.READ and holder_mode is LockMode.READ:
                continue
            if (mode is LockMode.WRITE or holder_mode is LockMode.WRITE
                    or mode.conflicts_with(holder_mode)):
                if holder_id.root == root:
                    raise self._family_conflict(
                        txn, f"conflicts with holder {holder_id!r}")
                return GrantDecision.WAIT_GLOBAL
        return GrantDecision.GRANTED

    def _family_conflict(self, txn, what: str) -> ProtocolError:
        """A request only its own family blocks (module docstring)."""
        return ProtocolError(
            f"intra-family conflict on {self.object_id!r}: {txn.id!r} "
            f"{what}; families issue one request at a time"
        )

    def grant(self, txn, mode: LockMode) -> None:
        """Record a grant decided by :meth:`decide` (or by a release)."""
        existing = self.holders.get(txn.id)
        if existing is None:
            self.holders[txn.id] = mode
            self._holder_txns[txn.id] = txn
        elif existing is not LockMode.WRITE:  # a plain W covers every mode
            self.holders[txn.id] = _join(existing, mode)

    # -- waiting -----------------------------------------------------------------

    def enqueue_global(self, waiter: Waiter) -> None:
        """Queue a request behind another family (Algorithm 4.2)."""
        self.waiting_families.append(waiter)

    def remove_waiter(self, txn_id: TxnId) -> bool:
        """Drop a waiter (deadlock victim or lock-wait timeout)."""
        for index, waiter in enumerate(self.waiting_families):
            if waiter.txn_id == txn_id:
                del self.waiting_families[index]
                return True
        return False

    def remove_family_waiters(self, root_serial: int) -> List[Waiter]:
        """Drop the family's waiter, if it has one (family abort)."""
        for index, waiter in enumerate(self.waiting_families):
            if waiter.txn_id.root == root_serial:
                del self.waiting_families[index]
                return [waiter]
        return []

    # -- release processing (rules 3-5 of §4.1) -----------------------------------

    def release_to_parent(self, txn, parent) -> None:
        """Pre-commit: the parent inherits and retains txn's lock.

        Covers both locks *held* by txn and locks it *retains* (rule 3:
        "its parent inherits and retains all of its locks (both held
        and retained)").
        """
        mode = self.holders.pop(txn.id, None)
        retained = self.retainers.pop(txn.id, None)
        if mode is not None:
            del self._holder_txns[txn.id]
            self._retain(parent, mode)
        if retained is not None:
            del self._retainer_txns[txn.id]
            self._retain(parent, retained)
        elif mode is None:
            raise ProtocolError(
                f"{txn.id!r} neither holds nor retains {self.object_id!r}")

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
        self.retainers[txn.id] = (mode if existing is None
                                  else _join(existing, mode))
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

    def pump(self) -> List[Waiter]:
        """Grant whatever is now grantable; returns the woken waiters.

        One FIFO pass over the waiting families, admitting each waiter
        that is now grantable.  One pass is enough: :meth:`decide` is
        monotone in the holders, and a grant only adds holders, so a
        waiter skipped early in the pass stays ungrantable after it.
        It ends at a granted plain ``WRITE``: every later waiter is of
        another family, and a plain write conflicts with every mode.

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
        for index, waiter in enumerate(self.waiting_families):
            if self.decide(waiter.txn, waiter.mode) is GrantDecision.GRANTED:
                self.grant(waiter.txn, waiter.mode)
                granted.append(waiter)
                if waiter.mode is LockMode.WRITE:  # see above
                    remaining += self.waiting_families[index + 1:]
                    break
            else:
                remaining.append(waiter)
        self.waiting_families = remaining
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
        # Entries are replaced, never mutated; built by ``tuple.__new__``
        # directly (C), skipping ``PageMapEntry.__new__``'s Python frame.
        page_map = self.page_map
        dirty = set(dirty_pages)
        for page in dirty:
            page_map[page] = _new_entry(
                PageMapEntry, (node, page_map[page].version + 1))
        for page, version in resident_versions.items():
            if page in dirty:
                continue
            entry = page_map[page]
            if version == entry.version and entry.owner != node:
                page_map[page] = _new_entry(PageMapEntry, (node, version))

    def set_page_owner(self, page: int, owner: NodeId) -> None:
        """Point one page at a new owner, keeping its version."""
        entry = self.page_map[page]
        if entry.owner != owner:
            self.page_map[page] = PageMapEntry(owner, entry.version)

    def page_map_snapshot(self) -> Dict[int, PageMapEntry]:
        """The map a grant carries: entries are immutable, so a shallow
        copy is a snapshot no later commit can reach."""
        return dict(self.page_map)
