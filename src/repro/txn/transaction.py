"""Transaction tree state for nested object transactions (§3).

A :class:`Transaction` is created per method invocation: user
invocations create roots, invocations made inside a transaction create
children (the 1:1 mapping of §3.3).  Transaction families execute at a
single site (§4.1), so ``node`` is identical across a family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from repro.gdo.entry import DirectoryEntry
from repro.memory.undo import UndoLog
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId, TxnId


class TxnState(enum.Enum):
    ACTIVE = "active"
    PRECOMMITTED = "precommitted"  # sub-transaction committed, locks inherited
    COMMITTED = "committed"        # root committed, locks released globally
    ABORTED = "aborted"


class Transaction:
    """One [sub-]transaction and its recovery / locking state.

    ``parent`` is fixed at construction, so ``root`` (the family's root
    transaction) and ``is_root`` are plain attributes, not tree walks.
    The root alone carries the family-level ``transfer_log``,
    ``touch_pages`` and ``prefetch_maps``.  When the root attempt ends,
    :meth:`unlink` cuts the tree's cycles so it dies by reference count.

    Extensions keep their own per-transaction state and register
    ``action(txn)`` callables here instead of being called by name:
    ``commit_actions`` run in order when the family's root commits,
    ``abort_actions`` when this transaction rolls back (after its undo
    log).  A child hands both lists to its parent at :meth:`precommit`,
    as it hands over its undo records, dirty pages and locks — the
    nested-STM rule for post-commit and rollback actions.
    """

    __slots__ = ("id", "node", "parent", "root", "is_root", "label",
                 "children", "state", "undo", "dirty", "lock_objects",
                 "pending_delay", "transfer_log", "touch_pages",
                 "prefetch_maps", "_ancestor_ids", "depth",
                 "commit_actions", "abort_actions")

    def __init__(self, txn_id: TxnId, node: NodeId,
                 parent: Optional["Transaction"] = None,
                 label: str = ""):
        if parent is not None and parent.node != node:
            raise ProtocolError(
                "transaction families execute at a single site (§4.1); "
                f"child at {node!r} differs from parent at {parent.node!r}"
            )
        self.id = txn_id
        self.node = node
        self.parent = parent
        self.is_root = parent is None
        self.root: Transaction = self if parent is None else parent.root
        self.label = label
        self.children: List[Transaction] = []
        self.state = TxnState.ACTIVE
        # Rollback state (§4.1), merged into the parent's at pre-commit.
        self.undo = UndoLog()
        # Pages dirtied by *this* transaction's own writes (plus, after
        # pre-commits, those inherited from children — dirty information
        # flows up the tree exactly like locks do).
        self.dirty: Dict[ObjectId, Set[int]] = {}
        # Objects whose locks this transaction holds or retains, each
        # with its directory entry: the lock path carries the entry it
        # acquired, so no release or pre-commit looks it up again.
        self.lock_objects: Dict[ObjectId, DirectoryEntry] = {}
        self.commit_actions: List[Callable] = []
        self.abort_actions: List[Callable] = []
        # Family-level accounting, meaningful on the root: network delay
        # deferred from synchronous demand fetches, pages shipped at
        # acquisitions, and pages actually touched (for over-prediction
        # accounting at commit).
        self.pending_delay: float = 0.0
        if parent is None:
            self.transfer_log: Dict[ObjectId, Set[int]] = {}
            self.touch_pages: Dict[ObjectId, Set[int]] = {}
            # Page-map snapshots from lock-only prefetches: the data
            # transfer they deferred runs at the object's first real use.
            self.prefetch_maps: Dict[ObjectId, dict] = {}
            self._ancestor_ids: FrozenSet[TxnId] = frozenset()
            self.depth = 0
        else:
            self._ancestor_ids = parent._ancestor_ids | {parent.id}
            self.depth = parent.depth + 1
            parent.children.append(self)

    # -- tree structure -------------------------------------------------------

    def is_ancestor_of(self, other: "Transaction") -> bool:
        """Proper ancestor test (a transaction is not its own ancestor)."""
        return self.id in other._ancestor_ids

    def unlink(self) -> None:
        """Cut the tree's reference cycles once its root attempt ended.

        ``parent`` ↔ ``children`` links every subtree both ways and a
        root's ``root`` is itself; with the children lists emptied and
        that self-reference dropped, the whole tree is freed by
        reference count instead of by the cycle collector.  Called on
        the root, after which no transaction of the tree is read for
        its family again.
        """
        family = [self]
        for txn in family:
            family.extend(txn.children)
            txn.children.clear()
        self.root = None

    def ancestors(self) -> List["Transaction"]:
        chain = []
        txn = self.parent
        while txn is not None:
            chain.append(txn)
            txn = txn.parent
        return chain

    # -- write tracking ---------------------------------------------------------

    def record_dirty(self, object_id: ObjectId, pages) -> None:
        self.dirty.setdefault(object_id, set()).update(pages)

    # -- state transitions ---------------------------------------------------------

    def precommit(self) -> None:
        """Sub-transaction commit: effects and locks pass to the parent.

        Rule 3 of §4.1 — callable only on sub-transactions whose
        children have all finished (enforced), and only once.
        """
        if self.parent is None:
            raise ProtocolError("roots commit, they do not pre-commit")
        if self.state is not TxnState.ACTIVE:
            raise ProtocolError(f"precommit of {self.id!r} in state {self.state}")
        for child in self.children:
            if child.state is TxnState.ACTIVE:
                raise ProtocolError(
                    f"{self.id!r} cannot pre-commit: child {child.id!r} active "
                    f"(rule 3: all sub-transactions must have finished)"
                )
        self.state = TxnState.PRECOMMITTED
        parent = self.parent
        parent.undo.merge_child(self.undo)
        for object_id, pages in self.dirty.items():
            parent.record_dirty(object_id, pages)
        self.dirty.clear()
        parent.lock_objects.update(self.lock_objects)
        if self.commit_actions:
            parent.commit_actions += self.commit_actions
            self.commit_actions = []
        if self.abort_actions:
            parent.abort_actions += self.abort_actions
            self.abort_actions = []

    def mark_committed(self) -> None:
        if not self.is_root:
            raise ProtocolError("only roots reach COMMITTED")
        if self.state is not TxnState.ACTIVE:
            raise ProtocolError(f"commit of {self.id!r} in state {self.state}")
        self.state = TxnState.COMMITTED

    def mark_aborted(self) -> None:
        self.state = TxnState.ABORTED

    # -- observability ---------------------------------------------------------

    def trace_info(self) -> Dict[str, object]:
        """Compact description for trace-event args (span begin time, so
        the state field is omitted — it is always ACTIVE here)."""
        return {
            "txn": self.id,
            "label": self.label,
            "depth": self.depth,
            "is_root": self.is_root,
        }

    def __repr__(self) -> str:
        return f"<Txn {self.id!r} {self.state.value} @{self.node!r} {self.label}>"


@dataclass
class TxnStats:
    """Outcome counters for one run.

    ``aborts_<reason>`` count aborted root attempts by reason;
    ``sub_aborts`` counts aborted sub-transactions of any reason.
    """

    commits: int = 0
    aborts_user: int = 0
    aborts_deadlock: int = 0
    aborts_recursive: int = 0
    aborts_lock_timeout: int = 0
    aborts_crash: int = 0
    retries: int = 0
    sub_commits: int = 0
    sub_aborts: int = 0
    root_latencies: List[float] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        if not self.root_latencies:
            return 0.0
        return sum(self.root_latencies) / len(self.root_latencies)

    def snapshot(self) -> Dict[str, object]:
        return {
            "commits": self.commits,
            "aborts_user": self.aborts_user,
            "aborts_deadlock": self.aborts_deadlock,
            "aborts_recursive": self.aborts_recursive,
            "aborts_lock_timeout": self.aborts_lock_timeout,
            "aborts_crash": self.aborts_crash,
            "retries": self.retries,
            "sub_commits": self.sub_commits,
            "sub_aborts": self.sub_aborts,
            "mean_latency": self.mean_latency,
        }
