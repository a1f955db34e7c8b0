"""Semantic lock modes and commutative-increment merging.

A :class:`SemanticMode` decorates the plain R/W lattice with the
invoking method's identity: ``W+Account.deposit`` is a write lock that
conflicts only with modes the class's commutativity table says do not
commute with ``deposit``.  Everything that stores or compares lock
modes keeps working on the plain lattice via the ``base`` attribute
(``getattr(mode, "base", mode)`` degrades a plain ``LockMode``
gracefully), and the trace serializer renders the mode as
``"<base>+<Class>.<method>"`` so the post-hoc checkers can re-judge
every semantic grant against the table.

:class:`IncrementMerger` makes concurrently granted blind increments
*correct*, not just permitted.  Tracked increment writes are
**store-virtual**: they never touch the node store — each is recorded
as a per-transaction delta, and the store keeps whatever committed
bytes the last page install put there.  The governing invariant is

    family-visible value  =  store value  +  the family's live deltas

* reads through the transaction context add the family's own deltas
  (read-your-own-increments; no *other* family's deltas can be live at
  an observer's read, because observation never commutes with
  incrementing);
* a plain overwrite of a tracked slot stores ``value - deltas`` so the
  invariant (and plain undo logging) keeps working around it;
* root commit folds the family's deltas into a per-slot **ledger** of
  the committed sum and writes the ledger value into the committing
  node's store — the commit makes that node the slot's page owner, so
  every later fetch ships the merged sum.

Because stores only ever hold committed increment bytes, page installs
can never clobber (or leak) another family's uncommitted increments,
and abort is pure bookkeeping: drop the transaction's deltas.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from repro.gdo.entry import LockMode
from repro.memory.layout import Slot
from repro.util.ids import NodeId, ObjectId, TxnId


def base_of(mode) -> LockMode:
    """The plain R/W lattice element under a (possibly semantic) mode."""
    return getattr(mode, "base", mode)


class SemanticMode:
    """A plain lock mode refined by the invoking method's identity."""

    __slots__ = ("base", "tag", "table")

    def __init__(self, base: LockMode, tag: str, table) -> None:
        self.base = base
        self.tag = tag  # "Class.method"
        self.table = table

    @property
    def value(self) -> str:
        return f"{self.base.value}+{self.tag}"

    def conflicts_with(self, other) -> bool:
        other_tag = getattr(other, "tag", None)
        if other_tag is not None:
            left_cls, left_method = self.tag.split(".", 1)
            right_cls, right_method = other_tag.split(".", 1)
            if left_cls == right_cls and self.table.commutes(
                left_method, right_method
            ):
                return False
            return (self.base is LockMode.WRITE
                    or base_of(other) is LockMode.WRITE)
        # Plain requester vs semantic holder (or vice versa): the
        # plain side has no method identity to commute on.
        return self.base is LockMode.WRITE or other is LockMode.WRITE

    def __eq__(self, other) -> bool:
        if isinstance(other, SemanticMode):
            return self.base is other.base and self.tag == other.tag
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.tag))

    def __repr__(self) -> str:
        # The trace sanitizer falls back to repr() for non-enum
        # objects; this exact string is what the checkers parse.
        return self.value


class IncrementMerger:
    """Store-virtual delta ledger for concurrently granted increments.

    Per live transaction it accumulates ``(object, slot) -> delta``;
    per slot it keeps the committed sum (the *ledger*) once the first
    increment family resolves.  A transaction's first delta or note
    registers its transaction actions, which a pre-committing child
    hands to its parent like its undo records.  Resolution rules:

    * **abort** (sub, root, or crash rollback) — the transaction's
      deltas are dropped; the store was never touched, so there is
      nothing to restore;
    * **root commit** — the family's deltas sum per slot and each sum
      folds into the ledger (first resolution seeds it from the
      committing node's store, whose bytes are the latest committed
      base — live deltas are virtual and never reach any store), and
      the ledger value is written into the committing node's store so
      the new page owner — which the commit just made authoritative —
      carries the merged sum;
    * a slot the family **plainly overwrote** (noted by the write
      interceptor) takes its post-commit ledger value from the store
      (plus any increments the family applied *after* the overwrite)
      instead of delta folding — the overwrite supersedes the sum.
    """

    def __init__(self, stores: Dict[NodeId, "NodeStore"]) -> None:
        self.stores = stores
        self._live: Dict[TxnId, Dict[Tuple[ObjectId, Slot], object]] = {}
        self._plain: Dict[TxnId, set] = {}
        self._ledger: Dict[Tuple[ObjectId, Slot], object] = {}

    # -- write interception -------------------------------------------------

    def record(self, txn, object_id: ObjectId, slot: Slot, delta) -> None:
        """One tracked write: fold its delta into the transaction."""
        deltas = self._live.get(txn.id)
        if deltas is None:
            deltas = self._track(txn)
        key = (object_id, slot)
        deltas[key] = deltas.get(key, 0) + delta

    def _track(self, txn) -> dict:
        """Open ``txn``'s delta and note books, dropped if it aborts
        and folded, with its family's, at its root's commit."""
        self._plain[txn.id] = set()
        deltas = self._live[txn.id] = {}
        txn.abort_actions.append(partial(self._drop, txn.id))
        txn.commit_actions.append(self._fold)
        return deltas

    def family_adjustment(self, txn, object_id: ObjectId, slot: Slot):
        """Sum of the family's own live deltas on the slot.

        Reads add this on top of the store value (read-your-own-
        increments); no *other* family's deltas can be live at an
        observer's read because observation never commutes with
        incrementing, and commuting families' deltas are virtual.
        """
        if not self._live:
            return 0
        root = txn.id.root
        key = (object_id, slot)
        total = 0
        for txn_id, deltas in self._live.items():
            if txn_id.root == root:
                total += deltas.get(key, 0)
        return total

    def plain_write_adjustment(self, txn, object_id: ObjectId, slot: Slot):
        """Intercept a plain (non-increment) write to a tracked slot.

        Returns the family adjustment the caller must *subtract* from
        the stored bytes — the store must keep satisfying
        ``family-visible = store + family deltas`` — and notes the
        slot so root commit rebuilds the ledger from the store instead
        of folding the (superseded) deltas.
        """
        if not self._live and not self._ledger:
            return 0
        key = (object_id, slot)
        adjust = self.family_adjustment(txn, object_id, slot)
        if adjust or key in self._ledger:
            if txn.id not in self._plain:
                self._track(txn)
            self._plain[txn.id].add(key)
        return adjust

    # -- resolutions --------------------------------------------------------

    def _drop(self, txn_id: TxnId, _txn) -> None:
        """Abort action: drop the deltas; stores were never written."""
        self._live.pop(txn_id, None)
        self._plain.pop(txn_id, None)

    def _fold(self, root) -> None:
        """Commit action: every transaction of the family that tracked
        anything registered it, so the first to run folds them all."""
        family = root.id.root
        deltas: Dict[Tuple[ObjectId, Slot], object] = {}
        plain = set()
        for txn_id in [txn_id for txn_id in self._live
                       if txn_id.root == family]:
            for key, delta in self._live.pop(txn_id).items():
                deltas[key] = deltas.get(key, 0) + delta
            plain |= self._plain.pop(txn_id)
        if not deltas and not plain:
            return
        store = self.stores[root.node]
        for key in sorted(set(deltas) | set(plain),
                          key=self._ledger_order):
            object_id, slot = key
            if key in plain:
                # The family's overwrite went through the store (minus
                # its then-live deltas); store + total deltas is the
                # family-visible value the overwrite established plus
                # any increments applied after it.
                value = store.read_slot(object_id, slot) + deltas.get(key, 0)
            elif key in self._ledger:
                value = self._ledger[key] + deltas[key]
            else:
                # First resolution seeds the ledger: the store bytes
                # are the latest committed base (plain writers
                # serialize ahead of increment holders; live deltas
                # are virtual and never reach a store).
                value = store.read_slot(object_id, slot) + deltas[key]
            self._ledger[key] = value
            # Fix-up: the commit just made this node the owner of the
            # slot's (dirtied) pages; the authoritative copy must
            # carry the merged sum, not this family's local view.
            store.write_slot(object_id, slot, value)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _ledger_order(key):
        object_id, slot = key
        return (object_id.value, slot)
