"""Undo logs for transaction rollback.

Section 4.1: "the UNDO operations required by the `LocalLockRelease`
routine may be done using either local UNDO logs or shadow pages.  In
either case, no network communication is required."  The log is the
only rollback path here (its slot granularity is what lets semantic
locks roll back around a concurrent family's increments): every slot
write appends the previous value; abort applies records in reverse;
pre-commit *merges* the child's log into its parent's so that a later
ancestor abort also undoes the pre-committed child (closed nesting).

There is one way to add a record, ``log.append(UndoRecord((object_id,
slot, had_value, old_value)))``: two C calls, made inline by the
transaction context's write path (``TxnContext.write_slot``).
"""

from __future__ import annotations

from operator import itemgetter

from repro.memory.store import NodeStore


class UndoRecord(tuple):
    """Inverse of one slot write, built from one 4-tuple
    ``(object_id, slot, had_value, old_value)``.

    A ``tuple`` subclass with no ``__new__`` of its own (fields are
    ``property(itemgetter(i))``, as for the ids): building one is a C
    call, where a ``NamedTuple`` runs a generated Python ``__new__``."""

    __slots__ = ()

    object_id = property(itemgetter(0))
    slot = property(itemgetter(1))
    had_value = property(itemgetter(2))
    old_value = property(itemgetter(3))


class UndoLog(list):
    """Ordered undo records for one transaction: a ``list`` of
    :class:`UndoRecord`, oldest first."""

    __slots__ = ()

    def merge_child(self, child: "UndoLog") -> None:
        """Inherit a pre-committed child's records (Moss closed nesting).

        The child's records are appended after the parent's existing
        ones; reverse application therefore undoes the child's writes
        before the parent's earlier writes, preserving overall
        last-write-first-undone order.
        """
        self.extend(child)
        child.clear()

    def apply(self, store: NodeStore) -> int:
        """Roll back every recorded write, newest first.

        Returns the number of records applied; the log is emptied.
        """
        applied = 0
        for object_id, slot, had_value, old_value in reversed(self):
            store.restore_slot(object_id, slot, had_value, old_value)
            applied += 1
        self.clear()
        return applied
