"""Undo logs for transaction rollback.

Section 4.1: "the UNDO operations required by the `LocalLockRelease`
routine may be done using either local UNDO logs or shadow pages.  In
either case, no network communication is required."  The log is the
only rollback path here (its slot granularity is what lets semantic
locks roll back around a concurrent family's increments): every slot
write appends the previous value; abort applies records in reverse;
pre-commit *merges* the child's log into its parent's so that a later
ancestor abort also undoes the pre-committed child (closed nesting).
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.memory.store import NodeStore
from repro.memory.layout import Slot
from repro.util.ids import ObjectId


class UndoRecord(NamedTuple):
    """Inverse of one slot write."""

    object_id: ObjectId
    slot: Slot
    had_value: bool
    old_value: object


class UndoLog:
    """Ordered undo records for one transaction."""

    def __init__(self) -> None:
        self._records: List[UndoRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def record_write(self, object_id: ObjectId, slot: Slot,
                     had_value: bool, old_value: object) -> None:
        self._records.append(UndoRecord(object_id, slot, had_value, old_value))

    def before_write(self, store: NodeStore, object_id: ObjectId,
                     slot: Slot) -> None:
        """Capture the slot's pre-write state."""
        had_value, old_value = store.peek_slot(object_id, slot)
        self.record_write(object_id, slot, had_value, old_value)

    def merge_child(self, child: "UndoLog") -> None:
        """Inherit a pre-committed child's records (Moss closed nesting).

        The child's records are appended after the parent's existing
        ones; reverse application therefore undoes the child's writes
        before the parent's earlier writes, preserving overall
        last-write-first-undone order.
        """
        self._records.extend(child._records)
        child._records = []

    def apply(self, store: NodeStore) -> int:
        """Roll back every recorded write, newest first.

        Returns the number of records applied; the log is emptied.
        """
        applied = 0
        for record in reversed(self._records):
            store.restore_slot(
                record.object_id, record.slot, record.had_value, record.old_value
            )
            applied += 1
        self._records.clear()
        return applied
