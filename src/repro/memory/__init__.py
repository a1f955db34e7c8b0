"""Paged object memory: layout, per-node stores, undo logs.

The paper's DSM is page-based but object-structured: the compiler
decides where each attribute lives in an object's memory image
(:mod:`repro.memory.layout`), each node caches object pages with
version tags (:mod:`repro.memory.store`), and transactions record undo
information so aborts can roll back in place using local logs only
(:mod:`repro.memory.undo` — "no network communication is required",
§4.1).
"""

from repro.memory.layout import AttributeSpec, ObjectLayout, Slot
from repro.memory.store import NodeStore
from repro.memory.undo import UndoLog, UndoRecord

__all__ = [
    "AttributeSpec",
    "ObjectLayout",
    "Slot",
    "NodeStore",
    "UndoLog",
    "UndoRecord",
]
