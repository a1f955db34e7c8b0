"""Typed identifiers for nodes, objects, and transactions.

The paper's data structures key on ``<transaction id, node id>`` pairs
(GDO holder lists) and per-object entries.  We give each of these a
small, hashable, ordered wrapper so that mixing them up is caught early
and ``repr`` output in logs and test failures is self-describing.

Every id is a ``tuple`` whose first item is a per-type tag: ``NodeId``
is ``(0, value)``, ``ObjectId`` is ``(1, value)`` and ``TxnId`` is
``(2, serial, root)``.  The tag keeps ids of different types unequal
(``NodeId(1) != ObjectId(1)``) while hashing, equality and ordering run
as C tuple operations — ids key every holder dict, page map and release
sort on the hot path.  Because an id *is* a tuple, any code that walks
arbitrary values and treats tuples as containers must test for
:class:`TypedId` first (DESIGN §14).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter

_FIRST = itemgetter(1)
_SECOND = itemgetter(2)


class TypedId(tuple):
    """Base of the tagged-tuple ids; test ``isinstance(x, TypedId)``
    before treating a value as a plain tuple."""

    __slots__ = ()


class NodeId(TypedId):
    """Identifier of a node (site) in the simulated cluster."""

    __slots__ = ()

    def __new__(cls, value: int) -> "NodeId":
        return tuple.__new__(cls, (0, value))

    def __getnewargs__(self):
        return (self[1],)

    value = property(_FIRST)

    def __repr__(self) -> str:
        return f"N{self[1]}"


class ObjectId(TypedId):
    """Identifier of a shared object registered in the GDO."""

    __slots__ = ()

    def __new__(cls, value: int) -> "ObjectId":
        return tuple.__new__(cls, (1, value))

    def __getnewargs__(self):
        return (self[1],)

    value = property(_FIRST)

    def __repr__(self) -> str:
        return f"O{self[1]}"


class TxnId(TypedId):
    """Identifier of a [sub-]transaction.

    ``root`` is the identifier of the family's root transaction so that
    family membership tests (rule 1 of §4.1) are O(1); ``serial`` orders
    transactions globally and doubles as the age used by the deadlock
    detector's youngest-victim policy.  Ids sort by ``(serial, root)``.
    """

    __slots__ = ()

    def __new__(cls, serial: int, root: int) -> "TxnId":
        return tuple.__new__(cls, (2, serial, root))

    def __getnewargs__(self):
        return (self[1], self[2])

    serial = property(_FIRST)
    root = property(_SECOND)

    @property
    def is_root(self) -> bool:
        return self[1] == self[2]

    def same_family(self, other: "TxnId") -> bool:
        return self[2] == other[2]

    def __repr__(self) -> str:
        if self[1] == self[2]:
            return f"T{self[1]}"
        return f"T{self[1]}/r{self[2]}"


@dataclass
class IdAllocator:
    """Monotonic allocator for each identifier kind.

    A single allocator is owned by the :class:`repro.runtime.Cluster`
    so identifiers are unique cluster-wide and deterministic for a given
    run (no global mutable state: two clusters never share counters).
    """

    _nodes: itertools.count = field(default_factory=itertools.count)
    _objects: itertools.count = field(default_factory=itertools.count)
    _txns: itertools.count = field(default_factory=itertools.count)

    def next_node(self) -> NodeId:
        return NodeId(next(self._nodes))

    def next_object(self) -> ObjectId:
        return ObjectId(next(self._objects))

    def next_root_txn(self) -> TxnId:
        serial = next(self._txns)
        return TxnId(serial, serial)

    def next_sub_txn(self, parent: TxnId) -> TxnId:
        return TxnId(next(self._txns), parent[2])
