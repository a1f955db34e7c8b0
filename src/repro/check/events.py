"""The trace, read once, for every checker.

The :mod:`repro.obs` tracer sanitizes every event to JSON primitives:
transaction ids become ``"T5"`` / ``"T5/r3"``, object ids ``"O3"``,
node ids ``"N0"``.  This module is the only reader of that format.
:class:`TraceIndex` walks a stream once — live
:class:`~repro.obs.tracer.TraceEvent` objects or the dicts round-tripped
through JSONL — and hands the checkers parsed *steps*; the reference
model and the invariant checkers keep their own state and rules, and
never look at an event name.  It also holds the :class:`Violation`
record every checker emits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Dict, Iterable, List, Set

MODE_READ = "R"
MODE_WRITE = "W"

# Step kinds.  Every step is a tuple ``(kind, index, ts, ...)``: the
# kind, the event's position in the stream, its virtual time, then:
#   GRANT / WAIT / PREFETCH  txn, object, mode, ancestor serials
#   INHERIT                  txn, parent, objects
#   RELEASE                  root, objects
#   TXN_END                  txn, outcome
#   TXN_START / CRASH_ABORT  root
#   INSTALL                  object name, {page: version}
#   FAULT                    window (node index, or PARTITION), +1 / -1
# An immediate grant, a granted wait and a granted prefetch sort first,
# so ``kind <= PREFETCH`` is "any grant".
GRANT, WAIT, PREFETCH, INHERIT, RELEASE, TXN_END, CRASH_ABORT, \
    TXN_START, INSTALL, FAULT = range(10)
#: The FAULT window of a network bipartition (node windows are ints).
PARTITION = "partition"

_INSTALLS = ("transfer.install", "transfer.demand", "transfer.push")
#: Fault event -> (the arg naming its node, or None; window delta).
_FAULT_WINDOWS = {
    "fault.node_crash": ("crashed_node", 1),
    "fault.node_recover": ("recovered_node", -1),
    "fault.partition": (None, 1),
    "fault.partition_heal": (None, -1),
}


def split_mode(mode: str):
    """``"W+Account.deposit"`` -> ``("W", "Account.deposit")``;
    a plain ``"R"``/``"W"`` yields ``(mode, None)``."""
    base, sep, tag = mode.partition("+")
    return base, (tag if sep else None)


def base_mode(mode: str) -> str:
    """The plain R/W lattice element under a sanitized mode string."""
    return split_mode(mode)[0]


def join_mode_strings(left: str, right: str) -> str:
    """Mode a holder records after a re-entrant grant (mirrors
    ``repro.gdo.entry._join``): equal modes keep their identity —
    including a semantic tag — anything else collapses to the plain
    base join."""
    if left == right:
        return left
    if base_mode(left) == MODE_WRITE or base_mode(right) == MODE_WRITE:
        return MODE_WRITE
    return MODE_READ


class SemanticConflicts:
    """Conflict relation over sanitized mode strings.

    Rebuilt from the honest ``lock.commtable`` trace artifacts the
    cluster emits at table registration — *not* from the production
    lock manager's in-memory tables, which a test mutation may have
    corrupted.  Two semantic modes of the same class commute iff the
    artifact lists their method pair; every other combination falls
    back to the plain single-writer rule on the base modes.
    """

    def __init__(self) -> None:
        self._commutes: Dict[str, frozenset] = {}

    def add_table(self, payload: Dict) -> None:
        name = payload.get("class")
        if not name:
            return
        pairs = set()
        for left, right in payload.get("commutes", ()):
            pairs.add((left, right))
            pairs.add((right, left))
        self._commutes[name] = frozenset(pairs)

    def conflict(self, left: str, right: str) -> bool:
        left_base, left_tag = split_mode(left)
        right_base, right_tag = split_mode(right)
        if left_tag is not None and right_tag is not None:
            left_cls, _, left_method = left_tag.partition(".")
            right_cls, _, right_method = right_tag.partition(".")
            if left_cls == right_cls and (
                (left_method, right_method) in self._commutes.get(
                    left_cls, ()
                )
            ):
                return False
        return left_base == MODE_WRITE or right_base == MODE_WRITE


class TxnRef(tuple):
    """A sanitized transaction id: serial plus family root serial.

    A hand-written ``tuple`` subclass like :class:`repro.util.ids.TxnId`,
    so hashing, equality and the ``(serial, root)`` order run in C.
    """

    __slots__ = ()

    def __new__(cls, serial: int, root: int) -> "TxnRef":
        return tuple.__new__(cls, (serial, root))

    def __getnewargs__(self):
        return (self[0], self[1])

    serial = property(itemgetter(0))
    root = property(itemgetter(1))

    @property
    def is_root(self) -> bool:
        return self[0] == self[1]

    def __repr__(self) -> str:
        if self[0] == self[1]:
            return f"T{self[0]}"
        return f"T{self[0]}/r{self[1]}"


def parse_txn(text: str) -> TxnRef:
    """Parse the sanitized ``repr`` of a TxnId (``T5`` or ``T5/r3``)."""
    body = text[1:]
    serial, _, root = body.partition("/r")
    return TxnRef(int(serial), int(root) if root else int(serial))


def parse_object(text: str) -> int:
    """Parse the sanitized ``repr`` of an ObjectId (``O3``)."""
    return int(text[1:])


def object_name(obj: int) -> str:
    """The sanitized ``repr`` of object ``obj`` (``parse_object``'s
    inverse)."""
    return f"O{obj}"


def event_dicts(events: Iterable) -> List[Dict]:
    """Normalize a trace stream to plain dicts (JSONL-shaped)."""
    return [event.to_dict() if hasattr(event, "to_dict") else event
            for event in events]


class TraceIndex:
    """One pass over a trace stream, shared by every checker.

    ``events`` is the stream as dicts; ``steps`` its judged events,
    classified and parsed (see the step kinds above), in stream order;
    ``conflicts`` the relation of every ``lock.commtable`` in it; and
    :meth:`footprint` the objects a family's grants and inheritances
    named, so a check or purge of one family touches only those.
    """

    def __init__(self, events: Iterable) -> None:
        self.events: List[Dict] = []
        self.steps: List[tuple] = []
        self.conflicts = SemanticConflicts()
        self._footprints: Dict[int, Set[int]] = defaultdict(set)
        # Each distinct id string is parsed once.
        txn_of = lru_cache(maxsize=None)(parse_txn)
        object_of = lru_cache(maxsize=None)(parse_object)
        record = self.events.append
        step = self.steps.append
        for index, event in enumerate(events):
            if hasattr(event, "to_dict"):
                event = event.to_dict()
            record(event)
            name = event.get("name", "")
            category = event.get("category", "")
            args = event.get("args", {})
            ts = event.get("ts", 0.0)
            if category == "lock":
                if name.startswith("lock.grant "):
                    kind = GRANT
                elif name.startswith("lock.wait "):
                    if not args.get("granted"):
                        continue
                    kind = WAIT
                elif name.startswith("lock.prefetch "):
                    if args.get("outcome") != "granted":
                        continue
                    kind = PREFETCH
                elif name == "lock.inherit":
                    txn = txn_of(args["txn"])
                    parent = txn_of(args["parent"])
                    objs = tuple(map(object_of, args.get("objects", ())))
                    self._footprints[txn.root].update(objs)
                    self._footprints[parent.root].update(objs)
                    step((INHERIT, index, ts, txn, parent, objs))
                    continue
                elif name == "lock.release":
                    step((RELEASE, index, ts, args.get("root"),
                          tuple(map(object_of, args.get("objects", ())))))
                    continue
                else:
                    if name == "lock.commtable":
                        self.conflicts.add_table(args.get("table", {}))
                    continue
                txn = txn_of(args["txn"])
                obj = object_of(args["object"])
                self._footprints[txn.root].add(obj)
                step((kind, index, ts, txn, obj,
                      args.get("mode") or MODE_WRITE,
                      frozenset(args.get("lineage") or ())))
            elif category == "txn":
                if event.get("phase") == "X":
                    step((TXN_END, index, ts, txn_of(args["txn"]),
                          args.get("outcome")))
                elif name.startswith("txn.start "):
                    step((TXN_START, index, ts, args.get("root")))
            elif category == "transfer":
                if name.startswith(_INSTALLS):
                    step((INSTALL, index, ts, args.get("object"),
                          args.get("versions") or {}))
            elif category == "fault":
                head = name.partition(" ")[0]
                if head == "fault.crash_abort":
                    step((CRASH_ABORT, index, ts, args.get("root")))
                elif head in _FAULT_WINDOWS:
                    node_arg, delta = _FAULT_WINDOWS[head]
                    window = PARTITION if node_arg is None else (
                        args.get(node_arg))
                    step((FAULT, index, ts, window, delta))

    @classmethod
    def of(cls, events) -> "TraceIndex":
        """``events`` itself when already indexed, else its index."""
        return events if isinstance(events, cls) else cls(events)

    def footprint(self, root) -> Iterable[int]:
        """Every object a lock event of family ``root`` named."""
        return self._footprints.get(root, ())


@dataclass(frozen=True)
class Violation:
    """One protocol-rule or invariant breach found in a trace."""

    checker: str
    index: int          # position in the event stream
    ts: float           # virtual time of the offending event
    message: str

    def __str__(self) -> str:
        return (f"[{self.checker}] event #{self.index} @t={self.ts:.6f}: "
                f"{self.message}")
