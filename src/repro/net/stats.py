"""Network accounting: the measurement surface of the reproduction.

Figures 2-5 of the paper plot *bytes transferred to maintain the
consistency of each shared object*; Figures 6-8 plot *total message
time* for a shared object under different bandwidth / software-cost
points.  :class:`NetworkStats` accumulates exactly those series, plus
per-category tallies used by the message-count claims and ablations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from repro.net.message import Message, MessageCategory
from repro.util.ids import NodeId, ObjectId


@dataclass
class ObjectTraffic:
    """Per-object consistency-maintenance traffic totals."""

    bytes: int = 0
    messages: int = 0
    time: float = 0.0
    data_bytes: int = 0  # bytes in PAGE_DATA / UPDATE_PUSH messages only
    data_messages: int = 0


@dataclass
class NodeTraffic:
    """Per-node send/receive totals (load-balance diagnostics)."""

    sent_bytes: int = 0
    sent_messages: int = 0
    received_bytes: int = 0
    received_messages: int = 0


@dataclass
class CategoryTraffic:
    """Per-category totals (the message-count claims and ablations)."""

    bytes: int = 0
    messages: int = 0


#: ``_value_`` of the categories that carry object data (see
#: :attr:`MessageCategory.is_consistency_data`).
_DATA_CATEGORIES = frozenset(
    category._value_ for category in MessageCategory
    if category.is_consistency_data
)


@dataclass
class NetworkStats:
    """Aggregate, per-category, per-object, and per-node network counters.

    :meth:`record` runs once per wire copy of every message, so each
    dimension keeps one dict keyed by a primitive — the category's
    string value, the object's or node's integer — whose lookups hash
    in C.  Keying by the :class:`MessageCategory` member costs a
    Python-level ``Enum.__hash__`` per lookup, and by an id wrapper a
    dataclass ``__hash__``.  A tally is created when the first message
    it counts is recorded (so iteration is in first-use order) and
    updated in place from then on; ``by_category``, ``by_object`` and
    ``by_node`` view the same tallies under their typed keys.
    """

    total_bytes: int = 0
    total_messages: int = 0
    total_time: float = 0.0
    total_attempts: int = 0
    by_attempts: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    categories: Dict[str, CategoryTraffic] = field(default_factory=dict)
    objects: Dict[int, ObjectTraffic] = field(default_factory=dict)
    nodes: Dict[int, NodeTraffic] = field(default_factory=dict)

    def record(self, message: Message, transfer_time: float) -> None:
        """Account one wire copy (attempt or duplicate) of a message."""
        size_bytes = message.size_bytes
        self.total_bytes += size_bytes
        self.total_messages += 1
        self.total_time += transfer_time
        # `_value_`, not `.value`: the enum's `value` is a Python-level
        # property.
        category = message.category._value_
        tally = self.categories.get(category)
        if tally is None:
            tally = self.categories[category] = CategoryTraffic()
        tally.bytes += size_bytes
        tally.messages += 1
        object_id = message.object_id
        if object_id is not None:
            traffic = self.objects.get(object_id.value)
            if traffic is None:
                traffic = self.objects[object_id.value] = ObjectTraffic()
            traffic.bytes += size_bytes
            traffic.messages += 1
            # `t * s / s`, not `t`: in IEEE doubles the two can differ
            # in the last bit, and the per-object message-time series
            # (Figures 6-8, the benches' hot-object meta) are pinned
            # bit for bit.
            traffic.time += (transfer_time * size_bytes / size_bytes
                             if size_bytes else transfer_time)
            if category in _DATA_CATEGORIES:
                traffic.data_bytes += size_bytes
                traffic.data_messages += 1
        nodes = self.nodes
        sender = nodes.get(message.src.value)
        if sender is None:
            sender = nodes[message.src.value] = NodeTraffic()
        sender.sent_bytes += size_bytes
        sender.sent_messages += 1
        receiver = nodes.get(message.dst.value)
        if receiver is None:
            receiver = nodes[message.dst.value] = NodeTraffic()
        receiver.received_bytes += size_bytes
        receiver.received_messages += 1

    def record_attempts(self, message: Message) -> None:
        """Account one *delivered* message's wire-attempt count (1 =
        first attempt got through; >1 means retransmissions)."""
        self.total_attempts += message.attempts
        self.by_attempts[message.attempts] += 1

    # -- derived views used by the benches --------------------------------

    @property
    def by_category(self) -> Dict[MessageCategory, CategoryTraffic]:
        """Tallies per category, in first-use order."""
        return {MessageCategory(value): tally
                for value, tally in self.categories.items()}

    @property
    def by_object(self) -> Dict[ObjectId, ObjectTraffic]:
        """Tallies per object, in first-use order."""
        return {ObjectId(value): traffic
                for value, traffic in self.objects.items()}

    @property
    def by_node(self) -> Dict[NodeId, NodeTraffic]:
        """Tallies per node, in first-use order."""
        return {NodeId(value): traffic
                for value, traffic in self.nodes.items()}

    @property
    def by_category_bytes(self) -> Dict[MessageCategory, int]:
        """Bytes per category, in first-use order."""
        return {MessageCategory(value): tally.bytes
                for value, tally in self.categories.items()}

    @property
    def by_category_messages(self) -> Dict[MessageCategory, int]:
        """Messages per category, in first-use order."""
        return {MessageCategory(value): tally.messages
                for value, tally in self.categories.items()}

    def object_bytes(self, object_id: ObjectId) -> int:
        traffic = self.objects.get(object_id.value)
        return traffic.bytes if traffic else 0

    def object_time(self, object_id: ObjectId) -> float:
        traffic = self.objects.get(object_id.value)
        return traffic.time if traffic else 0.0

    def object_messages(self, object_id: ObjectId) -> int:
        traffic = self.objects.get(object_id.value)
        return traffic.messages if traffic else 0

    def consistency_bytes(self) -> int:
        """Bytes in page/update data messages (the Figures 2-5 metric)."""
        return sum(
            tally.bytes
            for value, tally in self.categories.items()
            if value in _DATA_CATEGORIES
        )

    def category_bytes(self, category: MessageCategory) -> int:
        tally = self.categories.get(category.value)
        return tally.bytes if tally else 0

    def category_messages(self, category: MessageCategory) -> int:
        tally = self.categories.get(category.value)
        return tally.messages if tally else 0

    #: Categories that terminate at (or originate from) a directory
    #: home node: lock traffic, forwarded requests racing a home move,
    #: and entry handoffs.  Local calls never reach ``record``, so this
    #: is by construction the *remote* directory traffic — the quantity
    #: adaptive home migration exists to shrink.
    DIRECTORY_CATEGORIES = (
        MessageCategory.LOCK_REQUEST,
        MessageCategory.LOCK_GRANT,
        MessageCategory.LOCK_RELEASE,
        MessageCategory.GDO_MIGRATE,
    )

    def directory_messages(self) -> int:
        """Remote messages to/from GDO home nodes (incl. migration)."""
        return sum(
            self.category_messages(category)
            for category in self.DIRECTORY_CATEGORIES
        )

    def node_imbalance(self) -> float:
        """Max/mean ratio of per-node sent+received bytes (1.0 = even)."""
        if not self.nodes:
            return 1.0
        loads = [
            traffic.sent_bytes + traffic.received_bytes
            for traffic in self.nodes.values()
        ]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict summary for reports and EXPERIMENTS.md tables."""
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "total_time": self.total_time,
            "total_attempts": self.total_attempts,
            "consistency_bytes": self.consistency_bytes(),
            "directory_messages": self.directory_messages(),
            "node_imbalance": self.node_imbalance(),
            "by_attempts": {
                str(attempts): count
                for attempts, count in sorted(self.by_attempts.items())
            },
            "by_category_bytes": {
                category.value: count
                for category, count in sorted(
                    self.by_category_bytes.items(), key=lambda kv: kv[0].value
                )
            },
            "by_category_messages": {
                category.value: count
                for category, count in sorted(
                    self.by_category_messages.items(), key=lambda kv: kv[0].value
                )
            },
        }
