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
from repro.util.ids import ObjectId


@dataclass
class ObjectTraffic:
    """Per-object consistency-maintenance traffic totals."""

    bytes: int = 0
    messages: int = 0
    time: float = 0.0
    data_bytes: int = 0  # bytes in PAGE_DATA / UPDATE_PUSH messages only
    data_messages: int = 0

    def record(self, message: Message, transfer_time: float) -> None:
        self.bytes += message.size_bytes
        self.messages += 1
        self.time += transfer_time
        if message.category.is_consistency_data:
            self.data_bytes += message.size_bytes
            self.data_messages += 1


@dataclass
class NodeTraffic:
    """Per-node send/receive totals (load-balance diagnostics)."""

    sent_bytes: int = 0
    sent_messages: int = 0
    received_bytes: int = 0
    received_messages: int = 0


@dataclass
class NetworkStats:
    """Aggregate, per-object, and per-node network counters."""

    total_bytes: int = 0
    total_messages: int = 0
    total_time: float = 0.0
    total_attempts: int = 0
    by_category_bytes: Dict[MessageCategory, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    by_category_messages: Dict[MessageCategory, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    by_attempts: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    by_object: Dict[ObjectId, ObjectTraffic] = field(default_factory=dict)
    by_node: Dict[object, NodeTraffic] = field(default_factory=dict)

    def record(self, message: Message, transfer_time: float) -> None:
        """Account one wire copy (attempt or duplicate) of a message."""
        self.total_bytes += message.size_bytes
        self.total_messages += 1
        self.total_time += transfer_time
        self.by_category_bytes[message.category] += message.size_bytes
        self.by_category_messages[message.category] += 1
        object_id = message.object_id
        if object_id is not None:
            traffic = self.by_object.get(object_id)
            if traffic is None:
                traffic = self.by_object[object_id] = ObjectTraffic()
            size_bytes = message.size_bytes
            # `t * s / s`, not `t`: in IEEE doubles the two can differ
            # in the last bit, and the per-object message-time series
            # (Figures 6-8, the benches' hot-object meta) are pinned
            # bit for bit.
            traffic.record(message, (
                transfer_time * size_bytes / size_bytes
                if size_bytes else transfer_time
            ))
        sender = self.by_node.setdefault(message.src, NodeTraffic())
        sender.sent_bytes += message.size_bytes
        sender.sent_messages += 1
        receiver = self.by_node.setdefault(message.dst, NodeTraffic())
        receiver.received_bytes += message.size_bytes
        receiver.received_messages += 1

    def record_attempts(self, message: Message) -> None:
        """Account one *delivered* message's wire-attempt count (1 =
        first attempt got through; >1 means retransmissions)."""
        self.total_attempts += message.attempts
        self.by_attempts[message.attempts] += 1

    # -- derived views used by the benches --------------------------------

    def object_bytes(self, object_id: ObjectId) -> int:
        traffic = self.by_object.get(object_id)
        return traffic.bytes if traffic else 0

    def object_time(self, object_id: ObjectId) -> float:
        traffic = self.by_object.get(object_id)
        return traffic.time if traffic else 0.0

    def object_messages(self, object_id: ObjectId) -> int:
        traffic = self.by_object.get(object_id)
        return traffic.messages if traffic else 0

    def consistency_bytes(self) -> int:
        """Bytes in page/update data messages (the Figures 2-5 metric)."""
        return sum(
            count
            for category, count in self.by_category_bytes.items()
            if category.is_consistency_data
        )

    def category_bytes(self, category: MessageCategory) -> int:
        return self.by_category_bytes.get(category, 0)

    def category_messages(self, category: MessageCategory) -> int:
        return self.by_category_messages.get(category, 0)

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
            self.by_category_messages.get(category, 0)
            for category in self.DIRECTORY_CATEGORIES
        )

    def node_imbalance(self) -> float:
        """Max/mean ratio of per-node sent+received bytes (1.0 = even)."""
        if not self.by_node:
            return 1.0
        loads = [
            traffic.sent_bytes + traffic.received_bytes
            for traffic in self.by_node.values()
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
