"""The partitioned directory service.

Every object's entry lives at exactly one *home node* (round-robin by
object id, the paper's "partitioned" GDO); the lock manager sends
request/grant/release messages to and from that node.  The directory
itself is a passive table — all timing and messaging is charged by the
lock manager so that the same entry logic is reusable from direct unit
tests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.gdo.deadlock import DeadlockDetector
from repro.gdo.entry import DirectoryEntry
from repro.obs.tracer import NULL_TRACER
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId, ObjectId


class Directory:
    """All GDO entries, partitioned over the cluster's nodes."""

    def __init__(self, nodes: Sequence[NodeId], tracer=None):
        if not nodes:
            raise ConfigurationError("directory needs at least one node")
        self._nodes: List[NodeId] = list(nodes)
        self._entries: Dict[ObjectId, DirectoryEntry] = {}
        self.deadlock = DeadlockDetector()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def home_node(self, object_id: ObjectId) -> NodeId:
        """Round-robin partitioning of entries over nodes."""
        return self._nodes[object_id.value % len(self._nodes)]

    def register(self, object_id: ObjectId, page_count: int,
                 creator_node: NodeId) -> DirectoryEntry:
        if object_id in self._entries:
            raise ProtocolError(f"directory entry for {object_id!r} already exists")
        entry = DirectoryEntry(
            object_id=object_id,
            home_node=self.home_node(object_id),
            page_count=page_count,
            creator_node=creator_node,
        )
        self._entries[object_id] = entry
        self.tracer.gdo_register(object_id, entry.home_node, page_count)
        return entry

    def move_home(self, object_id: ObjectId, new_home: NodeId) -> NodeId:
        """Re-home an entry (adaptive migration); returns the old home.

        Callers (the lock manager, driven by
        :class:`~repro.gdo.migration.HomeMigrationManager`) must only
        move quiescent entries and are responsible for charging the
        handoff message and invalidating holder caches.
        """
        if new_home not in self._nodes:
            raise ConfigurationError(
                f"cannot re-home {object_id!r} to unknown node {new_home!r}"
            )
        entry = self.entry(object_id)
        old_home = entry.home_node
        entry.home_node = new_home
        self.tracer.gdo_migrate(object_id, old_home, new_home)
        return old_home

    def entry(self, object_id: ObjectId) -> DirectoryEntry:
        try:
            return self._entries[object_id]
        except KeyError:
            raise ProtocolError(f"no directory entry for {object_id!r}") from None

    def entries(self) -> Dict[ObjectId, DirectoryEntry]:
        return dict(self._entries)

    def refresh_deadlock_edges(self, object_id: ObjectId) -> None:
        """Re-derive this entry's contribution to the waits-for graph.

        Nothing queued and nothing recorded (most refreshes outside a
        contended burst) means nothing to derive."""
        entry = self.entry(object_id)
        if entry.waiting_families or self.deadlock.has_entry(object_id):
            self.deadlock.update_entry(object_id, entry.waits_for_edges())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._entries
