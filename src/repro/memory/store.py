"""Per-node object store: cached slot values plus page version tags.

Each node keeps, for every object it has ever cached, (a) a value for
each slot it has received and (b) the version of each page of its
local copy.  The GDO's page map holds the authoritative latest version
of every page; a node's copy of page p is *current* iff its local tag
equals the GDO's.  Consistency protocols move pages between stores;
this module only holds state and enforces local invariants.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.memory.layout import ObjectLayout, Slot
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId


class ObjectCopy:
    """One node's copy of one object: slot values received so far and
    the version tag of each cached page.  A node keeps *one* per object
    for the cluster's life (installs, undo and WAL replay mutate it in
    place), so a transaction context resolves it once per invocation
    (:meth:`NodeStore.copy_of`) and then loads and stores ``slots``
    directly; everyone else uses the ``(object_id, ...)`` methods."""

    __slots__ = ("layout", "slots", "page_versions")

    def __init__(self, layout: ObjectLayout):
        self.layout = layout
        self.slots: Dict[Slot, object] = {}
        self.page_versions: Dict[int, int] = {}


class NodeStore:
    """All object data cached at one node."""

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        #: object id -> copy; read in place, changed only by the methods below.
        self.objects: Dict[ObjectId, ObjectCopy] = {}

    # -- presence ----------------------------------------------------------

    def has_object(self, object_id: ObjectId) -> bool:
        return object_id in self.objects

    def copy_of(self, object_id: ObjectId) -> ObjectCopy:
        """This node's (single, long-lived) copy of an object."""
        try:
            return self.objects[object_id]
        except KeyError:
            raise ProtocolError(
                f"object {object_id!r} not cached at node {self.node_id!r}"
            ) from None

    # -- creation / installation -------------------------------------------

    def create_object(self, object_id: ObjectId, layout: ObjectLayout,
                      values: Optional[Dict[Slot, object]] = None,
                      initial_version: int = 1) -> None:
        """Materialize a brand-new object with all pages current."""
        if object_id in self.objects:
            raise ProtocolError(f"object {object_id!r} already exists at "
                                f"{self.node_id!r}")
        cached = ObjectCopy(layout)
        cached.slots = dict(layout.initial_values())
        if values:
            for slot, value in values.items():
                if slot not in cached.slots:
                    raise KeyError(f"unknown slot {slot} for {object_id!r}")
                cached.slots[slot] = value
        cached.page_versions = {
            page: initial_version for page in range(layout.page_count)
        }
        self.objects[object_id] = cached

    def register_object(self, object_id: ObjectId,
                        layout: ObjectLayout) -> ObjectCopy:
        """Make a remote object known locally with no pages cached yet;
        returns this node's copy of it (new or already there)."""
        copy = self.objects.get(object_id)
        if copy is None:
            copy = self.objects[object_id] = ObjectCopy(layout)
        return copy

    def ship_pages(self, object_id: ObjectId, pages: Iterable[int],
                   target: "NodeStore") -> Dict[int, int]:
        """Copy local pages into ``target``'s copy of the object.

        Every page must be cached here (checked before anything lands).
        Pages go in page order; each carries its version tag and the
        value of every slot intersecting it that this node holds.

        Copies at or below the target's version are skipped rather than
        rejected: with concurrent readers the same page can arrive
        twice, and an equal-version copy is by definition identical to
        what the target holds — *except* when the target's copy carries
        uncommitted writes of a transaction running there, which a copy
        must never clobber.  Skipping non-newer copies covers both
        cases.  Returns ``{page: version}`` of every page shipped
        (installed or not).
        """
        # One frame: a miss falls through to ``copy_of``'s error, an
        # uncached page to ``versions_to_ship``'s.
        source = self.objects.get(object_id) or self.copy_of(object_id)
        dest = target.objects.get(object_id) or target.copy_of(object_id)
        source_versions = source.page_versions
        versions = {}
        for page in sorted(set(pages)):
            if page not in source_versions:
                self.versions_to_ship(object_id, pages)  # raises
            versions[page] = source_versions[page]
        slots, slots_by_page = source.slots, source.layout.slots_by_page
        dest_versions, dest_slots = dest.page_versions, dest.slots
        for page, version in versions.items():
            if version <= dest_versions.get(page, 0):
                continue
            dest_versions[page] = version
            for slot in slots_by_page[page]:
                if slot in slots:
                    dest_slots[slot] = slots[slot]
        return versions

    def versions_to_ship(self, object_id: ObjectId,
                         pages: Iterable[int]) -> Dict[int, int]:
        """``{page: local version}`` in page order; raises
        :class:`ProtocolError` unless every page is cached here."""
        versions = {}
        page_versions = self.copy_of(object_id).page_versions
        for page in sorted(set(pages)):
            if page not in page_versions:
                raise ProtocolError(
                    f"node {self.node_id!r} asked to ship uncached page "
                    f"{page} of {object_id!r}"
                )
            versions[page] = page_versions[page]
        return versions

    # -- versions -----------------------------------------------------------

    def page_version(self, object_id: ObjectId, page: int) -> int:
        """Local version tag of a page; 0 if never cached."""
        cached = self.copy_of(object_id)
        return cached.page_versions.get(page, 0)

    def set_page_version(self, object_id: ObjectId, page: int, version: int) -> None:
        self.copy_of(object_id).page_versions[page] = version

    def resident_pages(self, object_id: ObjectId) -> Dict[int, int]:
        """Mapping page -> local version for every cached page."""
        return dict(self.copy_of(object_id).page_versions)

    # -- slot access ----------------------------------------------------------

    def peek_slot(self, object_id: ObjectId, slot: Slot) -> tuple:
        """Non-raising read: ``(present, value-or-None)``.

        Used by recovery logs to capture pre-write state (a slot a
        transaction creates may not exist yet)."""
        cached = self.copy_of(object_id)
        if slot in cached.slots:
            return True, cached.slots[slot]
        return False, None

    def read_slot(self, object_id: ObjectId, slot: Slot) -> object:
        cached = self.copy_of(object_id)
        try:
            return cached.slots[slot]
        except KeyError:
            raise ProtocolError(
                f"slot {slot} of {object_id!r} read at {self.node_id!r} "
                f"before any copy arrived"
            ) from None

    def write_slot(self, object_id: ObjectId, slot: Slot, value: object) -> tuple:
        """Write a slot; returns ``(had_value, old_value)`` for undo."""
        cached = self.copy_of(object_id)
        had = slot in cached.slots
        old = cached.slots.get(slot)
        cached.slots[slot] = value
        return had, old

    def restore_slot(self, object_id: ObjectId, slot: Slot,
                     had_value: bool, old_value: object) -> None:
        """Undo helper: put a slot back exactly as it was."""
        cached = self.copy_of(object_id)
        if had_value:
            cached.slots[slot] = old_value
        else:
            cached.slots.pop(slot, None)

    def snapshot_object(self, object_id: ObjectId) -> Dict[Slot, object]:
        """Copy of all locally cached slot values (tests / debugging)."""
        return dict(self.copy_of(object_id).slots)
