"""Object registry: cluster-wide metadata for every shared object."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.gdo.entry import DirectoryEntry
from repro.memory.layout import ObjectLayout
from repro.objects.schema import ClassSchema
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId, ObjectId


@dataclass(frozen=True, init=False)
class ObjectMeta:
    """Immutable identity of one shared object.

    ``entry`` is the object's :class:`~repro.gdo.entry.DirectoryEntry`,
    bound at registration: the entry is assigned exactly once and
    re-homing or failover change it in place (its ``home_node`` is the
    live GDO partition), so the lock path reaches it by reference,
    never by a directory lookup (DESIGN §14).
    """

    object_id: ObjectId
    schema: ClassSchema
    layout: ObjectLayout
    creator_node: NodeId
    entry: Optional[DirectoryEntry] = field(default=None, compare=False,
                                            repr=False)

    def __init__(self, object_id: ObjectId, schema: ClassSchema,
                 layout: ObjectLayout, creator_node: NodeId,
                 entry: Optional[DirectoryEntry] = None):
        # Frozen: written once, here, past the refusing ``__setattr__``
        # (one per object, at its creation).
        setattr_ = object.__setattr__
        setattr_(self, "object_id", object_id)
        setattr_(self, "schema", schema)
        setattr_(self, "layout", layout)
        setattr_(self, "creator_node", creator_node)
        setattr_(self, "entry", entry)

    @property
    def page_count(self) -> int:
        return self.layout.page_count


@dataclass(frozen=True, init=False)
class HandleRef:
    """Frozen stand-in for an ObjectHandle inside recorded args."""

    __slots__ = ("object_value",)
    object_value: int

    def __init__(self, object_value: int):
        # Frozen: written once, here (one per object, at its creation).
        object.__setattr__(self, "object_value", object_value)


class ObjectHandle:
    """The user-facing reference to a shared object.

    Handles are plain values: they can be stored in other objects'
    attributes and passed as method arguments across nodes (they cost
    8 bytes on the wire, like any scalar).  ``ref`` is the handle's one
    shared frozen form: the commit log stores it, never a fresh box.
    """

    __slots__ = ("meta", "ref")

    def __init__(self, meta: ObjectMeta):
        self.meta = meta
        self.ref = HandleRef(meta.object_id.value)

    @property
    def object_id(self) -> ObjectId:
        return self.meta.object_id

    @property
    def class_name(self) -> str:
        return self.meta.schema.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectHandle) and other.object_id == self.object_id

    def __hash__(self) -> int:
        return hash(self.object_id)

    def __repr__(self) -> str:
        return f"<{self.class_name} {self.object_id!r}>"


class ObjectRegistry:
    """Maps object ids to metadata; shared by every node in a cluster.

    A real system would replicate this through the GDO; here it is a
    process-local table (the GDO still charges messages for directory
    *lock* and *page-map* traffic, which is what the paper measures —
    class metadata distribution is a one-time cost it does not model).
    """

    def __init__(self) -> None:
        self._metas: Dict[ObjectId, ObjectMeta] = {}

    def register(self, meta: ObjectMeta) -> ObjectHandle:
        if meta.object_id in self._metas:
            raise ConfigurationError(f"object {meta.object_id!r} already registered")
        self._metas[meta.object_id] = meta
        return ObjectHandle(meta)

    def meta(self, object_id: ObjectId) -> ObjectMeta:
        try:
            return self._metas[object_id]
        except KeyError:
            raise KeyError(f"unknown object {object_id!r}") from None

    def handle(self, object_id: ObjectId) -> ObjectHandle:
        return ObjectHandle(self.meta(object_id))

    def all_objects(self) -> Tuple[ObjectId, ...]:
        return tuple(self._metas)

    def __len__(self) -> int:
        return len(self._metas)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._metas
