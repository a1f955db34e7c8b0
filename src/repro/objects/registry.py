"""Object registry: cluster-wide metadata for every shared object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.memory.layout import ObjectLayout
from repro.objects.schema import ClassSchema
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId, ObjectId


@dataclass(frozen=True)
class ObjectMeta:
    """Immutable identity of one shared object.

    ``home_node`` is the GDO partition that owns the object's directory
    entry (not where the data lives — pages migrate freely).
    """

    object_id: ObjectId
    schema: ClassSchema
    layout: ObjectLayout
    home_node: NodeId
    creator_node: NodeId

    @property
    def page_count(self) -> int:
        return self.layout.page_count


@dataclass(frozen=True)
class HandleRef:
    """Frozen stand-in for an ObjectHandle inside recorded args."""

    __slots__ = ("object_value",)
    object_value: int


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
