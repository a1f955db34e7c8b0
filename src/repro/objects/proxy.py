"""Instrumented ``self``: routes attribute access through the runtime.

When a transactional method runs, its ``self`` is an
:class:`InstrumentedSelf` bound to the executing transaction's context.
Every read and write flows through the context, which (a) performs the
access against the node's local store, (b) records actual read/write
sets (used to validate prediction conservatism), (c) appends undo
records for writes, and (d) triggers LOTEC demand fetches for pages the
prediction missed.  Each layout gets one :class:`InstrumentedSelf`
subclass (:func:`proxy_class`) with a read property per scalar slot, so
``self.x`` enters one Python frame, the context's ``read_slot``, and
``self.x = v`` two, ``__setattr__`` and ``write_slot`` (which appends
the undo record in place); arrays, methods and unknown names take the
``__getattr__`` slow path.

Attribute values must be treated as immutable: update by assignment
(``self.x = v``, ``self.a[i] = v``), never by in-place container
mutation (``self.a.append(...)``) — in-place mutation would bypass both
undo logging and dirty-page tracking, just as an unlogged store would
in a real DSM.
"""

from __future__ import annotations

from functools import partial
from operator import methodcaller
from typing import TYPE_CHECKING

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.context import TxnContext
    from repro.objects.registry import ObjectMeta


class ArrayView:
    """Element-wise view of an array attribute within a transaction."""

    __slots__ = ("_ctx", "_meta", "_name", "_count")

    def __init__(self, ctx: "TxnContext", meta: "ObjectMeta", name: str, count: int):
        self._ctx = ctx
        self._meta = meta
        self._name = name
        self._count = count

    def __len__(self) -> int:
        return self._count

    def _check_index(self, index: int) -> int:
        if not isinstance(index, int):
            raise TypeError(
                f"array attribute {self._name!r} requires integer indices, "
                f"got {type(index).__name__}"
            )
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(
                f"index {index} out of range for {self._name!r} "
                f"(count={self._count})"
            )
        return index

    def __getitem__(self, index: int) -> object:
        index = self._check_index(index)
        return self._ctx.read_slot(self._meta, (self._name, index))

    def __setitem__(self, index: int, value: object) -> None:
        index = self._check_index(index)
        self._ctx.write_slot(self._meta, (self._name, index), value)

    def __iter__(self):
        for index in range(self._count):
            yield self[index]

    def __repr__(self) -> str:
        return f"<ArrayView {self._meta.object_id!r}.{self._name}[{self._count}]>"


class InstrumentedSelf:
    """The ``self`` seen by method bodies: a tracked facade over one
    shared object's slots at the executing node."""

    __slots__ = ("_ctx", "_meta", "_read")

    def __init__(self, ctx: "TxnContext", meta: "ObjectMeta"):
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_meta", meta)
        # ``_read(slot)`` is ``ctx.read_slot(meta, slot)``, all in C:
        # what the per-layout read properties call.
        object.__setattr__(self, "_read", partial(ctx.read_slot, meta))

    def __getattr__(self, name: str):
        # '_' names: our slots, Python's probes; never an attribute.
        if name.startswith("_"):
            raise AttributeError(name)
        meta = self._meta
        slot = meta.layout.scalar_slots.get(name)
        if slot is not None:
            return self._ctx.read_slot(meta, slot)
        if not meta.layout.has_attribute(name):
            spec = meta.schema.methods.get(name)
            if spec is not None:
                raise ConfigurationError(
                    f"direct call of method {name!r} on shared self; invoke "
                    f"it as a sub-transaction: yield ctx.invoke(handle, {name!r})"
                )
            raise AttributeError(
                f"shared object {meta.object_id!r} ({meta.schema.name}) has "
                f"no attribute {name!r}"
            )
        return ArrayView(self._ctx, meta, name,
                         meta.layout.attribute(name).count)

    def __setattr__(self, name: str, value: object) -> None:
        meta = self._meta
        slot = meta.layout.scalar_slots.get(name)
        if slot is not None:
            self._ctx.write_slot(meta, slot, value)
            return
        if not meta.layout.has_attribute(name):
            raise AttributeError(
                f"shared object {meta.object_id!r} ({meta.schema.name}) has "
                f"no attribute {name!r}; shared classes are closed — declare "
                f"new attributes with Attr/Array"
            )
        raise ConfigurationError(
            f"cannot assign whole array {name!r}; assign elements "
            f"(self.{name}[i] = value)"
        )

    def __repr__(self) -> str:
        meta = self._meta
        return f"<shared {meta.schema.name} {meta.object_id!r}>"


def proxy_class(layout) -> type:
    """The :class:`InstrumentedSelf` subclass for ``layout``, built on
    first use and memoised on the layout.

    It adds one read property per scalar slot whose getter is
    ``methodcaller("_read", slot)``: the property, the method caller
    and the bound ``partial`` are C, so a scalar read costs exactly one
    Python frame, the context's ``read_slot``.  Writes, arrays, method
    names and unknown names keep the base class's paths and errors.
    """
    cls = layout.proxy_class
    if cls is None:
        namespace = {"__slots__": ()}
        for name, slot in layout.scalar_slots.items():
            namespace[name] = property(methodcaller("_read", slot))
        cls = layout.proxy_class = type(
            "InstrumentedSelf", (InstrumentedSelf,), namespace
        )
    return cls
