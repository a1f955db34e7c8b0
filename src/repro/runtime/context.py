"""Transaction context: the ``ctx`` handed to every method body.

The context is the runtime half of the paper's automatic
synchronization story: the user never locks anything — attribute
access flows through :meth:`read_slot` / :meth:`write_slot` (via the
instrumented ``self``), sub-transactions are spawned by yielding
:meth:`invoke`, and everything else (locks, transfers, undo, dirty
tracking) happens underneath.

What depends only on *(this invocation's object, this family's node)*
is resolved once, by the first slot access (:meth:`TxnContext._bind`),
and then only dereferenced (DESIGN §14, "The invocation path").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

from repro.memory.layout import Slot
from repro.memory.undo import UndoRecord
from repro.objects.registry import ObjectHandle, ObjectMeta
from repro.objects.schema import MethodSpec
from repro.util.errors import ConfigurationError, ProtocolError, TransactionAborted


@dataclass(init=False)
class InvocationRequest:
    """A sub-transaction request produced by :meth:`TxnContext.invoke`.

    Method bodies *yield* these; the executor turns each into a child
    transaction and resumes the body with the child's result.  ``spec``
    is the invoked method's :class:`~repro.objects.schema.MethodSpec`,
    looked up once, here (its ``name`` is the method's name).
    """

    __slots__ = ("handle", "spec", "args")
    handle: ObjectHandle
    spec: MethodSpec
    args: Tuple

    def __init__(self, handle: ObjectHandle, spec: MethodSpec, args: Tuple):
        self.handle = handle
        self.spec = spec
        self.args = args


class TxnContext:
    """Runtime services scoped to one executing [sub-]transaction."""

    __slots__ = ("_runtime", "txn", "_meta", "_spec", "_merger",
                 "_increments", "actual_reads", "actual_writes",
                 "_copy", "_store", "_page_map", "_touched")

    def __init__(self, runtime, txn, meta: ObjectMeta, spec,
                 increments: frozenset = frozenset()):
        self._runtime = runtime
        self.txn = txn
        self._meta = meta
        self._spec = spec
        # Semantic lock modes (DESIGN §15): attributes this invocation
        # updates as blind increments are recorded in the runtime's
        # increment ledger as store-virtual deltas, not written through.
        self._merger = runtime.merger
        self._increments = increments
        self.actual_reads: Set[str] = set()
        self.actual_writes: Set[str] = set()
        self._copy = None  # set, with the other bound references, by _bind

    # -- user-facing API ----------------------------------------------------

    @property
    def txn_id(self):
        return self.txn.id

    @property
    def node(self):
        return self.txn.node

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._runtime.env.now

    def invoke(self, handle: ObjectHandle, method_name: str,
               *args) -> InvocationRequest:
        """Request a sub-transaction; must be *yielded* by the method.

        Only generator methods can suspend, so only they may invoke:
        declare the method with a ``yield`` (``result = yield
        ctx.invoke(obj, "m", ...)``).
        """
        if not self._spec.is_generator:
            raise ConfigurationError(
                f"method on {self._meta.object_id!r} is not a generator; "
                f"only generator methods (containing 'yield') may invoke "
                f"sub-transactions"
            )
        if not isinstance(handle, ObjectHandle):
            raise TypeError(
                f"invoke() needs an ObjectHandle, got {type(handle).__name__}"
            )
        return InvocationRequest(  # a misspelt name fails here
            handle=handle, spec=handle.meta.schema.method_spec(method_name),
            args=tuple(args))

    def abort(self, reason: str = "user") -> None:
        """Abort the current transaction (undone and, for a
        sub-transaction, reported to the parent as an exception it may
        catch to retry — §3.2's re-execution allowance)."""
        raise TransactionAborted(self.txn.id, reason)

    # -- slot access (called by the instrumented proxy) ------------------------

    def read_slot(self, meta: ObjectMeta, slot: Slot):
        if meta is not self._meta:
            self._check_same_object(meta)
        pages = (meta.layout.pages_by_slot.get(slot)
                 or meta.layout.slot_pages(*slot))  # raises: unknown slot
        copy = self._copy or self._bind()
        if slot[0] in self._increments:
            # Commuting co-holders commit version bumps on increment
            # pages mid-hold; the local bytes are irrelevant to delta
            # arithmetic, so don't chase them (exhaustive-transfer
            # protocols would reject the mid-hold staleness outright).
            self._materialize(pages)
        else:
            versions, page_map = copy.page_versions, self._page_map
            for page in pages:  # the compare inline: a call only if stale
                if versions.get(page, 0) < page_map[page].version:
                    self._ensure_current(pages, is_write=False)
                    break
        self.actual_reads.add(slot[0])
        self._touched.update(pages)
        try:
            value = copy.slots[slot]
        except KeyError:  # the store's accessor owns the error
            value = self._store.read_slot(meta.object_id, slot)
        if self._merger is not None:
            # Family-visible value = store + the family's own live
            # deltas (tracked increments never reach the store).
            adjust = self._merger.family_adjustment(
                self.txn, meta.object_id, slot
            )
            if adjust:
                value = value + adjust
        return value

    def write_slot(self, meta: ObjectMeta, slot: Slot, value) -> None:
        if meta is not self._meta:
            self._check_same_object(meta)
        if slot[0] not in self._spec.access.writes:
            self._check_write_allowed(slot[0])
        pages = (meta.layout.pages_by_slot.get(slot)
                 or meta.layout.slot_pages(*slot))  # raises: unknown slot
        copy = self._copy or self._bind()
        if slot[0] not in self._increments:
            versions, page_map = copy.page_versions, self._page_map
            for page in pages:
                if versions.get(page, 0) < page_map[page].version:
                    self._ensure_current(pages, is_write=True)
                    break
        if self._merger is not None:
            if slot[0] in self._increments:
                # Blind increment under a semantic mode: record the
                # delta, leave the store's committed bytes alone (no
                # undo frame — abort just drops the delta), but keep
                # the dirty/touch bookkeeping so commit publishes the
                # slot's pages from this node.  Staleness is not
                # chased (see read_slot); only residency matters.
                self._materialize(pages)
                old = self._store.read_slot(meta.object_id, slot)
                adjust = self._merger.family_adjustment(
                    self.txn, meta.object_id, slot
                )
                self._merger.record(self.txn, meta.object_id, slot,
                                    value - old - adjust)
                self.txn.record_dirty(meta.object_id, pages)
                self.actual_writes.add(slot[0])
                self._touched.update(pages)
                return
            adjust = self._merger.plain_write_adjustment(
                self.txn, meta.object_id, slot
            )
            if adjust:
                # Keep the store satisfying family-visible = store +
                # family deltas around a plain overwrite.
                value = value - adjust
        txn, slots = self.txn, copy.slots
        txn.undo.append(UndoRecord(  # the pre-write state, in place
            (meta.object_id, slot, slot in slots, slots.get(slot))))
        slots[slot] = value
        txn.dirty.setdefault(meta.object_id, set()).update(pages)
        self.actual_writes.add(slot[0])
        self._touched.update(pages)

    # -- internals ----------------------------------------------------------------

    def _bind(self):
        """Resolve what this invocation's slot accesses dereference.

        Lazy: an invocation touching no slot needs no cached copy and
        gains no ``touch_pages`` entry.  Bound are references to *live
        structures*, never values — a demand fetch, a co-holder's commit
        or WAL replay changes versions mid-invocation, so both sides are
        re-read on every access.  Each is assigned exactly once: a
        store's copy and the directory's entry per object (the entry is
        bound on the object's metadata), the entry's ``page_map``
        (``move_home`` and failover mutate the entry in place; commits
        replace the map's immutable entries, never the map), the root's
        ``touch_pages[object_id]`` set.
        """
        meta = self._meta
        object_id = meta.object_id
        self._store = store = self._runtime.stores[self.txn.node]
        copy = store.copy_of(object_id)
        self._page_map = meta.entry.page_map
        self._touched = self.txn.root.touch_pages.setdefault(object_id, set())
        self._copy = copy
        return copy

    def _check_same_object(self, meta: ObjectMeta) -> None:
        if meta.object_id != self._meta.object_id:
            raise ProtocolError(
                f"transaction {self.txn.id!r} on {self._meta.object_id!r} "
                f"touched {meta.object_id!r} directly; other objects are "
                f"reached only via ctx.invoke()"
            )

    def _check_write_allowed(self, attr: str) -> None:
        """Writes must be covered by the method's predicted write set;
        called for a write to an attribute outside it.

        The conservative analysis guarantees this; an explicit
        ``writes=`` annotation that lied is tolerated only when the
        method still took a write lock (some other attribute was
        declared) — the miss is repaired and counted.  A write under a
        read lock would break serializability and is refused.
        """
        spec = self._spec
        if not spec.is_update:
            raise ProtocolError(
                f"method {spec.name!r} wrote attribute {attr!r} under a READ "
                f"lock: its writes= annotation declared no writes, which is "
                f"unsound"
            )

    def _materialize(self, pages) -> None:
        """Residency-only fetch for tracked increment slots: pull the
        object in on first touch at this node, but never refetch merely
        because a commuting co-holder's commit bumped the version."""
        versions = self._copy.page_versions
        if any(versions.get(page, 0) == 0 for page in pages):
            self._ensure_current(pages, is_write=True)

    def _ensure_current(self, pages, is_write: bool) -> None:
        versions, page_map = self._copy.page_versions, self._page_map
        stale = []
        for page in pages:  # a loop, not a comprehension: no extra frame
            if versions.get(page, 0) < page_map[page].version:
                stale.append(page)
        if not stale:
            return
        delay = self._runtime.protocol.for_meta(self._meta).on_stale_access(
            self.txn, self._meta, page_map, stale, is_write
        )
        self.txn.root.pending_delay += delay
