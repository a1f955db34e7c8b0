"""Unit tests for per-node stores, page shipment, and undo logs."""

import random

import pytest

from repro.memory.layout import AttributeSpec, ObjectLayout
from repro.memory.store import NodeStore
from repro.memory.undo import UndoLog
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId

N0, N1 = NodeId(0), NodeId(1)
OID = ObjectId(0)


@pytest.fixture
def layout():
    return ObjectLayout(
        [AttributeSpec("x", 60), AttributeSpec("y", 60),
         AttributeSpec("arr", 30, count=4)],
        page_size=100,
    )


@pytest.fixture
def store(layout):
    node_store = NodeStore(N0)
    node_store.create_object(OID, layout, values={("x", 0): 5})
    return node_store


class TestCreation:
    def test_create_sets_defaults_and_overrides(self, store):
        assert store.read_slot(OID, ("x", 0)) == 5
        assert store.read_slot(OID, ("y", 0)) == 0
        assert store.read_slot(OID, ("arr", 3)) == 0

    def test_create_marks_all_pages_version_one(self, store, layout):
        for page in range(layout.page_count):
            assert store.page_version(OID, page) == 1

    def test_double_create_rejected(self, store, layout):
        with pytest.raises(ProtocolError):
            store.create_object(OID, layout)

    def test_register_is_idempotent_and_empty(self, layout):
        store = NodeStore(N1)
        store.register_object(OID, layout)
        store.register_object(OID, layout)
        assert store.has_object(OID)
        assert store.resident_pages(OID) == {}
        assert store.page_version(OID, 0) == 0

    def test_unknown_object_raises(self):
        store = NodeStore(N1)
        with pytest.raises(ProtocolError):
            store.read_slot(OID, ("x", 0))
        with pytest.raises(ProtocolError):
            store.resident_pages(OID)


class TestShipment:
    def test_extract_and_install_round_trip(self, store, layout):
        remote = NodeStore(N1)
        remote.register_object(OID, layout)
        assert store.ship_pages(OID, [1, 0], remote) == {0: 1, 1: 1}
        assert remote.read_slot(OID, ("x", 0)) == 5
        assert remote.page_version(OID, 0) == 1
        # Page 2 (tail of arr) was not shipped.
        assert remote.page_version(OID, 2) == 0

    def test_extract_includes_partial_slots(self, store, layout):
        # y spans pages 0-1 (offset 60..120); shipping page 1 alone
        # must still carry y's whole value.
        remote = NodeStore(N1)
        remote.register_object(OID, layout)
        store.write_slot(OID, ("y", 0), 8)
        store.ship_pages(OID, [1], remote)
        assert remote.read_slot(OID, ("y", 0)) == 8

    def test_extract_uncached_page_rejected(self, layout):
        empty, remote = NodeStore(N1), NodeStore(N0)
        empty.register_object(OID, layout)
        remote.register_object(OID, layout)
        with pytest.raises(ProtocolError):
            empty.ship_pages(OID, [0], remote)
        with pytest.raises(ProtocolError):
            empty.versions_to_ship(OID, [0])

    def test_stale_install_ignored(self, store, layout):
        remote = NodeStore(N1)
        remote.register_object(OID, layout)
        store.ship_pages(OID, [0], remote)
        remote.write_slot(OID, ("x", 0), 42)
        remote.set_page_version(OID, 0, 7)
        store.ship_pages(OID, [0], remote)  # version 1 < 7: must not clobber
        assert remote.read_slot(OID, ("x", 0)) == 42
        assert remote.page_version(OID, 0) == 7

    def test_equal_version_reinstall_ignored(self, store, layout):
        remote = NodeStore(N1)
        remote.register_object(OID, layout)
        store.ship_pages(OID, [0], remote)
        # An equal-version copy is identical by definition — and the
        # local copy may carry uncommitted writes: must not clobber.
        remote.write_slot(OID, ("x", 0), 777)
        store.ship_pages(OID, [0], remote)
        assert remote.page_version(OID, 0) == 1
        assert remote.read_slot(OID, ("x", 0)) == 777


def reference_ship(source, target, pages):
    """Page shipment written out plainly over the layout's
    ``slots_on_page``: page order, newer-only, every held slot of the
    page."""
    src, dst = source.copy_of(OID), target.copy_of(OID)
    versions = {}
    for page in sorted(set(pages)):
        version = versions[page] = src.page_versions[page]
        if version > dst.page_versions.get(page, 0):
            dst.page_versions[page] = version
            for slot in src.layout.slots_on_page(page):
                if slot in src.slots:
                    dst.slots[slot] = src.slots[slot]
    return versions


class TestShipPages:
    """``ship_pages`` against a plain reference: same slots, same
    versions, same dict order, same refusals."""

    @staticmethod
    def _pair(layout):
        source, target = NodeStore(N0), NodeStore(N1)
        source.create_object(OID, layout)
        target.register_object(OID, layout)
        return source, target

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, layout, seed):
        rng = random.Random(seed)
        reference, shipped = self._pair(layout), self._pair(layout)
        slots = list(layout.pages_by_slot)
        for step in range(40):
            slot = rng.choice(slots)
            page = rng.randrange(layout.page_count)
            version = rng.randrange(1, 6)
            local_version = rng.randrange(1, 6) if rng.random() < 0.3 else 0
            for source, target in (reference, shipped):
                # The same mutations on both sides: source writes, and
                # target-local writes that a newer page must overwrite
                # and an older or equal one must not.
                source.write_slot(OID, slot, ("src", step))
                source.set_page_version(OID, page, version)
                if local_version:
                    target.write_slot(OID, slot, ("dst", step))
                    target.set_page_version(OID, page, local_version)
            pages = rng.sample(range(layout.page_count),
                               rng.randint(1, layout.page_count))
            expected = reference_ship(*reference, pages)
            versions = shipped[0].ship_pages(OID, pages, shipped[1])
            assert list(versions.items()) == list(expected.items())
            assert list(shipped[1].copy_of(OID).slots.items()) == \
                list(reference[1].copy_of(OID).slots.items())
            assert shipped[1].resident_pages(OID) == \
                reference[1].resident_pages(OID)

    def test_uncached_page_rejected_before_anything_lands(self, layout):
        source, target = self._pair(layout)
        source.register_object(ObjectId(1), layout)
        target.register_object(ObjectId(1), layout)
        source.copy_of(ObjectId(1)).page_versions[0] = 3
        with pytest.raises(ProtocolError):
            source.ship_pages(ObjectId(1), [0, 1], target)
        assert target.resident_pages(ObjectId(1)) == {}


class TestWriteAndUndo:
    def test_write_returns_prior_state(self, store):
        had, old = store.write_slot(OID, ("x", 0), 9)
        assert had and old == 5

    def test_restore_slot(self, store):
        had, old = store.write_slot(OID, ("x", 0), 9)
        store.restore_slot(OID, ("x", 0), had, old)
        assert store.read_slot(OID, ("x", 0)) == 5

    def test_restore_missing_slot_removes_it(self, layout):
        store = NodeStore(N1)
        store.register_object(OID, layout)
        had, old = store.write_slot(OID, ("x", 0), 1)
        assert not had
        store.restore_slot(OID, ("x", 0), had, old)
        with pytest.raises(ProtocolError):
            store.read_slot(OID, ("x", 0))

    def test_undo_log_reverses_in_order(self, store):
        log = UndoLog()
        for value in (10, 20, 30):
            had, old = store.write_slot(OID, ("x", 0), value)
            log.record_write(OID, ("x", 0), had, old)
        assert store.read_slot(OID, ("x", 0)) == 30
        assert log.apply(store) == 3
        assert store.read_slot(OID, ("x", 0)) == 5
        assert len(log) == 0

    def test_undo_merge_child_order(self, store):
        parent, child = UndoLog(), UndoLog()
        had, old = store.write_slot(OID, ("x", 0), 100)   # parent write
        parent.record_write(OID, ("x", 0), had, old)
        had, old = store.write_slot(OID, ("x", 0), 200)   # child write
        child.record_write(OID, ("x", 0), had, old)
        parent.merge_child(child)
        assert len(child) == 0
        parent.apply(store)
        assert store.read_slot(OID, ("x", 0)) == 5

    def test_touched_objects(self, store):
        log = UndoLog()
        other = ObjectId(9)
        log.record_write(OID, ("x", 0), True, 1)
        log.record_write(other, ("x", 0), True, 1)
        log.record_write(OID, ("y", 0), True, 1)
        assert log.touched_objects() == (OID, other)

    def test_snapshot_is_a_copy(self, store):
        snap = store.snapshot_object(OID)
        snap[("x", 0)] = 999
        assert store.read_slot(OID, ("x", 0)) == 5


class TestStoreMiscSurface:
    def test_cached_objects_listing(self, store, layout):
        other = ObjectId(5)
        store.register_object(other, layout)
        assert set(store.cached_objects()) == {OID, other}

    def test_layout_lookup(self, store, layout):
        assert store.layout_of(OID) is layout

    def test_peek_slot_states(self, store, layout):
        assert store.peek_slot(OID, ("x", 0)) == (True, 5)
        remote = NodeStore(N1)
        remote.register_object(OID, layout)
        assert remote.peek_slot(OID, ("x", 0)) == (False, None)

    def test_undo_before_write_captures_state(self, store):
        log = UndoLog()
        log.before_write(store, OID, ("x", 0), pages=[0])
        store.write_slot(OID, ("x", 0), 99)
        log.apply(store)
        assert store.read_slot(OID, ("x", 0)) == 5
