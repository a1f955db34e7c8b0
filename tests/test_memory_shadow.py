"""Unit tests for shadow-page recovery (§4.1's alternative to undo)."""

import pytest

from repro.memory.layout import AttributeSpec, ObjectLayout
from repro.memory.shadow import ShadowLog
from repro.memory.store import NodeStore
from repro.util.ids import NodeId, ObjectId

OID = ObjectId(0)


@pytest.fixture
def store():
    layout = ObjectLayout(
        [AttributeSpec("x", 60), AttributeSpec("y", 60),
         AttributeSpec("z", 60)],
        page_size=100,  # x on p0; y on p0-1; z on p1
    )
    node_store = NodeStore(NodeId(0))
    node_store.create_object(OID, layout,
                             values={("x", 0): 1, ("y", 0): 2, ("z", 0): 3})
    return node_store


def write(store, log, slot, value):
    layout = store.layout_of(OID)
    pages = layout.slot_pages(*slot)
    log.before_write(store, OID, slot, pages)
    store.write_slot(OID, slot, value)


class TestShadowLog:
    def test_restores_all_writes(self, store):
        log = ShadowLog()
        write(store, log, ("x", 0), 100)
        write(store, log, ("z", 0), 300)
        assert log.apply(store) == 2  # x shadowed page 0, z shadowed page 1
        assert store.read_slot(OID, ("x", 0)) == 1
        assert store.read_slot(OID, ("z", 0)) == 3

    def test_one_snapshot_per_page(self, store):
        log = ShadowLog()
        write(store, log, ("x", 0), 10)
        write(store, log, ("x", 0), 20)
        write(store, log, ("x", 0), 30)
        # x occupies one page; y shares it -> one shadow, page 0.
        assert log.pages_shadowed == 1
        log.apply(store)
        assert store.read_slot(OID, ("x", 0)) == 1

    def test_snapshot_taken_before_first_write_only(self, store):
        log = ShadowLog()
        write(store, log, ("x", 0), 10)
        # A later write to y touches pages 0 and 1; page 0 already
        # shadowed with the ORIGINAL x -> restore yields originals.
        write(store, log, ("y", 0), 20)
        log.apply(store)
        assert store.read_slot(OID, ("x", 0)) == 1
        assert store.read_slot(OID, ("y", 0)) == 2

    def test_page_restore_covers_colocated_slots(self, store):
        """Restoring a shadowed page must put back *every* slot on it,
        including ones written after the snapshot without their own
        before_write (same page, so already covered)."""
        log = ShadowLog()
        write(store, log, ("x", 0), 10)   # shadows page 0 (holds x and y-head)
        store.write_slot(OID, ("y", 0), 777)  # unannounced co-located write
        log.apply(store)
        assert store.read_slot(OID, ("y", 0)) == 2

    def test_merge_child_prefers_parent_snapshot(self, store):
        parent, child = ShadowLog(), ShadowLog()
        write(store, parent, ("x", 0), 10)   # parent snapshot: x=1
        write(store, child, ("x", 0), 20)    # child snapshot: x=10
        parent.merge_child(child)
        assert len(child) == 0
        parent.apply(store)
        assert store.read_slot(OID, ("x", 0)) == 1

    def test_merge_child_adopts_new_pages(self, store):
        parent, child = ShadowLog(), ShadowLog()
        write(store, parent, ("x", 0), 10)
        write(store, child, ("z", 0), 30)
        parent.merge_child(child)
        parent.apply(store)
        assert store.read_slot(OID, ("x", 0)) == 1
        assert store.read_slot(OID, ("z", 0)) == 3

    def test_restores_slot_absence(self, store):
        layout = store.layout_of(OID)
        remote = NodeStore(NodeId(1))
        remote.register_object(OID, layout)
        # Only page 0 is present remotely; slot z absent.
        store.ship_pages(OID, [0], remote)
        log = ShadowLog()
        pages = layout.slot_pages("z", 0)
        log.before_write(remote, OID, ("z", 0), pages)
        remote.write_slot(OID, ("z", 0), 99)
        log.apply(remote)
        present, _ = remote.peek_slot(OID, ("z", 0))
        assert not present

    def test_touched_objects(self, store):
        log = ShadowLog()
        write(store, log, ("x", 0), 10)
        assert log.touched_objects() == (OID,)
