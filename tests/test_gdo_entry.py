"""Unit tests for the GDO directory entry: the O2PL rules of §4.1.

A tiny stub transaction type provides the id/node/ancestry interface
the entry needs, so every rule is exercised in isolation from the
runtime.
"""

import pytest

from repro.gdo.entry import (
    DirectoryEntry,
    GrantDecision,
    LockMode,
    LockState,
    PageMapEntry,
    Waiter,
)
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId, TxnId

N0, N1 = NodeId(0), NodeId(1)
R, W = LockMode.READ, LockMode.WRITE


class StubTxn:
    """Minimal transaction: id + node + ancestry."""

    _serial = iter(range(10_000))

    def __init__(self, node=N0, parent=None, root=None):
        serial = next(StubTxn._serial)
        if parent is not None:
            root = parent.id.root
        elif root is None:
            root = serial
        self.id = TxnId(serial=serial, root=root)
        self.node = node
        self.parent = parent

    def is_ancestor_of(self, other):
        probe = other.parent
        while probe is not None:
            if probe is self:
                return True
            probe = probe.parent
        return False

    def __repr__(self):
        return f"Stub{self.id!r}"


@pytest.fixture
def entry():
    return DirectoryEntry(ObjectId(0), home_node=N0, page_count=3,
                          creator_node=N0)


def family(node=N0):
    """A root with two children and one grandchild, all at one node."""
    root = StubTxn(node=node)
    child_a = StubTxn(node=node, parent=root)
    child_b = StubTxn(node=node, parent=root)
    grandchild = StubTxn(node=node, parent=child_a)
    return root, child_a, child_b, grandchild


class TestModes:
    def test_conflict_matrix(self):
        assert not R.conflicts_with(R)
        assert R.conflicts_with(W)
        assert W.conflicts_with(R)
        assert W.conflicts_with(W)


class TestBasicAcquisition:
    def test_free_lock_granted(self, entry):
        txn = StubTxn()
        assert entry.decide(txn, W) is GrantDecision.GRANTED
        entry.grant(txn, W)
        assert entry.lock_state is LockState.HELD_WRITE
        assert entry.holders[txn.id] is W

    def test_read_count_tracks_readers(self, entry):
        a, b = StubTxn(), StubTxn()
        entry.grant(a, R)
        entry.grant(b, R)
        assert entry.read_count == 2
        assert entry.lock_state is LockState.HELD_READ

    def test_cross_family_concurrent_readers(self, entry):
        a, b = StubTxn(), StubTxn()
        entry.grant(a, R)
        assert entry.decide(b, R) is GrantDecision.GRANTED

    def test_cross_family_writer_blocked_by_reader(self, entry):
        a, b = StubTxn(), StubTxn()
        entry.grant(a, R)
        assert entry.decide(b, W) is GrantDecision.WAIT_GLOBAL

    def test_cross_family_reader_blocked_by_writer(self, entry):
        a, b = StubTxn(), StubTxn()
        entry.grant(a, W)
        assert entry.decide(b, R) is GrantDecision.WAIT_GLOBAL

    def test_reentrant_read_under_write(self, entry):
        txn = StubTxn()
        entry.grant(txn, W)
        assert entry.decide(txn, R) is GrantDecision.GRANTED

    def test_upgrade_as_sole_holder(self, entry):
        txn = StubTxn()
        entry.grant(txn, R)
        assert entry.decide(txn, W) is GrantDecision.GRANTED
        entry.grant(txn, W)
        assert entry.holders[txn.id] is W

    def test_upgrade_blocked_by_other_reader(self, entry):
        a, b = StubTxn(), StubTxn()
        entry.grant(a, R)
        entry.grant(b, R)
        assert entry.decide(a, W) is GrantDecision.WAIT_GLOBAL

    def test_upgrade_blocked_by_foreign_retainer(self, entry):
        # Rule 1a applies to an upgrade: family B's root retains R
        # (its child read and pre-committed), so family A, the only
        # holder, may not upgrade to W past it.
        a = StubTxn()
        b_root = StubTxn(node=N1)
        b_child = StubTxn(node=N1, parent=b_root)
        entry.grant(a, R)
        assert entry.decide(b_child, R) is GrantDecision.GRANTED
        entry.grant(b_child, R)
        entry.release_to_parent(b_child, b_root)
        assert list(entry.holders) == [a.id]
        assert list(entry.retainers) == [b_root.id]
        assert entry.decide(a, W) is GrantDecision.WAIT_GLOBAL

    def test_grant_read_after_write_keeps_write(self, entry):
        txn = StubTxn()
        entry.grant(txn, W)
        entry.grant(txn, R)
        assert entry.holders[txn.id] is W


class TestRule1Retention:
    def test_retained_lock_granted_to_descendant(self, entry):
        root, child_a, child_b, _ = family()
        entry.grant(child_a, W)
        entry.release_to_parent(child_a, root)
        assert entry.lock_state is LockState.RETAINED
        assert entry.decide(child_b, W) is GrantDecision.GRANTED

    def test_retained_lock_blocked_for_other_family(self, entry):
        root, child_a, _, _ = family()
        entry.grant(child_a, R)
        entry.release_to_parent(child_a, root)
        stranger = StubTxn(node=N1)
        assert entry.decide(stranger, R) is GrantDecision.WAIT_GLOBAL

    def test_retainer_must_be_ancestor(self, entry):
        root, child_a, child_b, grandchild = family()
        entry.grant(grandchild, W)
        entry.release_to_parent(grandchild, child_a)
        # child_a retains; a new child of child_a is its descendant.
        # (child_b is not: TestIntraFamilyConflict.)
        descendant = StubTxn(parent=child_a)
        assert entry.decide(descendant, W) is GrantDecision.GRANTED

    def test_retention_strengthens_not_weakens(self, entry):
        root, child_a, child_b, _ = family()
        entry.grant(child_a, W)
        entry.release_to_parent(child_a, root)
        entry.grant(child_b, R)
        entry.release_to_parent(child_b, root)
        assert entry.retainers[root.id] is W

    def test_release_to_parent_moves_retentions_up(self, entry):
        root, child_a, _, grandchild = family()
        entry.grant(grandchild, W)
        entry.release_to_parent(grandchild, child_a)
        entry.release_to_parent(child_a, root)
        assert list(entry.retainers) == [root.id]

    def test_release_to_parent_without_lock_raises(self, entry):
        root, child_a, _, _ = family()
        with pytest.raises(ProtocolError):
            entry.release_to_parent(child_a, root)


class TestIntraFamilyConflict:
    """A request only its own family blocks has no wait list to join:
    families issue one request at a time, so it is a ProtocolError
    naming the transaction and the object (and decide leaves the entry
    as it was)."""

    @staticmethod
    def retainer_not_ancestor(entry):
        root, child_a, child_b, grandchild = family()
        entry.grant(grandchild, W)
        entry.release_to_parent(grandchild, child_a)
        return child_b, W

    @staticmethod
    def conflicting_family_holder(entry):
        root, child_a, child_b, _ = family()
        entry.grant(child_a, W)
        return child_b, R

    @staticmethod
    def upgrade_blocked_by_family(entry):
        root, child_a, child_b, _ = family()
        entry.grant(child_a, R)
        entry.grant(child_b, R)
        return child_a, W

    @pytest.mark.parametrize("shape", [
        "retainer_not_ancestor",
        "conflicting_family_holder",
        "upgrade_blocked_by_family",
    ])
    def test_raises_protocol_error(self, entry, shape):
        txn, mode = getattr(self, shape)(entry)
        before = (dict(entry.holders), dict(entry.retainers))
        with pytest.raises(ProtocolError, match="intra-family") as raised:
            entry.decide(txn, mode)
        assert repr(txn.id) in str(raised.value)
        assert repr(entry.object_id) in str(raised.value)
        assert (entry.holders, entry.retainers) == before


class TestRecursionPreclusion:
    def test_descendant_conflicting_with_ancestor_holder(self, entry):
        root, child_a, _, _ = family()
        entry.grant(root, W)
        assert entry.decide(child_a, W) is GrantDecision.RECURSIVE
        assert entry.decide(child_a, R) is GrantDecision.RECURSIVE

    def test_read_read_recursion_rejected(self, entry):
        root, child_a, _, _ = family()
        entry.grant(root, R)
        assert entry.decide(child_a, R) is GrantDecision.RECURSIVE

    def test_write_recursion_never_allowed(self, entry):
        root, child_a, _, _ = family()
        entry.grant(root, R)
        assert entry.decide(child_a, W) is GrantDecision.RECURSIVE


class TestAbortRelease:
    def test_abort_releases_unretained_lock(self, entry):
        txn = StubTxn()
        entry.grant(txn, W)
        assert entry.release_on_abort(txn) is True
        assert entry.is_free

    def test_abort_keeps_ancestor_retention(self, entry):
        root, child_a, child_b, _ = family()
        entry.grant(child_a, W)
        entry.release_to_parent(child_a, root)  # root retains
        entry.grant(child_b, W)                 # reacquired by sibling
        assert entry.release_on_abort(child_b) is False
        assert entry.retainers[root.id] is W

    def test_release_family_clears_everything(self, entry):
        root, child_a, _, _ = family()
        entry.grant(child_a, W)
        entry.release_to_parent(child_a, root)
        entry.grant(StubTxn(parent=root), R)
        entry.release_family(root.id.root)
        assert entry.is_free

    def test_release_family_spares_other_families(self, entry):
        a, b = StubTxn(), StubTxn()
        entry.grant(a, R)
        entry.grant(b, R)
        entry.release_family(a.id.root)
        assert b.id in entry.holders


class TestWaitingAndPump:
    def wake(self):
        class Wake:
            def __init__(self):
                self.fired = []

            def succeed(self, value=None):
                self.fired.append(("ok", value))

            def fail(self, exc):
                self.fired.append(("fail", exc))

            @property
            def triggered(self):
                return bool(self.fired)

        return Wake()

    def test_waiters_grouped_by_family(self, entry):
        # NonHoldersPtr: one waiter per family, in arrival order.
        holder = StubTxn()
        entry.grant(holder, W)
        family_a, family_b = StubTxn(node=N1), StubTxn()
        entry.enqueue_global(Waiter(family_a, W, self.wake()))
        entry.enqueue_global(Waiter(family_b, R, self.wake()))
        assert [w.txn for w in entry.waiting_families] == [family_a, family_b]

    def test_pump_admits_next_family_fifo(self, entry):
        holder = StubTxn()
        entry.grant(holder, W)
        first, second = StubTxn(node=N1), StubTxn(node=N1)
        entry.enqueue_global(Waiter(first, W, self.wake()))
        entry.enqueue_global(Waiter(second, W, self.wake()))
        entry.release_family(holder.id.root)
        woken = entry.pump()
        assert [w.txn for w in woken] == [first]
        assert entry.holders[first.id] is W
        # second still queued
        assert [w.txn for w in entry.waiting_families] == [second]

    def test_pump_admits_cross_family_reader_run(self, entry):
        holder = StubTxn()
        entry.grant(holder, W)
        readers = [StubTxn(node=N1) for _ in range(3)]
        writer = StubTxn(node=N1)
        for reader in readers:
            entry.enqueue_global(Waiter(reader, R, self.wake()))
        entry.enqueue_global(Waiter(writer, W, self.wake()))
        entry.release_family(holder.id.root)
        woken = entry.pump()
        assert {w.txn.id for w in woken} == {r.id for r in readers}
        assert entry.read_count == 3

    def test_remove_waiter(self, entry):
        holder = StubTxn()
        entry.grant(holder, W)
        victim = StubTxn(node=N1)
        entry.enqueue_global(Waiter(victim, W, self.wake()))
        assert entry.remove_waiter(victim.id) is True
        assert entry.remove_waiter(victim.id) is False
        assert not entry.waiting_families

    def test_remove_family_waiters(self, entry):
        holder = StubTxn()
        entry.grant(holder, W)
        a, b = StubTxn(node=N1), StubTxn(node=N1)
        entry.enqueue_global(Waiter(a, W, self.wake()))
        entry.enqueue_global(Waiter(b, W, self.wake()))
        dropped = entry.remove_family_waiters(a.id.root)
        assert [w.txn for w in dropped] == [a]
        assert entry.remove_family_waiters(a.id.root) == []
        assert [w.txn for w in entry.waiting_families] == [b]


class TestPageMap:
    def test_initial_ownership(self, entry):
        for page in range(3):
            assert entry.page_owner(page) == N0
            assert entry.latest_version(page) == 1

    def test_commit_bumps_dirty_versions(self, entry):
        entry.apply_commit(N1, dirty_pages=[0, 2], resident_versions={})
        assert entry.latest_version(0) == 2
        assert entry.page_owner(0) == N1
        assert entry.latest_version(1) == 1
        assert entry.page_owner(1) == N0

    def test_resident_claims_only_current_versions(self, entry):
        entry.apply_commit(N1, dirty_pages=[0], resident_versions={})
        # N0's copy of page 0 is now stale (version 1 < 2): no claim.
        entry.apply_commit(N0, dirty_pages=[], resident_versions={0: 1, 1: 1})
        assert entry.page_owner(0) == N1
        assert entry.page_owner(1) == N0

    def test_dirty_page_ignores_resident_entry(self, entry):
        entry.apply_commit(N1, dirty_pages=[1], resident_versions={1: 1})
        assert entry.latest_version(1) == 2
        assert entry.page_owner(1) == N1

    def test_snapshot_is_independent_copy(self, entry):
        snapshot = entry.page_map_snapshot()
        entry.apply_commit(N1, dirty_pages=[0], resident_versions={})
        assert snapshot[0].version == 1
        assert entry.latest_version(0) == 2

    def test_entries_are_immutable(self, entry):
        page_entry = entry.page_map[0]
        with pytest.raises(AttributeError):
            page_entry.owner = N1
        with pytest.raises(AttributeError):
            page_entry.version = 7
        assert page_entry == PageMapEntry(owner=N0, version=1)

    def test_commit_replaces_entries_it_changes(self, entry):
        before = dict(entry.page_map)
        entry.apply_commit(N1, dirty_pages=[0], resident_versions={1: 1})
        assert entry.page_map[0] is not before[0]
        assert entry.page_map[1] == PageMapEntry(N1, 1)
        assert entry.page_map[2] is before[2]  # untouched: still shared
        assert before[0] == PageMapEntry(N0, 1)

    def test_set_page_owner_keeps_the_version(self, entry):
        entry.apply_commit(N1, dirty_pages=[2], resident_versions={})
        snapshot = entry.page_map_snapshot()
        entry.set_page_owner(2, N0)
        assert entry.page_map[2] == PageMapEntry(N0, 2)
        assert snapshot[2] == PageMapEntry(N1, 2)

    def test_holder_entries_include_retainers(self, entry):
        root, child_a, _, _ = family()
        entry.grant(child_a, W)
        entry.release_to_parent(child_a, root)
        entry.grant(StubTxn(parent=root), R)
        pairs = entry.holder_entries()
        assert (root.id, N0) in pairs
        assert len(pairs) == 2
