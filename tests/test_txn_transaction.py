"""Unit tests for the nested transaction tree (§3 semantics)."""

import pytest

from repro.gdo.entry import DirectoryEntry
from repro.memory.undo import UndoRecord
from repro.txn.transaction import Transaction, TxnState, TxnStats
from repro.util.errors import ProtocolError
from repro.util.ids import IdAllocator, NodeId, ObjectId

N0, N1 = NodeId(0), NodeId(1)


@pytest.fixture
def alloc():
    return IdAllocator()


def make_family(alloc, node=N0):
    root = Transaction(alloc.next_root_txn(), node)
    child = Transaction(alloc.next_sub_txn(root.id), node, parent=root)
    grandchild = Transaction(alloc.next_sub_txn(child.id), node, parent=child)
    return root, child, grandchild


class TestTree:
    def test_root_identity(self, alloc):
        root, child, grandchild = make_family(alloc)
        assert root.is_root and not child.is_root
        assert child.root is root
        assert grandchild.root is root
        assert grandchild.depth == 2

    def test_family_membership_via_ids(self, alloc):
        root, child, _ = make_family(alloc)
        other = Transaction(alloc.next_root_txn(), N0)
        assert child.id.same_family(root.id)
        assert not other.id.same_family(root.id)

    def test_ancestry(self, alloc):
        root, child, grandchild = make_family(alloc)
        assert root.is_ancestor_of(grandchild)
        assert child.is_ancestor_of(grandchild)
        assert not grandchild.is_ancestor_of(root)
        assert not root.is_ancestor_of(root)  # proper ancestry

    def test_ancestors_chain(self, alloc):
        root, child, grandchild = make_family(alloc)
        assert grandchild.ancestors() == [child, root]

    def test_children_registered(self, alloc):
        root, child, grandchild = make_family(alloc)
        assert root.children == [child]
        assert child.children == [grandchild]

    def test_family_single_site_enforced(self, alloc):
        root = Transaction(alloc.next_root_txn(), N0)
        with pytest.raises(ProtocolError, match="single site"):
            Transaction(alloc.next_sub_txn(root.id), N1, parent=root)


class TestPrecommit:
    def test_precommit_inherits_everything(self, alloc):
        root, child, _ = make_family(alloc)
        oid = ObjectId(3)
        child.record_dirty(oid, {0, 2})
        entry = child.lock_objects[oid] = DirectoryEntry(oid, N0, 3, N0)
        child.undo.append(UndoRecord((oid, ("x", 0), True, 1)))
        # grandchild must finish first
        child.children[0].state = TxnState.PRECOMMITTED
        child.precommit()
        assert child.state is TxnState.PRECOMMITTED
        assert root.dirty == {oid: {0, 2}}
        assert root.lock_objects[oid] is entry  # the entry rides along
        assert len(root.undo) == 1
        assert child.dirty == {}

    def test_precommit_requires_finished_children(self, alloc):
        _, child, _ = make_family(alloc)
        with pytest.raises(ProtocolError, match="child"):
            child.precommit()

    def test_precommit_of_root_rejected(self, alloc):
        root, _, _ = make_family(alloc)
        with pytest.raises(ProtocolError, match="roots commit"):
            root.precommit()

    def test_double_precommit_rejected(self, alloc):
        root = Transaction(alloc.next_root_txn(), N0)
        child = Transaction(alloc.next_sub_txn(root.id), N0, parent=root)
        child.precommit()
        with pytest.raises(ProtocolError):
            child.precommit()

    def test_aborted_child_allows_parent_precommit(self, alloc):
        root, child, grandchild = make_family(alloc)
        grandchild.mark_aborted()
        child.precommit()
        assert child.state is TxnState.PRECOMMITTED


class TestCommitAbort:
    def test_root_commit(self, alloc):
        root = Transaction(alloc.next_root_txn(), N0)
        root.mark_committed()
        assert root.state is TxnState.COMMITTED

    def test_sub_cannot_commit(self, alloc):
        _, child, _ = make_family(alloc)
        with pytest.raises(ProtocolError):
            child.mark_committed()

    def test_double_commit_rejected(self, alloc):
        root = Transaction(alloc.next_root_txn(), N0)
        root.mark_committed()
        with pytest.raises(ProtocolError):
            root.mark_committed()


class TestStats:
    def test_snapshot_fields(self):
        stats = TxnStats()
        stats.commits = 3
        stats.root_latencies.extend([1.0, 3.0])
        snap = stats.snapshot()
        assert snap["commits"] == 3
        assert snap["mean_latency"] == pytest.approx(2.0)

    def test_mean_latency_zero_safe(self):
        assert TxnStats().mean_latency == 0.0
