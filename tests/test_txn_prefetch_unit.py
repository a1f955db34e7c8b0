"""Unit tests for the optimistic pre-acquisition path in the lock
manager and the supporting entry demotion."""

import pytest

from repro.gdo.entry import LockMode, LockState
from repro.util.errors import ProtocolError

from conftest import Counter, make_cluster


def test_demote_entry_level():
    from repro.gdo.entry import DirectoryEntry
    from repro.util.ids import NodeId, ObjectId, TxnId

    class Stub:
        def __init__(self, serial):
            self.id = TxnId(serial=serial, root=serial)
            self.node = NodeId(0)
            self.parent = None

        def is_ancestor_of(self, other):
            return False

    entry = DirectoryEntry(ObjectId(0), home_node=NodeId(0), page_count=1,
                           creator_node=NodeId(0))
    txn = Stub(1)
    entry.grant(txn, LockMode.WRITE)
    entry.demote_to_retained(txn)
    assert not entry.holders
    assert entry.retainers[txn.id] is LockMode.WRITE
    assert entry.lock_state is LockState.RETAINED
    # Re-acquisition by the retaining transaction itself is allowed.
    from repro.gdo.entry import GrantDecision

    assert entry.decide(txn, LockMode.WRITE) is GrantDecision.GRANTED
    with pytest.raises(ProtocolError):
        entry.demote_to_retained(Stub(2))


class TestTryPrefetch:
    def setup_method(self):
        self.cluster = make_cluster(protocol="lotec", seed=1)
        self.counter = self.cluster.create(Counter,
                                           node=self.cluster.nodes[0])

    def _prefetch(self, node):
        from repro.txn.transaction import Transaction

        txn = Transaction(self.cluster.alloc.next_root_txn(), node)
        result = {}

        def proc():
            snapshot = yield from self.cluster.lockmgr.acquire(
                txn, self.counter.meta.entry, LockMode.WRITE, prefetch=True
            )
            result["snapshot"] = snapshot

        self.cluster.env.run_process(proc())
        return txn, result["snapshot"]

    def test_free_lock_prefetched_and_retained(self):
        txn, snapshot = self._prefetch(self.cluster.nodes[1])
        entry = self.cluster.directory.entry(self.counter.object_id)
        assert snapshot is not None
        assert txn.id in entry.retainers
        assert not entry.holders
        assert self.counter.object_id in txn.lock_objects
        assert self.cluster.lock_stats.prefetch_granted == 1

    def test_busy_lock_not_prefetched(self):
        first_txn, _ = self._prefetch(self.cluster.nodes[1])
        second_txn, snapshot = self._prefetch(self.cluster.nodes[2])
        assert snapshot is None
        assert second_txn.id not in self.cluster.directory.entry(
            self.counter.object_id
        ).retainers
        assert self.counter.object_id not in second_txn.lock_objects
        assert self.cluster.lock_stats.prefetch_denied == 1

    def test_prefetch_charges_messages(self):
        before = self.cluster.network_stats.total_messages
        self._prefetch(self.cluster.nodes[1])
        after = self.cluster.network_stats.total_messages
        assert after - before == 2  # request + grant

    def test_denied_prefetch_charges_nack(self):
        self._prefetch(self.cluster.nodes[1])
        before = self.cluster.network_stats.total_messages
        self._prefetch(self.cluster.nodes[2])
        after = self.cluster.network_stats.total_messages
        assert after - before == 2  # request + control NACK

    def test_prefetch_already_owned_is_noop(self):
        txn, _ = self._prefetch(self.cluster.nodes[1])
        result = {}

        def proc():
            result["again"] = yield from self.cluster.lockmgr.acquire(
                txn, self.counter.meta.entry, LockMode.WRITE, prefetch=True
            )

        self.cluster.env.run_process(proc())
        assert result["again"] is None
        assert self.cluster.lock_stats.prefetch_granted == 1
