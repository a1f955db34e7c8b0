"""Integration tests for the lock manager's local/global split and
message accounting (Algorithms 4.1-4.4 over the simulated network)."""

import pytest

from repro.gdo.entry import LockMode
from repro.net.message import MessageCategory
from repro.txn.transaction import Transaction
from repro.util.errors import ProtocolError
from repro.util.ids import TxnId

from conftest import Counter, Ledger, Orchestrator, make_cluster


class TestLocalGlobalSplit:
    def test_family_reacquisition_is_local(self, cluster):
        counters = [cluster.create(Counter) for _ in range(2)]
        boss = cluster.create(Orchestrator)
        cluster.call(boss, "fanout", counters, 1)
        # fanout invokes add+get per counter: the second invocation on
        # each counter finds the lock retained by the family -> local.
        assert cluster.lock_stats.local_acquisitions >= 2
        # boss + first touch of each counter are global.
        assert cluster.lock_stats.global_acquisitions >= 3

    def test_local_ops_send_no_messages(self):
        cluster = make_cluster(nodes=1, protocol="lotec")
        counter = cluster.create(Counter)
        boss = cluster.create(Orchestrator)
        cluster.call(boss, "fanout", [counter], 1)
        # Single node: every message is local, so nothing is charged.
        assert cluster.network_stats.total_messages == 0

    def test_cache_disabled_forces_global(self):
        enabled = make_cluster(gdo_cache_enabled=True, seed=2)
        disabled = make_cluster(gdo_cache_enabled=False, seed=2)
        for c in (enabled, disabled):
            counters = [c.create(Counter) for _ in range(2)]
            boss = c.create(Orchestrator)
            c.call(boss, "fanout", counters, 1)
        assert disabled.lock_stats.local_acquisitions == 0
        assert enabled.lock_stats.local_acquisitions > 0
        assert disabled.lock_stats.global_acquisitions > \
            enabled.lock_stats.global_acquisitions

    def test_lock_messages_charged_per_global_acquisition(self, cluster):
        counter = cluster.create(Counter, node=cluster.nodes[0])
        # Home node of O0 is node 0; run a root at a different node so
        # request+grant cross the wire.
        cluster.call(counter, "add", 1, node=cluster.nodes[1])
        stats = cluster.network_stats
        assert stats.category_messages(MessageCategory.LOCK_REQUEST) == 1
        assert stats.category_messages(MessageCategory.LOCK_GRANT) == 1
        assert stats.category_messages(MessageCategory.LOCK_RELEASE) == 1

    def test_home_node_colocation_is_free(self, cluster):
        counter = cluster.create(Counter, node=cluster.nodes[0])
        # O0's GDO home is node 0: a root at node 0 sends local messages
        # only (charged nothing), even though the op is "global".
        cluster.call(counter, "add", 1, node=cluster.nodes[0])
        assert cluster.network_stats.total_messages == 0
        assert cluster.lock_stats.global_acquisitions == 1


class TestWaitingAndHandoffs:
    def test_writer_queues_behind_writer(self, cluster):
        counter = cluster.create(Counter)
        for node in cluster.nodes:
            cluster.submit(counter, "add", 1, node=node)
        cluster.run()
        assert cluster.read_attr(counter, "value") == 4
        assert cluster.lock_stats.waits > 0

    def test_grant_message_carries_holder_list_and_page_map(self, cluster):
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        t1 = cluster.submit(ledger, "bump_alpha", 1, node=cluster.nodes[1])
        t2 = cluster.submit(ledger, "bump_alpha", 1, node=cluster.nodes[2])
        cluster.run()
        t1.result(), t2.result()
        sizes = cluster.sizes
        stats = cluster.network_stats
        grant_bytes = stats.category_bytes(MessageCategory.LOCK_GRANT)
        grants = stats.category_messages(MessageCategory.LOCK_GRANT)
        # Every grant includes at least the 4-page page map.
        assert grant_bytes >= grants * sizes.lock_grant(
            holder_entries=1, page_map_entries=4
        )

    def test_release_piggybacks_dirty_info(self, cluster):
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[1])
        sizes = cluster.sizes
        stats = cluster.network_stats
        release_bytes = stats.category_bytes(MessageCategory.LOCK_RELEASE)
        # bump_alpha dirties one page: release = header + 1 entry.
        assert release_bytes == sizes.lock_release(1)

    def test_concurrent_readers_share_across_sites(self, cluster):
        counter = cluster.create(Counter)
        cluster.call(counter, "add", 1)
        tickets = [
            cluster.submit(counter, "get", node=node)
            for node in cluster.nodes
        ]
        cluster.run()
        assert all(t.result() == 1 for t in tickets)
        assert cluster.lock_stats.deadlocks == 0

    def test_fifo_between_families(self, cluster):
        """Queued writer families are admitted in arrival order."""
        counter = cluster.create(Counter)
        order = []

        tickets = [
            cluster.submit(counter, "add", index, node=cluster.nodes[index % 4],
                           label=f"w{index}")
            for index in range(4)
        ]
        cluster.run()
        for ticket in tickets:
            ticket.result()
        # Commit log order reflects grant order.
        methods = [record.label for record in cluster.commit_log]
        assert methods == sorted(methods, key=lambda lbl: int(lbl[1:]))

    def test_second_block_of_a_family_leaves_the_queue_unchanged(self,
                                                                  cluster):
        """A family blocks at most once at a time: the second block
        raises before it queues a waiter or a wake on the entry."""
        counter = cluster.create(Counter)
        entry = cluster.directory.entry(counter.meta.object_id)
        node = cluster.nodes[1]
        holder = Transaction(TxnId(1, 1), node)
        entry.grant(holder, LockMode.WRITE)
        blocked = Transaction(TxnId(2, 2), node)
        first = cluster.lockmgr._wait(entry, blocked, LockMode.WRITE)
        next(first)  # queued; suspended on its wake
        waits = cluster.lock_stats.waits
        sibling = Transaction(TxnId(3, 2), node, parent=blocked)
        second = cluster.lockmgr._wait(entry, sibling, LockMode.WRITE)
        with pytest.raises(ProtocolError, match="blocked twice"):
            next(second)
        assert [waiter.txn for waiter in entry.waiting_families] == [blocked]
        assert cluster.lock_stats.waits == waits
        first.close()
