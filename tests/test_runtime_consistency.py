"""Integration tests: data actually moves correctly between nodes
under every consistency protocol."""

import pytest

from repro import ProtocolError, check_serializability
from repro.gdo.entry import PageMapEntry
from repro.net.message import MessageCategory

from conftest import Counter, Ledger, make_cluster


class TestCrossNodeVisibility:
    def test_update_visible_from_every_node(self, any_protocol_cluster):
        cluster = any_protocol_cluster
        counter = cluster.create(Counter, node=cluster.nodes[0])
        cluster.call(counter, "add", 5, node=cluster.nodes[1])
        # Read from every other node in turn: each must see 5 + its adds.
        expected = 5
        for node in cluster.nodes:
            assert cluster.call(counter, "get", node=node) == expected
            expected = cluster.call(counter, "add", 1, node=node)
        assert cluster.read_attr(counter, "value") == 5 + len(cluster.nodes)

    def test_pingpong_increments_never_lost(self, any_protocol_cluster):
        cluster = any_protocol_cluster
        counter = cluster.create(Counter)
        for index in range(12):
            cluster.call(counter, "add", 1,
                         node=cluster.nodes[index % len(cluster.nodes)])
        assert cluster.read_attr(counter, "value") == 12

    def test_multi_page_attributes_move_independently(self, any_protocol_cluster):
        cluster = any_protocol_cluster
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        cluster.call(ledger, "bump_alpha", 3, node=cluster.nodes[1])
        cluster.call(ledger, "bump_beta", 4, node=cluster.nodes[2])
        cluster.call(ledger, "log_entry", 7, 11, node=cluster.nodes[3])
        assert cluster.call(ledger, "sum_all", node=cluster.nodes[0]) == 18
        state = cluster.read_object(ledger)
        assert state["alpha"] == 3 and state["beta"] == 4
        assert state["log"][7] == 11


class TestProtocolTrafficShape:
    def run_handoffs(self, protocol):
        cluster = make_cluster(protocol=protocol, seed=2)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        # Alternate single-attribute updates from two other nodes: each
        # handoff moves only what the protocol decides to move.
        for index in range(6):
            node = cluster.nodes[1 + index % 2]
            cluster.call(ledger, "bump_alpha", 1, node=node)
        return cluster

    def test_bytes_ordering_cotec_otec_lotec(self):
        data = {
            protocol: self.run_handoffs(protocol)
            .network_stats.consistency_bytes()
            for protocol in ("cotec", "otec", "lotec")
        }
        assert data["cotec"] >= data["otec"] >= data["lotec"]
        assert data["lotec"] < data["cotec"]

    def test_lotec_moves_only_predicted_pages(self):
        cluster = self.run_handoffs("lotec")
        sizes = cluster.sizes
        stats = cluster.network_stats
        page_messages = stats.category_messages(MessageCategory.PAGE_DATA)
        page_bytes = stats.category_bytes(MessageCategory.PAGE_DATA)
        # bump_alpha touches one page: every data message carries 1 page.
        assert page_bytes == page_messages * sizes.page_data(1)

    def test_cotec_ships_whole_object_every_handoff(self):
        cluster = self.run_handoffs("cotec")
        ledger_pages = 4  # 3x3000B + 16x500B on 4096B pages
        sizes = cluster.sizes
        stats = cluster.network_stats
        per_handoff = sizes.page_data(ledger_pages)
        assert stats.category_bytes(MessageCategory.PAGE_DATA) >= \
            5 * per_handoff  # 6 handoffs, first from creator node included

    def test_rc_pushes_updates_eagerly(self):
        cluster = make_cluster(protocol="rc", seed=2)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        # Warm caches at two other nodes.
        cluster.call(counter, "get", node=cluster.nodes[1])
        cluster.call(counter, "get", node=cluster.nodes[2])
        before = cluster.network_stats.category_messages(
            MessageCategory.UPDATE_PUSH
        )
        cluster.call(counter, "add", 1, node=cluster.nodes[1])
        after = cluster.network_stats.category_messages(
            MessageCategory.UPDATE_PUSH
        )
        # Pushed to the two other caching sites (creator + reader).
        assert after - before == 2

    def test_rc_readers_find_local_copy_current(self):
        cluster = make_cluster(protocol="rc", seed=2)
        counter = cluster.create(Counter, node=cluster.nodes[0])
        cluster.call(counter, "get", node=cluster.nodes[1])  # cold fetch
        cluster.call(counter, "add", 1, node=cluster.nodes[0])
        before = cluster.network_stats.category_messages(
            MessageCategory.PAGE_DATA
        )
        assert cluster.call(counter, "get", node=cluster.nodes[1]) == 1
        after = cluster.network_stats.category_messages(
            MessageCategory.PAGE_DATA
        )
        assert after == before  # push already made the copy current


class TestDemandFetch:
    def test_unpredicted_read_demand_fetched_under_lotec(self):
        cluster = make_cluster(protocol="lotec", seed=4)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        # Dirty gamma's page remotely so node 2's copy of it is stale.
        cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[2])
        cluster.call(ledger, "bump_beta", 2, node=cluster.nodes[1])

        # Node 2 now acquires via bump_alpha (predicts alpha's page
        # only), then the family's sum_all needs beta/gamma/log pages
        # that were never transferred -> demand fetches.
        from repro import Attr, method, shared_class

        @shared_class
        class Driver:
            n = Attr(size=8, default=0)

            @method
            def go(self, ctx, ledger):
                yield ctx.invoke(ledger, "bump_alpha", 1)
                total = yield ctx.invoke(ledger, "sum_all")
                self.n += 1
                return total

        driver = cluster.create(Driver, node=cluster.nodes[2])
        total = cluster.call(driver, "go", ledger, node=cluster.nodes[2])
        assert total == 4  # alpha bumped twice (1+1), beta 2, gamma 0
        assert cluster.prediction_stats.demand_fetches > 0

    def test_exhaustive_protocols_never_demand_fetch(self):
        for protocol in ("cotec", "otec"):
            cluster = make_cluster(protocol=protocol, seed=4)
            ledger = cluster.create(Ledger)
            for index in range(6):
                node = cluster.nodes[index % len(cluster.nodes)]
                cluster.call(ledger, "bump_alpha", 1, node=node)
                cluster.call(ledger, "sum_all", node=node)
            assert cluster.prediction_stats.demand_fetches == 0


class TestStaleDetection:
    def test_stale_access_raises_for_exhaustive_protocol(self):
        """If OTEC somehow left a page stale, the access layer must
        refuse rather than silently read old data."""
        cluster = make_cluster(protocol="otec", seed=5)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[1])
        # Corrupt node 0's copy: pretend its page is older than it is.
        oid = ledger.object_id
        entry = cluster.directory.entry(oid)
        page = next(iter(ledger.meta.layout.attribute_pages("alpha")))
        latest = entry.page_map[page]  # force staleness everywhere
        entry.page_map[page] = PageMapEntry(latest.owner, latest.version + 5)
        with pytest.raises(ProtocolError, match="stale"):
            cluster.call(ledger, "bump_alpha", 1, node=cluster.nodes[0])


class TestObjectGrainTransfers:
    def test_object_grain_ships_fewer_bytes(self):
        def run(grain):
            cluster = make_cluster(protocol="lotec", seed=6,
                                   transfer_grain=grain)
            counter = cluster.create(Counter, node=cluster.nodes[0])
            for index in range(6):
                cluster.call(counter, "add", 1,
                             node=cluster.nodes[index % 4])
            assert cluster.read_attr(counter, "value") == 6
            return cluster.network_stats.consistency_bytes()

        # Counter's data is 16 bytes on a 4096-byte page: object grain
        # avoids shipping the page padding (false sharing, §4.2).
        assert run("object") < run("page") / 10
