"""Unit tests for the network substrate: messages, sizes, delivery,
accounting, and the paper's presets."""

import pytest

from repro.net import (
    ETHERNET_10M,
    FAST_ETHERNET_100M,
    GIGABIT_1G,
    Message,
    MessageCategory,
    NetworkConfig,
    NetworkStats,
    SOFTWARE_COSTS,
    SimTransport,
    SizeModel,
    preset_network,
)
from repro.sim import Environment
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId, ObjectId


N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)


def msg(src=N0, dst=N1, category=MessageCategory.PAGE_DATA, size=1000,
        object_id=None):
    return Message(src=src, dst=dst, category=category, size_bytes=size,
                   object_id=object_id)


class TestMessage:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            msg(size=-1)

    def test_local_detection(self):
        assert msg(src=N0, dst=N0).is_local
        assert not msg(src=N0, dst=N1).is_local

    def test_data_categories(self):
        assert MessageCategory.PAGE_DATA.is_consistency_data
        assert MessageCategory.UPDATE_PUSH.is_consistency_data
        assert not MessageCategory.LOCK_REQUEST.is_consistency_data
        assert not MessageCategory.PAGE_MAP.is_consistency_data

    def test_equality_ignores_wire_bookkeeping(self):
        first, second = msg(object_id=ObjectId(3)), msg(object_id=ObjectId(3))
        second.wire_id, second.attempts, second.send_time = 7, 2, 0.5
        assert first == second
        assert first != msg(object_id=ObjectId(4))
        assert first != msg(object_id=ObjectId(3), size=999)
        with pytest.raises(TypeError):
            hash(first)
        assert not hasattr(first, "__dict__")
        assert repr(first).startswith(
            "Message(src=N0, dst=N1, category=<MessageCategory.PAGE_DATA")


class TestSizeModel:
    def test_defaults_positive(self):
        sizes = SizeModel()
        assert sizes.lock_request() > 0
        assert sizes.control() > 0

    def test_grant_scales_with_entries(self):
        sizes = SizeModel()
        small = sizes.lock_grant(holder_entries=1, page_map_entries=1)
        big = sizes.lock_grant(holder_entries=10, page_map_entries=20)
        assert big > small
        assert big == sizes.header_bytes + 10 * sizes.holder_entry_bytes \
            + 20 * sizes.page_map_entry_bytes

    def test_page_data_dominated_by_pages(self):
        sizes = SizeModel(page_bytes=4096)
        assert sizes.page_data(3) == sizes.header_bytes + 3 * 4096

    def test_release_piggybacks_dirty_entries(self):
        sizes = SizeModel()
        assert sizes.lock_release(5) - sizes.lock_release(0) == \
            5 * sizes.page_map_entry_bytes

    def test_object_data_uses_raw_bytes(self):
        sizes = SizeModel()
        assert sizes.object_data(100) == sizes.header_bytes + 100

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            SizeModel(header_bytes=-1)


class TestNetworkConfig:
    def test_transfer_time_components(self):
        config = NetworkConfig(bandwidth_bps=1e6, software_cost_s=1e-3,
                               propagation_s=1e-6)
        # 1000 bytes at 1 Mbps = 8 ms serialization.
        assert config.transfer_time(1000) == pytest.approx(1e-3 + 8e-3 + 1e-6)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(bandwidth_bps=0, software_cost_s=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(bandwidth_bps=1e6, software_cost_s=-1)

    def test_with_software_cost(self):
        faster = ETHERNET_10M.with_software_cost(1e-6)
        assert faster.software_cost_s == 1e-6
        assert faster.bandwidth_bps == ETHERNET_10M.bandwidth_bps

    def test_presets_match_paper_bitrates(self):
        assert ETHERNET_10M.bandwidth_bps == 10e6
        assert FAST_ETHERNET_100M.bandwidth_bps == 100e6
        assert GIGABIT_1G.bandwidth_bps == 1e9

    def test_software_cost_sweep_values(self):
        assert SOFTWARE_COSTS == {
            "100us": 100e-6, "20us": 20e-6, "5us": 5e-6,
            "1us": 1e-6, "500ns": 500e-9,
        }

    def test_preset_network_lookup(self):
        config = preset_network("1Gbps", "500ns")
        assert config.bandwidth_bps == 1e9
        assert config.software_cost_s == 500e-9

    def test_preset_network_unknown(self):
        with pytest.raises(KeyError):
            preset_network("2Mbps")
        with pytest.raises(KeyError):
            preset_network("1Gbps", "7us")


class TestNetworkDelivery:
    def setup_method(self):
        self.env = Environment()
        self.net = SimTransport(
            self.env,
            NetworkConfig(bandwidth_bps=8e6, software_cost_s=1e-3,
                          propagation_s=0.0),
        )

    def test_delivery_takes_transfer_time(self):
        message = msg(size=1000)  # 1 ms serialization at 8 Mbps
        done = self.net.send(message)
        self.env.run()
        assert done.value is message
        assert message.deliver_time == pytest.approx(2e-3)

    def test_local_message_is_free_and_instant(self):
        message = msg(src=N0, dst=N0)
        done = self.net.send(message)
        assert done.triggered
        assert self.net.stats.total_messages == 0

    def test_stats_recorded_on_send(self):
        self.net.send(msg(size=500))
        assert self.net.stats.total_messages == 1
        assert self.net.stats.total_bytes == 500

    def test_charge_returns_time_without_event(self):
        before = self.env.peek()
        elapsed = self.net.charge(msg(size=1000))
        assert elapsed == pytest.approx(2e-3)
        assert self.env.peek() == before  # nothing scheduled
        assert self.net.stats.total_messages == 1

    def test_charge_local_is_free(self):
        assert self.net.charge(msg(src=N1, dst=N1)) == 0.0
        assert self.net.stats.total_messages == 0


class TestMulticast:
    def setup_method(self):
        self.env = Environment()

    def _net(self, multicast):
        return SimTransport(
            self.env,
            NetworkConfig(bandwidth_bps=8e6, software_cost_s=1e-3,
                          propagation_s=0.0, multicast=multicast),
        )

    def template(self):
        return msg(src=N0, dst=N1, size=1000)

    def test_unicast_group_charges_per_destination(self):
        net = self._net(multicast=False)
        delay = net.charge_group(self.template(), [N1, N2])
        assert net.stats.total_messages == 2
        assert delay == pytest.approx(2 * (1e-3 + 1e-3))

    def test_multicast_group_charges_once(self):
        net = self._net(multicast=True)
        delay = net.charge_group(self.template(), [N1, N2])
        assert net.stats.total_messages == 1
        assert delay == pytest.approx(1e-3 + 1e-3)

    def test_group_skips_sender(self):
        net = self._net(multicast=False)
        assert net.charge_group(self.template(), [N0]) == 0.0
        assert net.stats.total_messages == 0

    def test_with_multicast_copy(self):
        config = NetworkConfig(bandwidth_bps=1e6, software_cost_s=0)
        assert not config.multicast
        enabled = config.with_multicast(True)
        assert enabled.multicast
        assert enabled.with_software_cost(1e-6).multicast


class TestNetworkStats:
    def test_per_category_accounting(self):
        stats = NetworkStats()
        stats.record(msg(category=MessageCategory.LOCK_REQUEST, size=50), 0.1)
        stats.record(msg(category=MessageCategory.PAGE_DATA, size=4000), 0.2)
        assert stats.category_bytes(MessageCategory.LOCK_REQUEST) == 50
        assert stats.category_messages(MessageCategory.PAGE_DATA) == 1
        assert stats.consistency_bytes() == 4000
        assert stats.total_time == pytest.approx(0.3)

    def test_per_object_accounting(self):
        stats = NetworkStats()
        oid = ObjectId(7)
        stats.record(msg(category=MessageCategory.PAGE_DATA, size=4000,
                         object_id=oid), 0.5)
        stats.record(msg(category=MessageCategory.LOCK_GRANT, size=60,
                         object_id=oid), 0.1)
        stats.record(msg(category=MessageCategory.PAGE_DATA, size=100), 0.1)
        assert stats.object_bytes(oid) == 4060
        assert stats.object_messages(oid) == 2
        assert stats.object_time(oid) == pytest.approx(0.6)
        traffic = stats.by_object[oid]
        assert traffic.data_bytes == 4000  # grant excluded from data bytes
        assert traffic.data_messages == 1

    def test_unknown_object_zeroes(self):
        stats = NetworkStats()
        assert stats.object_bytes(ObjectId(99)) == 0
        assert stats.object_time(ObjectId(99)) == 0.0
        assert stats.object_messages(ObjectId(99)) == 0

    def test_snapshot_is_plain_data(self):
        stats = NetworkStats()
        stats.record(msg(), 0.1)
        snap = stats.snapshot()
        assert snap["total_messages"] == 1
        assert snap["by_category_bytes"] == {"page_data": 1000}


class TestNodeTraffic:
    def test_per_node_send_receive(self):
        stats = NetworkStats()
        stats.record(msg(src=N0, dst=N1, size=100), 0.1)
        stats.record(msg(src=N0, dst=N2, size=200), 0.1)
        stats.record(msg(src=N2, dst=N0, size=50), 0.1)
        n0 = stats.by_node[N0]
        assert n0.sent_bytes == 300 and n0.sent_messages == 2
        assert n0.received_bytes == 50 and n0.received_messages == 1
        assert stats.by_node[N1].received_bytes == 100
        assert stats.by_node[N2].sent_bytes == 50

    def test_accounted_through_network_send_and_charge(self):
        env = Environment()
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3))
        net.send(msg(src=N0, dst=N1, size=400))
        net.charge(msg(src=N1, dst=N2, size=600))
        env.run()
        assert net.stats.by_node[N0].sent_bytes == 400
        assert net.stats.by_node[N1].received_bytes == 400
        assert net.stats.by_node[N1].sent_bytes == 600
        assert net.stats.by_node[N2].received_bytes == 600

    def test_local_messages_not_accounted_per_node(self):
        env = Environment()
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3))
        net.send(msg(src=N0, dst=N0, size=400))
        net.charge(msg(src=N1, dst=N1, size=600))
        assert net.stats.by_node == {}

    def test_per_node_totals_sum_to_aggregate(self):
        stats = NetworkStats()
        stats.record(msg(src=N0, dst=N1, size=100), 0.1)
        stats.record(msg(src=N1, dst=N2, size=250), 0.1)
        stats.record(msg(src=N2, dst=N0, size=75), 0.1)
        sent = sum(t.sent_bytes for t in stats.by_node.values())
        received = sum(t.received_bytes for t in stats.by_node.values())
        assert sent == received == stats.total_bytes == 425
        assert sum(t.sent_messages for t in stats.by_node.values()) == 3
        assert sum(t.received_messages for t in stats.by_node.values()) == 3

    def test_imbalance_even(self):
        stats = NetworkStats()
        stats.record(msg(src=N0, dst=N1, size=100), 0.1)
        stats.record(msg(src=N1, dst=N0, size=100), 0.1)
        assert stats.node_imbalance() == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        stats = NetworkStats()
        stats.record(msg(src=N0, dst=N1, size=300), 0.1)
        stats.record(msg(src=N0, dst=N2, size=300), 0.1)
        assert stats.node_imbalance() > 1.0

    def test_imbalance_empty_is_one(self):
        assert NetworkStats().node_imbalance() == 1.0

    def test_snapshot_includes_imbalance(self):
        stats = NetworkStats()
        stats.record(msg(), 0.1)
        assert "node_imbalance" in stats.snapshot()


def reference_accounting(messages):
    """The per-message dict updates NetworkStats.record makes through
    its primitive-keyed tallies, written out plainly over typed keys."""
    categories, objects, nodes = {}, {}, {}
    for message, transfer_time in messages:
        size = message.size_bytes
        tally = categories.setdefault(message.category, [0, 0])
        tally[0] += size
        tally[1] += 1
        if message.object_id is not None:
            traffic = objects.setdefault(message.object_id, [0, 0, 0.0, 0, 0])
            traffic[0] += size
            traffic[1] += 1
            traffic[2] += transfer_time * size / size if size else transfer_time
            if message.category.is_consistency_data:
                traffic[3] += size
                traffic[4] += 1
        sender = nodes.setdefault(message.src, [0, 0, 0, 0])
        sender[0] += size
        sender[1] += 1
        receiver = nodes.setdefault(message.dst, [0, 0, 0, 0])
        receiver[2] += size
        receiver[3] += 1
    return categories, objects, nodes


class TestAccountingIndexes:
    @pytest.mark.parametrize("seed", range(4))
    def test_record_matches_plain_accounting(self, seed):
        import random

        rng = random.Random(seed)
        categories = list(MessageCategory)
        messages = []
        for _ in range(300):
            # Fresh, equal-valued id instances every time: the tallies
            # key on values, the views on the ids themselves.
            object_id = (None if rng.random() < 0.2
                         else ObjectId(rng.randrange(6)))
            message = Message(
                src=NodeId(rng.randrange(4)), dst=NodeId(rng.randrange(4)),
                category=rng.choice(categories),
                size_bytes=rng.choice((0, 40, 1000, 4096)),
                object_id=object_id,
            )
            messages.append((message, rng.choice((1e-4, 3.3e-4, 0.0021))))
        stats = NetworkStats()
        for message, transfer_time in messages:
            stats.record(message, transfer_time)
        categories_ref, objects_ref, nodes_ref = reference_accounting(messages)
        # Same tallies, same first-use order, same float bits.
        assert [(c, [t.bytes, t.messages]) for c, t in stats.by_category.items()] \
            == list(categories_ref.items())
        assert [(o, [t.bytes, t.messages, t.time, t.data_bytes, t.data_messages])
                for o, t in stats.by_object.items()] == list(objects_ref.items())
        assert [(n, [t.sent_bytes, t.sent_messages, t.received_bytes,
                     t.received_messages])
                for n, t in stats.by_node.items()] == list(nodes_ref.items())
        assert stats.by_category_bytes == {
            c: tally[0] for c, tally in categories_ref.items()}
        assert stats.by_category_messages == {
            c: tally[1] for c, tally in categories_ref.items()}
        assert stats.total_time == sum(t for _, t in messages)

    def test_views_hold_the_live_tallies(self):
        stats = NetworkStats()
        stats.record(msg(object_id=ObjectId(1)), 0.1)
        traffic = stats.by_object[ObjectId(1)]
        node = stats.by_node[N0]
        category = stats.by_category[MessageCategory.PAGE_DATA]
        stats.record(msg(object_id=ObjectId(1)), 0.1)
        assert traffic.messages == node.sent_messages == \
            category.messages == 2
        assert traffic is stats.objects[1]
        assert node is stats.nodes[0]
        assert category is stats.categories["page_data"]


class TestDeliveryEvent:
    def setup_method(self):
        self.env = Environment()
        self.net = SimTransport(
            self.env,
            NetworkConfig(bandwidth_bps=8e6, software_cost_s=1e-3,
                          propagation_s=0.0),
        )

    def test_hints_are_derived_from_the_message(self):
        done = self.net.send(msg(src=N2, dst=N1,
                                 category=MessageCategory.LOCK_GRANT))
        assert done.hints == {"kind": "deliver", "category": "lock_grant",
                              "node": 1, "src": 2}
        assert repr(done) == \
            "<kind=deliver,category=lock_grant,node=1,src=2 pending>"
        assert not hasattr(done, "__dict__")

    def test_a_remote_message_is_one_landing_plus_its_delivery(self):
        message = msg(size=1000)
        done = self.net.send(message)
        self.env.run()
        assert done.value is message
        # The landing entry and the delivery event: two processed
        # events, the same two a Timeout plus a callback would cost.
        assert self.env.events_processed == 2

    def test_price_is_the_cost_model_bit_for_bit(self):
        config = self.net.config
        for size in (0, 1, 999, 4096, 123457):
            assert self.net.charge(msg(size=size)) == \
                config.transfer_time(size)
