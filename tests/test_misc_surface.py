"""Coverage for remaining public API surface: scheduler policies,
round-trip estimation, result helpers, and stats summaries."""

import pytest

from repro.bench.experiments import ExperimentResult
from repro.net.message import Message, MessageCategory
from repro.net.network import NetworkConfig, SimTransport
from repro.runtime.scheduler import Scheduler
from repro.sim import Environment
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId
from repro.util.rng import SeededRNG

NODES = [NodeId(0), NodeId(1), NodeId(2)]


class TestScheduler:
    def test_round_robin_cycles(self):
        scheduler = Scheduler(NODES, "round_robin", SeededRNG(1))
        picks = [scheduler.pick_node() for _ in range(6)]
        assert picks == NODES + NODES

    def test_random_is_seeded(self):
        a = Scheduler(NODES, "random", SeededRNG(5))
        b = Scheduler(NODES, "random", SeededRNG(5))
        assert [a.pick_node() for _ in range(10)] == \
            [b.pick_node() for _ in range(10)]

    def test_least_loaded_prefers_idle(self):
        scheduler = Scheduler(NODES, "least_loaded", SeededRNG(1))
        first = scheduler.pick_node()
        scheduler.notify_start(first)
        second = scheduler.pick_node()
        assert second != first
        scheduler.notify_start(second)
        scheduler.notify_end(first)
        assert scheduler.pick_node() == first

    def test_load_snapshot(self):
        scheduler = Scheduler(NODES, "round_robin", SeededRNG(1))
        scheduler.notify_start(NODES[1])
        assert scheduler.load_snapshot()[NODES[1]] == 1

    def test_end_without_start_rejected(self):
        scheduler = Scheduler(NODES, "round_robin", SeededRNG(1))
        with pytest.raises(ConfigurationError):
            scheduler.notify_end(NODES[0])

    def test_empty_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Scheduler([], "round_robin", SeededRNG(1))

    def test_unknown_policy_at_pick(self):
        scheduler = Scheduler(NODES, "round_robin", SeededRNG(1))
        scheduler.policy = "bogus"
        with pytest.raises(ConfigurationError):
            scheduler.pick_node()


class TestRoundTripEstimate:
    def test_round_trip_sums_both_legs(self):
        env = Environment()
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3,
                                              propagation_s=0.0))
        request = Message(src=NODES[0], dst=NODES[1],
                          category=MessageCategory.LOCK_REQUEST,
                          size_bytes=1000)
        # 1000B at 8Mbps = 1ms each way + 1ms software each way.
        assert net.round_trip(request, response_size=1000) == \
            pytest.approx(4e-3)
        # Estimation is free: nothing recorded.
        assert net.stats.total_messages == 0


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            experiment="demo", x_label="x",
            series={"a": {"p": 1, "q": 2}, "b": {"p": 3, "q": "n/a"}},
        )

    def test_totals_skips_non_numeric(self):
        totals = self.make().totals()
        assert totals == {"a": 3, "b": 3}

    def test_render_mentions_title_and_series(self):
        text = self.make().render()
        assert text.startswith("demo")
        assert "a" in text and "b" in text and "n/a" in text


class TestClusterSummaryIntegration:
    def test_summary_has_node_imbalance(self):
        from conftest import Counter, make_cluster

        cluster = make_cluster()
        counter = cluster.create(Counter)
        for node in cluster.nodes:
            cluster.call(counter, "add", 1, node=node)
        summary = cluster.stats_summary()
        assert summary["network"]["node_imbalance"] >= 1.0
        assert cluster.network_stats.by_node  # per-node data collected
