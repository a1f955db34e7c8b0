"""Coverage for remaining public API surface: round-trip estimation,
result helpers, and stats summaries."""

import pytest

from repro.bench.experiments import ExperimentResult
from repro.net.message import Message, MessageCategory
from repro.net.network import NetworkConfig, SimTransport
from repro.runtime import run_record
from repro.sim import Environment
from repro.util.ids import NodeId

NODES = [NodeId(0), NodeId(1), NodeId(2)]


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
        summary = run_record(cluster)
        assert summary["network"]["node_imbalance"] >= 1.0
        assert cluster.network_stats.by_node  # per-node data collected
