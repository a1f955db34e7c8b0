"""Tests for the home-based LOTEC variant (§6 scope-consistency
design point)."""

import pytest

from repro import check_serializability
from repro.net.message import MessageCategory
from repro.runtime import Cluster, ClusterConfig
from repro.util.errors import ConfigurationError
from repro.workload import WorkloadParams, generate_workload, run_workload

from conftest import Ledger, make_cluster

SMALL = WorkloadParams(num_objects=8, num_classes=3, num_roots=20,
                       pages_min=2, pages_max=5, max_depth=2)


class TestConstruction:
    def test_requires_directory(self):
        from repro.core.hlotec import HomeBasedLOTEC
        from repro.net.network import NetworkConfig, SimTransport
        from repro.net.sizes import SizeModel
        from repro.sim import Environment

        env = Environment()
        with pytest.raises(ConfigurationError, match="directory"):
            HomeBasedLOTEC(
                env=env,
                network=SimTransport(env, NetworkConfig(bandwidth_bps=1e8,
                                                        software_cost_s=0)),
                sizes=SizeModel(), stores={},
            )

    def test_cluster_builds_it(self):
        cluster = make_cluster(protocol="hlotec")
        assert cluster.protocol.default.name == "hlotec"


class TestHomeDiscipline:
    def test_dirty_pages_written_back_to_home(self):
        cluster = make_cluster(protocol="hlotec", seed=2)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        entry = cluster.directory.entry(ledger.object_id)
        home = entry.home_node
        # Update from a node that is NOT the home.
        source = next(n for n in cluster.nodes if n != home)
        cluster.call(ledger, "bump_alpha", 5, node=source)
        alpha_page = next(iter(ledger.meta.layout.attribute_pages("alpha")))
        assert entry.page_owner(alpha_page) == home
        # The home's store holds the fresh value at the latest version.
        assert cluster.stores[home].read_slot(
            ledger.object_id, ("alpha", 0)
        ) == 5
        assert cluster.stores[home].page_version(
            ledger.object_id, alpha_page
        ) == entry.latest_version(alpha_page)
        assert cluster.network_stats.category_messages(
            MessageCategory.UPDATE_PUSH
        ) == 1

    def test_commit_at_home_is_free(self):
        cluster = make_cluster(protocol="hlotec", seed=2)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        home = cluster.directory.entry(ledger.object_id).home_node
        before = cluster.network_stats.category_messages(
            MessageCategory.UPDATE_PUSH
        )
        cluster.call(ledger, "bump_alpha", 1, node=home)
        after = cluster.network_stats.category_messages(
            MessageCategory.UPDATE_PUSH
        )
        assert after == before  # local write-back costs nothing

    def test_gathers_are_single_source_for_dirty_pages(self):
        cluster = make_cluster(protocol="hlotec", seed=2)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        home = cluster.directory.entry(ledger.object_id).home_node
        others = [n for n in cluster.nodes if n != home]
        # Two different nodes dirty two different attributes.
        cluster.call(ledger, "bump_alpha", 1, node=others[0])
        cluster.call(ledger, "log_entry", 15, 9, node=others[1])
        before = cluster.network_stats.category_messages(
            MessageCategory.PAGE_REQUEST
        )
        assert cluster.call(ledger, "sum_all", node=others[2]) == 10
        after = cluster.network_stats.category_messages(
            MessageCategory.PAGE_REQUEST
        )
        # All dirty pages live at the home; clean pages may still sit
        # with past readers, so allow at most two sources (vs three
        # updaters under plain LOTEC).
        assert after - before <= 2


class TestEndToEnd:
    def test_serializable_on_random_workload(self):
        workload = generate_workload(SMALL, seed=31)
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol="hlotec",
                                        seed=31))
        run = run_workload(cluster, workload)
        assert run.failed == 0
        assert check_serializability(cluster).equivalent

    def test_costs_sit_between_lotec_and_rc(self):
        workload = generate_workload(SMALL, seed=32)
        data = {}
        for protocol in ("lotec", "hlotec", "rc"):
            cluster = Cluster(ClusterConfig(num_nodes=4, protocol=protocol,
                                            seed=32))
            run_workload(cluster, workload)
            data[protocol] = cluster.network_stats.consistency_bytes()
        assert data["lotec"] <= data["hlotec"] <= data["rc"] * 1.2
