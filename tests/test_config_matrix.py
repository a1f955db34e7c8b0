"""Cross-feature configuration matrix: every extension composed with
every protocol must stay correct.

The individual features have their own suites; this module guards the
*combinations* (prefetch with per-class protocols, object grain with
multicast, ...), where integration bugs hide.
"""

import pytest

from repro import check_serializability
from repro.check import judge
from repro.gdo import MigrationConfig
from repro.runtime import Cluster, ClusterConfig
from repro.workload import WorkloadParams, generate_workload, run_workload

MATRIX_PARAMS = WorkloadParams(
    num_objects=8, num_classes=3, num_roots=18,
    pages_min=1, pages_max=4, max_depth=2, abort_probability=0.1,
)


def run_config(**overrides):
    seed = overrides.pop("seed", 77)
    overrides.setdefault("num_nodes", 4)
    workload = generate_workload(MATRIX_PARAMS, seed=seed)
    config = ClusterConfig(seed=seed, trace=True, **overrides)
    cluster = Cluster(config)
    run = run_workload(cluster, workload)
    assert run.committed + run.failed == MATRIX_PARAMS.num_roots
    verdict = judge(cluster)
    assert verdict.ok, verdict.failure_summary()[:3]
    return cluster


class TestProtocolFeatureMatrix:
    @pytest.mark.parametrize("protocol",
                             ["cotec", "otec", "lotec", "hlotec", "rc"])
    def test_object_grain(self, protocol):
        run_config(protocol=protocol, transfer_grain="object")

    @pytest.mark.parametrize("protocol", ["lotec", "hlotec", "rc"])
    def test_prefetch_pages(self, protocol):
        run_config(protocol=protocol, prefetch="locks+pages")

    @pytest.mark.parametrize("protocol", ["cotec", "otec"])
    def test_prefetch_locks_with_exhaustive_protocols(self, protocol):
        run_config(protocol=protocol, prefetch="locks")

    def test_everything_at_once(self):
        cluster = run_config(
            protocol="lotec",
            transfer_grain="object",
            prefetch="locks+pages",
            class_protocols=(("Synth0", "rc"), ("Synth1", "hlotec")),
            gdo_cache_enabled=True,
        )
        assert cluster.protocol.name == "hlotec+lotec+rc"

    def test_no_cache_no_prefetch_single_node(self):
        run_config(protocol="lotec", gdo_cache_enabled=False, num_nodes=1)

    def test_multicast_rc(self):
        config = ClusterConfig(num_nodes=4, seed=78, protocol="rc")
        config = config.with_network(config.network.with_multicast(True))
        workload = generate_workload(MATRIX_PARAMS, seed=78)
        cluster = Cluster(config)
        run = run_workload(cluster, workload)
        assert run.committed > 0
        assert check_serializability(cluster).equivalent


class TestTcpPairings:
    """The features that change scheduling or directory placement, over
    real localhost sockets (one process, the engine thread owns them)."""

    @pytest.mark.parametrize("overrides", [
        {"tiebreak": "random"},
        {"migration": MigrationConfig()},
    ], ids=["tiebreak", "migration"])
    def test_judged_over_tcp(self, overrides):
        workload = generate_workload(MATRIX_PARAMS, seed=77)
        with Cluster(ClusterConfig(num_nodes=4, seed=77, trace=True,
                                   transport="tcp", **overrides)) as cluster:
            run = run_workload(cluster, workload)
            assert run.committed + run.failed == MATRIX_PARAMS.num_roots
            verdict = judge(cluster)
            assert verdict.ok, verdict.failure_summary()
