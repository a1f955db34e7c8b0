"""Quiescence invariants: when the simulation drains, nothing is left
holding, retaining, waiting, or blocked — every completed run returns
the lock system to a clean state."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runtime import Cluster, ClusterConfig
from repro.workload import WorkloadParams, generate_workload, run_workload


def assert_quiescent(cluster):
    # No family blocked and no waiter queued: the waits-for graph,
    # which is read off these, is empty.
    assert cluster.lockmgr._blocked == {}
    for object_id, entry in cluster.directory.entries().items():
        assert entry.is_free, (object_id, entry.holders, entry.retainers)
        assert not entry.waiting_families, object_id
        assert entry.lock_state.value == "free"
    # Every root's deferred delay was consumed.
    for record in cluster.commit_log:
        assert record.time >= 0


@pytest.mark.parametrize("protocol", ["cotec", "otec", "lotec", "hlotec", "rc"])
def test_quiescent_after_contended_run(protocol):
    params = WorkloadParams(num_objects=6, num_classes=2, num_roots=25,
                            pages_min=1, pages_max=4, skew=1.0)
    workload = generate_workload(params, seed=17)
    cluster = Cluster(ClusterConfig(num_nodes=4, protocol=protocol, seed=17))
    run_workload(cluster, workload)
    assert_quiescent(cluster)


@pytest.mark.parametrize("prefetch", ["locks", "locks+pages"])
def test_quiescent_with_prefetch(prefetch):
    params = WorkloadParams(num_objects=10, num_classes=3, num_roots=20,
                            pages_min=1, pages_max=3)
    workload = generate_workload(params, seed=18)
    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec", seed=18,
                                    prefetch=prefetch))
    run_workload(cluster, workload)
    assert_quiescent(cluster)


def test_quiescent_after_faulty_run():
    params = WorkloadParams(num_objects=8, num_classes=2, num_roots=30,
                            pages_min=1, pages_max=3,
                            abort_probability=0.3)
    workload = generate_workload(params, seed=19)
    cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec", seed=19))
    run_workload(cluster, workload)
    assert_quiescent(cluster)


@given(seed=st.integers(0, 10_000),
       skew=st.floats(0, 2),
       roots=st.integers(1, 18))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_quiescence_property(seed, skew, roots):
    params = WorkloadParams(num_objects=5, num_classes=2, num_roots=roots,
                            pages_min=1, pages_max=3, skew=skew,
                            abort_probability=0.1)
    workload = generate_workload(params, seed=seed)
    cluster = Cluster(ClusterConfig(num_nodes=3, protocol="lotec",
                                    seed=seed))
    run_workload(cluster, workload)
    assert_quiescent(cluster)
