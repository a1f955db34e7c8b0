"""Conflict serializability of real runs, judged by :func:`repro.check.judge`.

Every lock is held to root commit or abort, so a run is conflict
serializable exactly when conflicting grants order families as their
roots commit — what ``invariant.commit-order`` checks.  Its cases on
hand-built traces live in ``test_check_invariants.py::TestCommitOrder``.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import check_commit_order, judge
from repro.runtime import Cluster, ClusterConfig
from repro.workload import WorkloadParams, generate_workload, run_workload

from conftest import Counter, make_cluster
from test_check_reference import grant, txn_end


def assert_judged_clean(cluster):
    verdict = judge(cluster)
    assert verdict.ok, verdict.failure_summary()
    return verdict


class TestOracleOnRealRuns:
    @pytest.mark.parametrize("protocol",
                             ["cotec", "otec", "lotec", "hlotec", "rc"])
    def test_contended_runs_are_conflict_serializable(self, protocol):
        params = WorkloadParams(num_objects=6, num_classes=2, num_roots=25,
                                pages_min=1, pages_max=3, skew=1.0)
        workload = generate_workload(params, seed=41)
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol=protocol,
                                        seed=41, trace=True))
        run_workload(cluster, workload)
        assert_judged_clean(cluster)

    def test_aborted_families_excluded(self):
        from repro import TransactionAborted

        cluster = make_cluster(seed=1, trace=True)
        counter = cluster.create(Counter)
        with pytest.raises(TransactionAborted):
            cluster.call(counter, "fail_after_write", 1)
        cluster.call(counter, "add", 1)
        verdict = assert_judged_clean(cluster)
        # Both families were granted the counter's write lock; only the
        # committed one is ordered.
        grants = [event for event in verdict.trace
                  if event["name"].startswith("lock.grant ")]
        assert len({event["args"]["txn"] for event in grants}) == 2
        assert verdict.committed_roots == 1

    def test_agrees_with_replay_oracle(self):
        params = WorkloadParams(num_objects=8, num_classes=3, num_roots=30,
                                pages_min=1, pages_max=4,
                                abort_probability=0.1)
        workload = generate_workload(params, seed=42)
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec",
                                        seed=42, trace=True))
        run_workload(cluster, workload)
        assert assert_judged_clean(cluster).serializable


class TestOracleDetectsCycles:
    def test_read_read_never_conflicts(self):
        """T0 is granted O1 again after T5, yet commits first: only a
        conflicting mode orders T5 before T0."""
        def violations(mode):
            trace = [
                grant("T0", 1, mode), grant("T5", 1, mode),
                grant("T0", 1, mode),
                txn_end("T0", "commit"), txn_end("T5", "commit"),
            ]
            return [violation.checker
                    for violation in check_commit_order(trace)]

        assert violations("R") == []
        assert violations("W") == ["invariant.commit-order"]


class TestOracleProperty:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_runs_acyclic(self, seed):
        params = WorkloadParams(num_objects=5, num_classes=2, num_roots=12,
                                pages_min=1, pages_max=3, skew=1.2)
        workload = generate_workload(params, seed=seed)
        cluster = Cluster(ClusterConfig(num_nodes=3, protocol="lotec",
                                        seed=seed, trace=True))
        run_workload(cluster, workload)
        assert_judged_clean(cluster)
