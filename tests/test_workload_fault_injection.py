"""Tests for workload fault injection (abort_probability)."""

import pytest

from repro import check_serializability
from repro.runtime import Cluster, ClusterConfig
from repro.util.errors import ConfigurationError, TransactionAborted
from repro.workload import WorkloadParams, generate_workload, run_workload

FAULTY = WorkloadParams(num_objects=8, num_classes=3, num_roots=30,
                        pages_min=1, pages_max=3, max_depth=2,
                        abort_probability=0.2)


class TestParams:
    def test_probability_validated(self):
        with pytest.raises(ConfigurationError):
            WorkloadParams(abort_probability=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadParams(abort_probability=-0.1)

    def test_zero_probability_injects_nothing(self):
        workload = generate_workload(
            WorkloadParams(num_roots=50, abort_probability=0.0), seed=1
        )
        assert not any(plan.injects_abort() for plan in workload.plans)

    def test_probability_one_dooms_every_plan(self):
        workload = generate_workload(
            WorkloadParams(num_roots=20, abort_probability=1.0), seed=1
        )
        assert all(plan.injects_abort() for plan in workload.plans)

    def test_injection_is_deterministic(self):
        a = generate_workload(FAULTY, seed=5)
        b = generate_workload(FAULTY, seed=5)
        assert [p.injects_abort() for p in a.plans] == \
            [p.injects_abort() for p in b.plans]


class TestExecutionUnderFaults:
    @pytest.mark.parametrize("protocol", ["cotec", "otec", "lotec", "rc"])
    def test_failed_count_matches_doomed_plans(self, protocol):
        workload = generate_workload(FAULTY, seed=5)
        doomed = sum(1 for plan in workload.plans if plan.injects_abort())
        assert doomed > 0
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol=protocol,
                                        seed=5))
        run = run_workload(cluster, workload)
        assert run.failed == doomed
        assert run.committed == len(workload.plans) - doomed

    def test_aborted_work_fully_rolled_back(self):
        workload = generate_workload(FAULTY, seed=5)
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec",
                                        seed=5))
        run_workload(cluster, workload)
        report = check_serializability(cluster)
        assert report.equivalent, report.state_mismatches[:3]

    def test_injected_reason_surfaces(self):
        workload = generate_workload(
            WorkloadParams(num_roots=5, abort_probability=1.0, max_depth=0),
            seed=2,
        )
        cluster = Cluster(ClusterConfig(num_nodes=2, protocol="lotec", seed=2))
        handles = [
            cluster.create(workload.class_of(i).schema)
            for i in range(workload.num_objects)
        ]
        ticket = cluster.submit(
            handles[workload.plans[0].obj_index],
            workload.plans[0].method_name,
            workload.plans[0], tuple(handles),
        )
        cluster.run()
        with pytest.raises(TransactionAborted, match="injected"):
            ticket.result()

    def test_undo_recovery_under_faults(self):
        workload = generate_workload(FAULTY, seed=6)
        cluster = Cluster(ClusterConfig(num_nodes=4, protocol="lotec",
                                        seed=6))
        run_workload(cluster, workload)
        assert check_serializability(cluster).equivalent
