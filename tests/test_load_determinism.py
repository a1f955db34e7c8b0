"""Seed hygiene for the open-loop load engine: every arrival draw
comes from ``SeededRNG(seed).derive("load")``, so (scenario, seed,
scale) fully determines the load — byte-identical across repeats, and
untouched by fault plans riding the same master seed."""

from repro.faults import FAULT_PRESETS, FaultPlan
from repro.gdo import MigrationConfig
from repro.load import build_load, run_load
from repro.obs import events_to_jsonl
from repro.runtime import Cluster, ClusterConfig, run_record
from repro.workload import workload_fingerprint


def traced_run(faults=None, migration=None, seed=5, scale=0.25):
    load = build_load("zipf-smoke", seed=seed, scale=scale)
    cluster = Cluster(ClusterConfig(
        num_nodes=load.scenario.clients, seed=seed, protocol="lotec",
        trace=True, faults=faults, migration=migration,
    ))
    run = run_load(cluster, load)
    return load, cluster, run


class TestRepeatsAreByteIdentical:
    def test_same_seed_same_load(self):
        first = build_load("zipf-smoke", seed=9, scale=0.5)
        second = build_load("zipf-smoke", seed=9, scale=0.5)
        assert first.workload.arrival_offsets == \
            second.workload.arrival_offsets
        assert first.clients == second.clients
        assert workload_fingerprint(first.workload) == \
            workload_fingerprint(second.workload)

    def test_same_seed_same_trace_with_migration(self):
        _, cluster_a, _ = traced_run(migration=MigrationConfig())
        _, cluster_b, _ = traced_run(migration=MigrationConfig())
        assert events_to_jsonl(cluster_a.trace_events) == \
            events_to_jsonl(cluster_b.trace_events)
        assert cluster_a.migration_stats.snapshot() == \
            cluster_b.migration_stats.snapshot()

    def test_different_seed_different_arrivals(self):
        first = build_load("zipf-smoke", seed=5, scale=0.5)
        second = build_load("zipf-smoke", seed=6, scale=0.5)
        assert first.workload.arrival_offsets != \
            second.workload.arrival_offsets
        assert workload_fingerprint(first.workload) != \
            workload_fingerprint(second.workload)


class TestFaultPlansCannotPerturbTheLoad:
    def test_fault_plan_leaves_the_schedule_untouched(self):
        # The load is generated before (and independently of) the
        # cluster, so a fault plan on the same master seed must not
        # shift a single arrival or plan tree.
        load_calm, _, _ = traced_run(faults=None)
        load_chaos, _, _ = traced_run(faults=FAULT_PRESETS["chaos"])
        assert load_calm.workload.arrival_offsets == \
            load_chaos.workload.arrival_offsets
        assert workload_fingerprint(load_calm.workload) == \
            workload_fingerprint(load_chaos.workload)

    def test_zero_probability_plan_matches_no_plan(self):
        # Mirrors tests/test_faults_determinism.py for the load path:
        # an all-zero FaultPlan draws nothing and injects nothing, so
        # the run is byte-identical to faults=None.
        _, cluster_plan, run_plan = traced_run(faults=FaultPlan())
        _, cluster_none, run_none = traced_run(faults=None)
        assert events_to_jsonl(cluster_plan.trace_events) == \
            events_to_jsonl(cluster_none.trace_events)
        summary_plan = run_record(cluster_plan, run_plan)
        summary_none = run_record(cluster_none, run_none)
        assert summary_plan.pop("faults")["plan"] == "custom"
        assert summary_none.pop("faults")["plan"] is None
        assert summary_plan == summary_none
        # Migration off in both: the summary key says so explicitly.
        assert summary_plan["migration"] is None
