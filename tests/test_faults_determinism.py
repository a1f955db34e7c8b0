"""The fault engine's central promise: the fault schedule is a pure
function of (seed, plan) — and a disabled plan changes nothing at all."""

from repro.faults import FAULT_PRESETS, FaultPlan
from repro.obs import events_to_jsonl
from repro.runtime import Cluster, ClusterConfig, run_record
from repro.workload import SCENARIOS, generate_workload, run_workload


def traced_run(faults, seed=5):
    workload = generate_workload(
        SCENARIOS["medium-high"].scaled(0.2), seed=seed
    )
    cluster = Cluster(ClusterConfig(
        num_nodes=4, seed=seed, protocol="lotec", trace=True, faults=faults,
    ))
    run = run_workload(cluster, workload)
    return cluster, run


class TestSchedulesAreReproducible:
    def test_same_plan_same_seed_byte_identical_traces(self):
        cluster_a, _ = traced_run(FAULT_PRESETS["chaos"])
        cluster_b, _ = traced_run(FAULT_PRESETS["chaos"])
        assert events_to_jsonl(cluster_a.trace_events) == \
            events_to_jsonl(cluster_b.trace_events)
        assert cluster_a.fault_stats.snapshot() == \
            cluster_b.fault_stats.snapshot()

    def test_different_seed_different_schedule(self):
        cluster_a, _ = traced_run(FAULT_PRESETS["lossy-net"], seed=5)
        cluster_b, _ = traced_run(FAULT_PRESETS["lossy-net"], seed=6)
        # Not a strict requirement fault-by-fault, but two seeds
        # producing the identical full trace would mean the seed is
        # not actually feeding the fault stream.
        assert events_to_jsonl(cluster_a.trace_events) != \
            events_to_jsonl(cluster_b.trace_events)


class TestDisabledFaultsAreInvisible:
    def test_zero_probability_plan_matches_no_plan(self):
        # A FaultPlan with every knob at zero must draw nothing from
        # the RNG and inject nothing: the run is byte-identical to one
        # built with faults=None (the NullInjector path).
        cluster_plan, run_plan = traced_run(FaultPlan())
        cluster_none, run_none = traced_run(None)
        assert events_to_jsonl(cluster_plan.trace_events) == \
            events_to_jsonl(cluster_none.trace_events)
        summary_plan = run_record(cluster_plan, run_plan)
        summary_none = run_record(cluster_none, run_none)
        # Only the plan *label* may differ ("custom" vs None); every
        # observable of the run itself must match.
        assert summary_plan.pop("faults")["plan"] == "custom"
        assert summary_none.pop("faults")["plan"] is None
        assert summary_plan == summary_none

    def test_null_run_reports_zero_faults(self):
        cluster, run = traced_run(None)
        assert all(
            value == 0
            for value in cluster.fault_stats.snapshot().values()
        )
        summary = run_record(cluster, run)
        assert summary["faults"]["messages_dropped"] == 0
        assert summary["faults"]["plan"] is None
