"""End-to-end chaos runs: every shipped preset must terminate, stay
serializable, and surface its fault accounting in summary and trace."""

import pytest

from repro import check_serializability
from repro.faults import FAULT_PRESETS
from repro.obs.tracer import CAT_FAULT
from repro.runtime import Cluster, ClusterConfig, run_record
from repro.workload import SCENARIOS, generate_workload, run_workload


def chaos_run(plan, trace=True):
    workload = generate_workload(SCENARIOS["medium-high"].scaled(0.2), seed=5)
    cluster = Cluster(ClusterConfig(
        num_nodes=4, seed=5, protocol="lotec", trace=trace, faults=plan,
    ))
    return cluster, run_workload(cluster, workload)


def assert_net_trace_mirrors_stats(cluster):
    """The trace's ``net`` counters and events equal NetworkStats: every
    wire copy is traced, duplicates included."""
    stats = cluster.network_stats
    metrics = cluster.metrics
    assert metrics.counter_total("net.bytes") == stats.total_bytes
    assert metrics.counter_total("net.messages") == stats.total_messages
    for category, expected in stats.by_category_bytes.items():
        assert metrics.counter_total(
            "net.bytes", category=category.value) == expected
    for category, expected in stats.by_category_messages.items():
        assert metrics.counter_total(
            "net.messages", category=category.value) == expected
    net_events = [e for e in cluster.trace_events if e.category == "net"]
    assert len(net_events) == stats.total_messages
    assert sum(e.args["bytes"] for e in net_events) == stats.total_bytes


@pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
def test_preset_terminates_and_stays_serializable(preset):
    cluster, run = chaos_run(FAULT_PRESETS[preset])
    assert run.committed > 0
    report = check_serializability(cluster)
    assert report.equivalent, (
        report.state_mismatches + report.result_mismatches
    )


class TestFaultAccounting:
    def test_lossy_net_counts_drops_and_retransmissions(self):
        cluster, run = chaos_run(FAULT_PRESETS["lossy-net"])
        stats = cluster.fault_stats
        assert stats.messages_dropped > 0
        assert stats.retransmissions > 0
        summary = run_record(cluster, run)
        assert summary["faults"]["messages_dropped"] == \
            stats.messages_dropped
        assert summary["faults"]["retransmissions"] == stats.retransmissions
        assert summary["faults"]["plan"] == "lossy-net"
        # Every drop and retransmission is a trace event too.
        names = [event.name for event in cluster.trace_events
                 if event.category == CAT_FAULT]
        assert any(name.startswith("fault.drop ") for name in names)
        assert any(name.startswith("fault.retransmit ") for name in names)

    def test_dup_delay_counts_duplicates_and_jitter(self):
        cluster, _run = chaos_run(FAULT_PRESETS["dup-delay"])
        stats = cluster.fault_stats
        assert stats.messages_duplicated > 0
        assert stats.delay_injected_s > 0
        assert_net_trace_mirrors_stats(cluster)

    def test_lock_timeout_preset_times_out_and_retries(self):
        cluster, run = chaos_run(FAULT_PRESETS["lock-timeout"])
        stats = cluster.fault_stats
        assert stats.lock_timeouts > 0
        assert cluster.lock_stats.lock_timeouts == stats.lock_timeouts
        # Timed-out families were retried, not lost: the workload still
        # commits work.
        assert run.committed > 0

    def test_crash_preset_aborts_and_recovers(self):
        cluster, run = chaos_run(FAULT_PRESETS["crash-recover"])
        stats = cluster.fault_stats
        assert stats.crashes == 1
        assert stats.recoveries == 1
        assert stats.crash_aborted_families > 0
        summary = run_record(cluster, run)
        assert summary["faults"]["crash_aborted_families"] == \
            stats.crash_aborted_families
        assert cluster.txn_stats.aborts_crash == stats.crash_aborted_families
        names = [event.name for event in cluster.trace_events
                 if event.category == CAT_FAULT]
        assert any(name.startswith("fault.node_crash") for name in names)
        assert any(name.startswith("fault.node_recover") for name in names)

    def test_chaos_metrics_mirror_stats(self):
        cluster, _run = chaos_run(FAULT_PRESETS["chaos"])
        stats = cluster.fault_stats
        counters = cluster.metrics.snapshot()["counters"]

        def total(name):
            return sum(counters.get(name, {}).values())

        assert total("fault.drops") == stats.messages_dropped
        assert total("fault.retransmissions") == stats.retransmissions
        assert total("fault.crashes") == stats.crashes
        assert total("fault.lock_timeouts") == stats.lock_timeouts
        assert stats.messages_duplicated > 0
        assert_net_trace_mirrors_stats(cluster)


class TestConflictOracleUnderChaos:
    def test_chaos_run_is_conflict_serializable(self):
        from repro import check_conflict_serializability

        cluster, _run = chaos_run(FAULT_PRESETS["chaos"], trace=False)
        assert check_conflict_serializability(cluster).equivalent
