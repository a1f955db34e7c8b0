"""End-to-end chaos runs: every shipped preset must terminate, stay
serializable, and surface its fault accounting in record and trace."""

import pytest

from repro import check_serializability
from repro.check import judge
from repro.faults import FAULT_PRESETS
from repro.obs.tracer import CAT_FAULT
from repro.runtime import Cluster, ClusterConfig, run_record
from repro.workload import SCENARIOS, generate_workload, run_workload


def chaos_run(plan):
    workload = generate_workload(SCENARIOS["medium-high"].scaled(0.2), seed=5)
    cluster = Cluster(ClusterConfig(
        num_nodes=4, seed=5, protocol="lotec", trace=True, faults=plan,
    ))
    return cluster, run_workload(cluster, workload)


def assert_net_trace_mirrors_stats(cluster):
    """The trace's ``net`` events equal NetworkStats, per category:
    every wire copy is traced, duplicates included."""
    stats = cluster.network_stats
    net_bytes, net_messages = {}, {}
    for event in cluster.trace_events:
        if event.category == "net":
            category = event.args["category"]
            net_bytes[category] = net_bytes.get(category, 0) \
                + event.args["bytes"]
            net_messages[category] = net_messages.get(category, 0) + 1
    assert sum(net_bytes.values()) == stats.total_bytes
    assert sum(net_messages.values()) == stats.total_messages
    assert net_bytes == {category.value: expected for category, expected
                         in stats.by_category_bytes.items()}
    assert net_messages == {category.value: expected for category, expected
                            in stats.by_category_messages.items()}


def assert_fault_trace_mirrors_stats(cluster):
    """Each kind of ``fault.*`` event is as frequent as FaultStats
    counts it: every injected fault is traced."""
    stats = cluster.fault_stats
    counts = {}
    for event in cluster.trace_events:
        if event.category == CAT_FAULT:
            kind = event.name.split(" ", 1)[0]
            counts[kind] = counts.get(kind, 0) + 1
    assert counts.get("fault.drop", 0) == stats.messages_dropped
    assert counts.get("fault.retransmit", 0) == stats.retransmissions
    assert counts.get("fault.duplicate", 0) == stats.messages_duplicated
    assert counts.get("fault.node_crash", 0) == stats.crashes
    assert counts.get("fault.node_recover", 0) == stats.recoveries
    assert counts.get("fault.crash_abort", 0) == stats.crash_aborted_families
    assert counts.get("fault.lock_timeout", 0) == stats.lock_timeouts


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
        assert_fault_trace_mirrors_stats(cluster)
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
        assert stats.messages_dropped > 0
        assert stats.messages_duplicated > 0
        assert stats.crashes > 0
        assert stats.lock_timeouts > 0
        assert_fault_trace_mirrors_stats(cluster)
        assert_net_trace_mirrors_stats(cluster)


class TestConflictOracleUnderChaos:
    def test_chaos_run_is_conflict_serializable(self):
        cluster, _run = chaos_run(FAULT_PRESETS["chaos"])
        verdict = judge(cluster)
        assert verdict.ok, verdict.failure_summary()
