"""Crash recovery: durable records, GDO home failover, node rejoin,
partition/slow-node windows, and the crash-instant rollback of a doomed
family's volatile writes."""

import pytest

from repro import Attr, method, shared_class
from repro.check.explorer import FuzzTask, run_task
from repro.faults import (
    FAULT_PRESETS,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    PartitionEvent,
    RecoveryManager,
    SlowNodeEvent,
    WalSet,
)
from repro.net import Message, MessageCategory
from repro.util.errors import NodeCrashError
from repro.util.ids import NodeId, ObjectId
from repro.util.rng import SeededRNG

from conftest import Counter, make_cluster

N0, N1, N2, N3 = (NodeId(index) for index in range(4))
O0, O1 = ObjectId(0), ObjectId(1)


@shared_class
class WriteThenCall:
    """Writes locally, then blocks on a remote child invocation —
    exactly the shape whose uncommitted write a crash must discard."""

    value = Attr(size=8, default=0)

    @method
    def write_then_call(self, ctx, other):
        self.value = 42
        result = yield ctx.invoke(other, "get")
        return result


class FakeEntry:
    """Just enough of a DirectoryEntry for record_holders."""

    def __init__(self, holders, retainers=()):
        self.holders = {txn: mode for txn, mode, _ in holders}
        self._holder_txns = {txn: ref for txn, _, ref in holders}
        self.retainers = {txn: mode for txn, mode, _ in retainers}
        self._retainer_txns = {txn: ref for txn, _, ref in retainers}


class TestNodeWal:
    def test_record_page_is_last_writer_wins(self):
        wal = WalSet(2)
        wal.record_page(0, O0, 0, 3)
        wal.record_page(0, O0, 0, 5)
        wal.record_page(0, O0, 1, 1)
        assert wal.node(0).pages == {(O0, 0): 5, (O0, 1): 1}
        assert wal.node(1).pages == {}

    def test_record_home_moved_transfers_home_and_drops_holders(self):
        wal = WalSet(2)
        wal.record_home(0, O0)
        wal.node(0).holders[O0] = [("T1", "W")]
        wal.record_home_moved(0, 1, O0)
        assert O0 not in wal.node(0).homes
        assert O0 not in wal.node(0).holders
        assert O0 in wal.node(1).homes

    def test_record_holders_snapshots_holders_and_retainers(self):
        wal = WalSet(1)
        holder_ref, retainer_ref = object(), object()
        entry = FakeEntry(
            holders=[("T1", "W", holder_ref)],
            retainers=[("T2/r0", "R", retainer_ref)],
        )
        wal.record_holders(0, O0, entry)
        # Live transaction references, not ids: reconciliation must be
        # able to point back at the exact transactions recorded.
        assert wal.node(0).holders[O0] == [
            (holder_ref, "W"), (retainer_ref, "R"),
        ]

    def test_record_count_sums_all_record_kinds(self):
        wal = WalSet(1)
        wal.record_page(0, O0, 0, 1)
        wal.record_home(0, O1)
        wal.record_holders(0, O0, FakeEntry(holders=[]))
        assert wal.node(0).record_count() == 3

    def test_null_wal_records_nothing(self):
        # Faults on but no crash planned: there is no WAL, and no
        # durable write (commit, grant, release) is hooked on.
        cluster = make_cluster(faults=FAULT_PRESETS["lock-timeout"], seed=3)
        counter = cluster.create(Counter)
        for _ in range(12):
            cluster.submit(counter, "add", 1)
        cluster.run()
        assert cluster.read_attr(counter, "value") == 12
        assert cluster.lock_stats.global_acquisitions > 0
        assert cluster.wal is None and cluster.recovery is None
        assert cluster.lockmgr.grant_hooks == []
        assert cluster.lockmgr.release_hooks == []

    def test_cluster_wires_a_wal_only_when_crashes_are_planned(self):
        cluster = make_cluster()
        assert cluster.wal is None
        assert cluster.lockmgr.grant_hooks == []
        assert cluster.lockmgr.release_hooks == []
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=1.0, down_for_s=0.01),))
        cluster = make_cluster(faults=plan)
        assert isinstance(cluster.wal, WalSet)
        assert cluster.recovery.wal is cluster.wal
        assert cluster.lockmgr.grant_hooks == [cluster.recovery.record_holders]
        assert cluster.lockmgr.release_hooks == [
            cluster.recovery.record_release]
        handle = cluster.create(Counter)
        # Creation records the home durably straight away.
        home = cluster.directory.entry(handle.object_id).home_node
        assert handle.object_id in cluster.wal.node(home.value).homes


def recovery_for(plan, nodes=4):
    """A RecoveryManager wired just enough to ask successor_of."""
    injector = FaultInjector(plan, SeededRNG(0))
    return RecoveryManager(
        env=None, injector=injector, directory=None, cache=None,
        wal=None,
        nodes=[NodeId(index) for index in range(nodes)], tracer=None,
    )


class TestSuccessorDeterminism:
    def test_next_in_shard_order(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.0, down_for_s=1.0),))
        assert recovery_for(plan).successor_of(1, 0.5) == N2

    def test_skips_simultaneously_down_nodes(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.0, down_for_s=1.0),
            CrashEvent(node_index=2, at_s=0.0, down_for_s=1.0),
        ))
        assert recovery_for(plan).successor_of(1, 0.5) == N3

    def test_wraps_modulo_cluster_size(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=3, at_s=0.0, down_for_s=1.0),))
        assert recovery_for(plan).successor_of(3, 0.5) == N0

    def test_none_when_every_other_node_is_down(self):
        plan = FaultPlan(crashes=tuple(
            CrashEvent(node_index=index, at_s=0.0, down_for_s=1.0)
            for index in range(4)
        ))
        assert recovery_for(plan).successor_of(0, 0.5) is None

    def test_pure_function_of_time(self):
        # The same question after the window heals has a different
        # answer — and two managers always agree, which is the whole
        # coordination-free determinism argument.
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.0, down_for_s=1.0),))
        first, second = recovery_for(plan), recovery_for(plan)
        assert first.successor_of(0, 0.5) == second.successor_of(0, 0.5) == N2
        assert first.successor_of(0, 2.0) == N1


def wire_msg(src, dst):
    return Message(src=src, dst=dst, category=MessageCategory.PAGE_DATA,
                   size_bytes=100)


class TestPartitionWindows:
    PLAN = FaultPlan(partitions=(
        PartitionEvent(group_a=(0, 1), at_s=0.01, heal_after_s=0.02),))

    def injector(self, plan=None):
        return FaultInjector(plan or self.PLAN, SeededRNG(3))

    def test_cut_separates_the_groups_only_inside_the_window(self):
        injector = self.injector()
        assert injector.cut(N0, N2, 0.02)
        assert injector.cut(N3, N1, 0.02)  # symmetric
        assert not injector.cut(N0, N1, 0.02)  # same side
        assert not injector.cut(N2, N3, 0.02)  # same side (complement)
        assert not injector.cut(N0, N2, 0.005)  # before
        assert not injector.cut(N0, N2, 0.03)  # healed (half-open window)

    def test_partition_until_reports_the_heal_instant(self):
        injector = self.injector()
        assert injector.partition_until(N0, N2, 0.02) == pytest.approx(0.03)
        assert injector.partition_until(N0, N1, 0.02) == 0.0

    def test_cross_cut_messages_drop_and_are_accounted(self):
        injector = self.injector()
        verdict = injector.message_faults(wire_msg(N0, N2), 0, 0.02)
        assert verdict.dropped
        assert injector.stats.messages_dropped == 1
        assert injector.stats.partition_dropped == 1
        # Same-side traffic flows clean through the window.
        assert not injector.message_faults(wire_msg(N0, N1), 0, 0.02).dropped
        assert injector.stats.partition_dropped == 1

    def test_partition_drop_preempts_probabilistic_draws(self):
        # The cut rule fires before any RNG draw: even with certain
        # duplication the verdict is a plain drop, so the fault stream
        # is not perturbed by partition losses.
        plan = FaultPlan(
            duplicate_probability=1.0,
            partitions=self.PLAN.partitions,
        )
        verdict = self.injector(plan).message_faults(
            wire_msg(N0, N2), 0, 0.02)
        assert verdict.dropped and not verdict.duplicated

    def test_synchronous_path_ignores_partitions(self):
        # charge()'s clock is frozen; waiting out a heal would never
        # terminate, so the synchronous path skips the cut rule.
        injector = self.injector()
        verdict = injector.message_faults(wire_msg(N0, N2), 0, 0.02,
                                          synchronous=True)
        assert not verdict.dropped
        assert injector.stats.partition_dropped == 0


class TestSlowNodeWindows:
    PLAN = FaultPlan(slow_nodes=(
        SlowNodeEvent(node_index=1, at_s=0.0, for_s=1.0,
                      per_message_s=0.004),))

    def test_surcharge_is_deterministic_and_per_endpoint(self):
        injector = FaultInjector(self.PLAN, SeededRNG(0))
        verdict = injector.message_faults(wire_msg(N0, N1), 0, 0.5)
        assert verdict.extra_delay_s == pytest.approx(0.004)
        # Both endpoints degraded -> both surcharges, still no draw.
        both = injector.message_faults(wire_msg(N1, N1), 0, 0.5)
        assert both.extra_delay_s == pytest.approx(0.008)
        assert injector.stats.slow_delay_s == pytest.approx(0.012)
        assert injector.stats.delay_injected_s == 0.0

    def test_no_surcharge_outside_the_window_or_node(self):
        injector = FaultInjector(self.PLAN, SeededRNG(0))
        assert injector.message_faults(wire_msg(N0, N1), 0, 1.5).extra_delay_s == 0.0
        assert injector.message_faults(wire_msg(N0, N2), 0, 0.5).extra_delay_s == 0.0

    def test_surcharge_applies_on_the_synchronous_path(self):
        injector = FaultInjector(self.PLAN, SeededRNG(0))
        verdict = injector.message_faults(wire_msg(N0, N1), 0, 0.5,
                                          synchronous=True)
        assert verdict.extra_delay_s == pytest.approx(0.004)


#: Crash N0 at 5 ms for 50 ms; failover detection fires at 7 ms.
FAILOVER_PLAN = FaultPlan(
    failover_detect_s=0.002,
    crashes=(CrashEvent(node_index=0, at_s=0.005, down_for_s=0.05),),
)


class TestFailoverRejoin:
    """End-to-end: home dies, entries fail over to the deterministic
    successor, commits proceed through the down window, and rejoin
    reclaims the homes from durable state."""

    def make(self):
        cluster = make_cluster(trace=True, faults=FAILOVER_PLAN)
        # O0 is *homed* at N0 (round-robin by object id) but its pages
        # live at N1, so only the directory role dies with N0.
        handle = cluster.create(Counter, node=N1)
        assert cluster.directory.entry(handle.object_id).home_node == N0
        return cluster, handle

    def test_home_fails_over_then_rejoin_reclaims(self):
        cluster, handle = self.make()
        cluster.env.run(until=0.01)
        entry = cluster.directory.entry(handle.object_id)
        assert entry.home_node == N1  # deterministic successor
        assert cluster.fault_stats.failovers == 1
        # The successor's durable record now claims the home; the
        # crashed node's unreachable record keeps its stale claim.
        assert handle.object_id in cluster.wal.node(1).homes
        assert handle.object_id in cluster.wal.node(0).homes
        cluster.run()
        assert cluster.directory.entry(handle.object_id).home_node == N0
        assert cluster.fault_stats.recoveries == 1
        assert cluster.fault_stats.rejoin_reclaimed_homes == 1
        assert handle.object_id not in cluster.wal.node(1).homes
        names = [event.name for event in cluster.trace_events]
        assert "gdo.failover O0" in names
        assert "fault.node_rejoin N0" in names

    def test_commits_proceed_during_the_down_window(self):
        cluster, handle = self.make()
        cluster.env.run(until=0.01)
        ticket = cluster.submit(handle, "add", 5, node=N2)
        cluster.env.run(until=0.04)  # still inside the down window
        assert ticket.done and ticket.result() == 5
        # The grant/release snapshots went to the *successor's* durable
        # record; the dead home's storage took no writes.
        assert handle.object_id in cluster.wal.node(1).holders
        assert handle.object_id not in cluster.wal.node(0).holders
        cluster.run()
        follow_up = cluster.submit(handle, "add", 1, node=N3)
        cluster.run()
        assert follow_up.result() == 6
        assert cluster.read_attr(handle, "value") == 6

    def test_wal_writes_suppressed_while_the_home_is_down(self):
        # Before failover re-homes the entry there is a window where
        # the home is both authoritative and dead: the lock manager
        # must not write to its stable storage.
        cluster, handle = self.make()
        entry = cluster.directory.entry(handle.object_id)
        cluster.recovery.record_holders(entry)
        assert handle.object_id in cluster.wal.node(0).holders  # up: writes
        cluster.wal.node(0).holders.clear()
        cluster.env.run(until=0.006)  # down, failover not yet detected
        cluster.recovery.record_holders(entry)
        assert handle.object_id not in cluster.wal.node(0).holders


#: Crash N2 at 1 ms — after WriteThenCall's local write lands (~0.75 ms)
#: but while the family is blocked on its remote child call.
ROLLBACK_PLAN = FaultPlan(crashes=(
    CrashEvent(node_index=2, at_s=0.001, down_for_s=0.01),))


class TestCrashRollback:
    """A crash frees the doomed family's locks at the crash instant, so
    its uncommitted writes must be discarded at that same instant — the
    family's own exception-driven unwinding can stall on the dead
    node's messaging until rejoin, long after the locks are re-granted."""

    def launch(self):
        cluster = make_cluster(faults=ROLLBACK_PLAN)
        obj = cluster.create(WriteThenCall)
        other = cluster.create(Counter)
        ticket = cluster.submit(obj, "write_then_call", other, node=N2)
        return cluster, obj, ticket

    def probe_slot(self, cluster, obj):
        store = cluster.executor.stores[N2]
        return store.peek_slot(obj.object_id, ("value", 0))

    def test_uncommitted_write_is_discarded_at_the_crash_instant(self):
        cluster, obj, ticket = self.launch()
        cluster.env.run(until=0.0011)  # just past the crash
        assert self.probe_slot(cluster, obj) == (True, 0)
        cluster.run()
        assert cluster.fault_stats.crash_aborted_families == 1
        assert self.probe_slot(cluster, obj) == (True, 0)
        assert cluster.read_attr(obj, "value") == 0
        with pytest.raises(NodeCrashError):
            ticket.result()

    def test_probe_discriminates(self):
        # Negative control: with the rollback stubbed out, the dirty
        # write is visible right after the crash — proving the probe
        # instant really sits inside the old exposure window.
        cluster, obj, _ticket = self.launch()
        cluster.crash_controller.crash_rollback = lambda root: 0
        cluster.env.run(until=0.0011)
        assert self.probe_slot(cluster, obj) == (True, 42)


class TestRejoinMutationCaught:
    """The seeded ghost-holder mutation must trip the liveness checker."""

    def run_mutated(self, seed):
        task = FuzzTask(seed=seed, preset="crash-partition", scale=0.5,
                        mutate=("skip-rejoin-invalidation",))
        return run_task(task)

    def test_ghost_holders_starve_the_cluster(self):
        report = self.run_mutated(seed=0)
        tags = [violation.checker for violation in report.violations]
        assert "invariant.liveness" in tags

    def test_caught_across_seeds(self):
        caught = sum(
            "invariant.liveness" in
            [v.checker for v in self.run_mutated(seed).violations]
            for seed in range(4)
        )
        assert caught >= 3

    def test_unmutated_preset_is_clean(self):
        report = run_task(FuzzTask(seed=0, preset="crash-partition",
                                   scale=0.5))
        assert report.ok, report.failure_summary()
