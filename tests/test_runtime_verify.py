"""Tests for the serializability oracle itself.

An oracle that cannot detect corruption proves nothing, so half of
these tests *inject* wrong state / wrong results and assert the oracle
flags them.
"""

import pytest

from repro import check_serializability, replay_serially
from repro.runtime.executor import freeze_args, thaw_args, _HandleRef

from conftest import Counter, Orchestrator, make_cluster


@pytest.fixture
def busy_cluster():
    cluster = make_cluster(protocol="lotec", seed=13)
    counters = [cluster.create(Counter) for _ in range(4)]
    boss = cluster.create(Orchestrator)
    for index in range(10):
        cluster.submit(counters[index % 4], "add", index + 1)
    cluster.submit(boss, "fanout", counters[:2], 5)
    cluster.run()
    return cluster


class TestFreezeThaw:
    def test_handles_replaced_and_restored(self, cluster):
        counter = cluster.create(Counter)
        frozen = freeze_args((counter, [1, counter], {"k": counter}))
        assert frozen == (
            _HandleRef(0), [1, _HandleRef(0)], {"k": _HandleRef(0)},
        )
        thawed = thaw_args(frozen, lambda value: f"handle-{value}")
        assert thawed == ("handle-0", [1, "handle-0"], {"k": "handle-0"})

    def test_every_occurrence_is_the_handles_one_ref(self, cluster):
        counter = cluster.create(Counter)
        frozen = freeze_args((counter, [counter], {"k": (counter,)}))
        assert frozen[0] is counter.ref
        assert frozen[1][0] is counter.ref and frozen[2]["k"][0] is counter.ref
        assert freeze_args([counter] * 3) is not freeze_args([counter] * 3)

    def test_commit_log_snapshots_mutable_arguments(self, cluster):
        """Freezing is eager: a caller may reuse a list argument."""
        counters = [cluster.create(Counter) for _ in range(2)]
        boss = cluster.create(Orchestrator)
        cluster.call(boss, "fanout", counters, 5)
        recorded = cluster.commit_log[-1].frozen_args
        assert recorded == ([counters[0].ref, counters[1].ref], 5)
        counters.append(boss)
        counters[0] = None
        assert cluster.commit_log[-1].frozen_args == recorded
        assert len(recorded[0]) == 2 and recorded[0][0] is not None

    def test_plain_values_untouched(self):
        data = (1, "x", 2.5, None)
        assert freeze_args(data) == data
        assert thaw_args(data, lambda v: v) == data


class TestReplay:
    def test_replay_reproduces_state(self, busy_cluster):
        serial = replay_serially(busy_cluster)
        assert serial.state_digest() == busy_cluster.state_digest()

    def test_replay_preserves_object_ids(self, busy_cluster):
        serial = replay_serially(busy_cluster)
        assert serial.registry.all_objects() == \
            busy_cluster.registry.all_objects()

    def test_report_counts_commits(self, busy_cluster):
        report = check_serializability(busy_cluster)
        assert report.equivalent
        assert report.committed_roots == len(busy_cluster.commit_log)


class TestOracleDetectsCorruption:
    def test_state_corruption_detected(self, busy_cluster):
        # Tamper with the authoritative copy of one counter.
        handle = busy_cluster.handle(busy_cluster.registry.all_objects()[0])
        entry = busy_cluster.directory.entry(handle.object_id)
        owner = entry.page_owner(0)
        busy_cluster.stores[owner].write_slot(
            handle.object_id, ("value", 0), 999_999
        )
        report = check_serializability(busy_cluster)
        assert not report.equivalent
        assert report.state_mismatches

    def test_result_corruption_detected(self, busy_cluster):
        from dataclasses import replace

        record = busy_cluster.commit_log[-1]
        busy_cluster.commit_log[-1] = replace(record, result=-12345)
        report = check_serializability(busy_cluster)
        assert not report.equivalent
        assert report.result_mismatches

    def test_lost_update_detected(self, busy_cluster):
        # Simulate a lost update by deleting one commit record: the
        # serial replay then disagrees with the concurrent state.
        removed = None
        for index, record in enumerate(busy_cluster.commit_log):
            if record.method_name == "add":
                removed = busy_cluster.commit_log.pop(index)
                break
        assert removed is not None
        report = check_serializability(busy_cluster)
        assert not report.equivalent


class TestAbortsInvisibleToOracle:
    def test_aborted_roots_not_replayed(self):
        from repro import TransactionAborted

        cluster = make_cluster(seed=1)
        counter = cluster.create(Counter, initial={"value": 3})
        cluster.call(counter, "add", 1)
        with pytest.raises(TransactionAborted):
            cluster.call(counter, "fail_after_write", 50)
        report = check_serializability(cluster)
        assert report.equivalent
        assert report.committed_roots == 1
