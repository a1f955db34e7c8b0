"""Trace invariant checkers on hand-built and real traces."""

import copy

import pytest

from repro.check import (
    check_commit_order,
    check_liveness,
    check_page_version_monotonic,
    check_reference_model,
    run_invariants,
)

from repro.check.explorer import FuzzTask, build_config, judge
from repro.check.mutations import install_mutations
from repro.runtime import Cluster
from repro.workload import SCENARIOS, generate_workload, run_workload

from conftest import Counter, make_cluster

from test_check_reference import (
    grant,
    inherit,
    prefetch,
    release,
    txn_end,
    wait_grant,
)


def install(obj, versions, ts=0.0):
    return {
        "name": f"transfer.install O{obj}", "category": "transfer",
        "phase": "i", "ts": ts,
        "args": {"object": f"O{obj}", "versions": versions},
    }


def checkers(violations):
    return [violation.checker for violation in violations]


class TestSingleWriter:
    """Multiple readers / single writer across families: the reference
    model's conflict rule, which owns it."""

    def test_two_families_writing_one_object(self):
        trace = [grant("T0", 1, "W"), wait_grant("T5", 1, "W")]
        assert checkers(check_reference_model(trace)) == [
            "reference.conflict"
        ]

    def test_reader_present_while_writer_granted(self):
        trace = [grant("T0", 1, "R"), grant("T5", 1, "W")]
        assert checkers(check_reference_model(trace)) == [
            "reference.conflict"
        ]

    def test_concurrent_readers_allowed(self):
        trace = [grant("T0", 1, "R"), grant("T5", 1, "R"),
                 grant("T9", 1, "R")]
        assert check_reference_model(trace) == []

    def test_release_clears_presence(self):
        trace = [grant("T0", 1, "W"), release(0, [1]),
                 grant("T5", 1, "W")]
        assert check_reference_model(trace) == []

    def test_same_family_is_never_a_conflict(self):
        # A sub enters what its ancestor *retains*; an ancestor that
        # still *holds* the lock is §3.4's recursion, not a conflict.
        retained = [grant("T1/r0", 1, "W", lineage=[0]),
                    inherit("T1/r0", "T0", [1]),
                    txn_end("T1/r0", "commit"),
                    grant("T2/r0", 1, "W", lineage=[0])]
        assert check_reference_model(retained) == []
        held = [grant("T0", 1, "W"),
                grant("T1/r0", 1, "W", lineage=[0])]
        assert checkers(check_reference_model(held)) == [
            "reference.recursion"
        ]

    def test_crash_abort_clears_presence(self):
        trace = [
            grant("T0", 1, "W"),
            {"name": "fault.crash_abort", "category": "fault",
             "phase": "i", "ts": 0.0, "args": {"root": 0}},
            grant("T5", 1, "W"),
        ]
        assert check_reference_model(trace) == []


class TestRetainedDescendants:
    """Moss retention: a retained lock admits, in a conflicting mode,
    only the retainer and its descendants — the reference model's
    retention rule, which owns it."""

    def test_foreign_family_admitted_under_retention(self):
        trace = [prefetch("T1/r0", 1, "W", lineage=[0]),
                 grant("T5", 1, "W")]
        assert checkers(check_reference_model(trace)) == [
            "reference.retention"
        ]

    def test_descendant_admitted_under_retention(self):
        trace = [prefetch("T1/r0", 1, "W", lineage=[0]),
                 grant("T9/r0", 1, "W", lineage=[1, 0])]
        assert check_reference_model(trace) == []

    def test_read_retention_shares_with_foreign_readers(self):
        trace = [prefetch("T1/r0", 1, "R", lineage=[0]),
                 grant("T5", 1, "R")]
        assert check_reference_model(trace) == []
        writer = trace[:1] + [grant("T5", 1, "W")]
        assert checkers(check_reference_model(writer)) == [
            "reference.retention"
        ]

    def test_inherited_retention_keeps_the_held_mode(self):
        # A read hold pre-committed up the tree stays a *read*
        # retention — a foreign reader admitted afterwards is legal.
        trace = [grant("T1/r0", 1, "R", lineage=[0]),
                 inherit("T1/r0", "T0", [1]),
                 txn_end("T1/r0", "commit"),
                 grant("T5", 1, "R")]
        assert check_reference_model(trace) == []
        # The same choreography with a write hold still excludes.
        written = [grant("T1/r0", 1, "W", lineage=[0]),
                   inherit("T1/r0", "T0", [1]),
                   txn_end("T1/r0", "commit"),
                   grant("T5", 1, "R")]
        assert checkers(check_reference_model(written)) == [
            "reference.retention"
        ]

    def test_retention_moves_up_on_inherit(self):
        # After T1/r0 pre-commits, the *root* retains; a stranger is
        # still excluded, a child of the root is still admitted.
        prefix = [prefetch("T1/r0", 1, "W", lineage=[0]),
                  inherit("T1/r0", "T0", [1]),
                  txn_end("T1/r0", "commit")]
        stranger = prefix + [grant("T5", 1, "W")]
        assert checkers(check_reference_model(stranger)) == [
            "reference.retention"
        ]
        child = prefix + [grant("T2/r0", 1, "W", lineage=[0])]
        assert check_reference_model(child) == []

    def test_root_end_drops_family_retentions(self):
        trace = [prefetch("T1/r0", 1, "W", lineage=[0]),
                 inherit("T1/r0", "T0", [1]),
                 release(0, [1]),
                 txn_end("T0", "commit"),
                 grant("T5", 1, "W")]
        assert check_reference_model(trace) == []


class TestPageVersionMonotonic:
    def test_growing_versions_are_clean(self):
        trace = [install(1, {"0": 1, "1": 1}), install(1, {"0": 2}),
                 install(1, {"0": 2})]
        assert check_page_version_monotonic(trace) == []

    def test_regression_is_flagged(self):
        trace = [install(1, {"0": 3}), install(1, {"0": 2})]
        violations = check_page_version_monotonic(trace)
        assert checkers(violations) == ["invariant.page-version"]
        assert "stale" in violations[0].message

    def test_objects_and_pages_are_independent(self):
        trace = [install(1, {"0": 5}), install(2, {"0": 1}),
                 install(1, {"1": 1})]
        assert check_page_version_monotonic(trace) == []


class TestCommitOrder:
    def test_conflicting_grants_must_commit_in_order(self):
        trace = [
            grant("T0", 1, "W"), release(0, [1]),
            grant("T5", 1, "W"), release(5, [1]),
            txn_end("T5", "commit"), txn_end("T0", "commit"),
        ]
        assert checkers(check_commit_order(trace)) == [
            "invariant.commit-order"
        ]

    def test_matching_orders_are_clean(self):
        trace = [
            grant("T0", 1, "W"), release(0, [1]), txn_end("T0", "commit"),
            grant("T5", 1, "W"), release(5, [1]), txn_end("T5", "commit"),
        ]
        assert check_commit_order(trace) == []

    def test_read_read_order_is_unconstrained(self):
        trace = [
            grant("T0", 1, "R"), grant("T5", 1, "R"),
            txn_end("T5", "commit"), txn_end("T0", "commit"),
        ]
        assert check_commit_order(trace) == []

    def test_uncommitted_families_are_ignored(self):
        trace = [grant("T0", 1, "W"), grant("T5", 1, "W"),
                 txn_end("T5", "commit")]
        assert check_commit_order(trace) == []

    @pytest.mark.parametrize("first", ["T0", "T5"])
    def test_two_object_write_cycle(self, first):
        """T0 writes O1 before T5 and T5 writes O2 before T0: a
        precedence cycle, so whichever root commits first, one object's
        grants go against commit order."""
        second = "T5" if first == "T0" else "T0"
        trace = [
            grant("T0", 1, "W"), grant("T5", 2, "W"),
            grant("T5", 1, "W"), grant("T0", 2, "W"),
            txn_end(first, "commit"), txn_end(second, "commit"),
        ]
        assert checkers(check_commit_order(trace)) == [
            "invariant.commit-order"
        ]

    def test_reader_before_a_writer_that_commits_first(self):
        # The R-W anti-dependency: T0 read O1 before T5 overwrote it, so
        # T0 must commit first.
        trace = [
            grant("T0", 1, "R"), grant("T5", 1, "W"),
            txn_end("T5", "commit"), txn_end("T0", "commit"),
        ]
        assert checkers(check_commit_order(trace)) == [
            "invariant.commit-order"
        ]

    @pytest.mark.parametrize("commutes, flagged", [
        ([["deposit", "deposit"]], []),
        ([], ["invariant.commit-order"]),
    ], ids=["listed", "omitted"])
    def test_semantic_pair_is_judged_by_the_commtable(self, commutes,
                                                      flagged):
        """Two ``W+Account.deposit`` grants in reverse commit order
        conflict unless the trace's table lists the pair as commuting."""
        table = {"name": "lock.commtable", "category": "lock",
                 "phase": "i", "ts": 0.0,
                 "args": {"table": {"class": "Account",
                                    "commutes": commutes}}}
        trace = [
            table,
            grant("T0", 1, "W+Account.deposit"),
            grant("T5", 1, "W+Account.deposit"),
            txn_end("T5", "commit"), txn_end("T0", "commit"),
        ]
        assert checkers(check_commit_order(trace)) == flagged


def txn_start(root, ts=0.0):
    return {
        "name": f"txn.start T{root}", "category": "txn", "phase": "i",
        "ts": ts, "args": {"txn": f"T{root}", "root": root},
    }


def crash(node, ts=0.0):
    return {
        "name": f"fault.node_crash N{node}", "category": "fault",
        "phase": "i", "ts": ts,
        "args": {"crashed_node": node, "down_for_s": 0.01},
    }


def recover(node, ts=0.0):
    return {
        "name": f"fault.node_recover N{node}", "category": "fault",
        "phase": "i", "ts": ts, "args": {"recovered_node": node},
    }


def crash_abort(root, node=1, ts=0.0):
    return {
        "name": f"fault.crash_abort T{root}", "category": "fault",
        "phase": "i", "ts": ts, "args": {"crashed_node": node, "root": root},
    }


def partition(group_a, ts=0.0):
    return {
        "name": f"fault.partition {list(group_a)}", "category": "fault",
        "phase": "i", "ts": ts,
        "args": {"group_a": list(group_a), "heal_after_s": 0.01},
    }


def partition_heal(group_a, ts=0.0):
    return {
        "name": f"fault.partition_heal {list(group_a)}", "category": "fault",
        "phase": "i", "ts": ts, "args": {"group_a": list(group_a)},
    }


class TestLiveness:
    def test_committed_and_aborted_families_are_live(self):
        trace = [
            txn_start(0), txn_start(7),
            txn_end("T0", "commit"), txn_end("T7", "abort"),
        ]
        assert check_liveness(trace) == []

    def test_unterminated_family_is_flagged_when_all_healed(self):
        trace = [
            crash(1), txn_start(3), recover(1),
            txn_start(4), txn_end("T4", "commit"),
        ]
        assert checkers(check_liveness(trace)) == ["invariant.liveness"]

    def test_crash_abort_counts_as_termination(self):
        trace = [txn_start(3), crash(1), crash_abort(3), recover(1)]
        assert check_liveness(trace) == []

    def test_unrecovered_crash_excuses_stuck_families(self):
        # Fail-stop without recovery: waiting forever on a dead node is
        # the expected behaviour, not a protocol bug.
        trace = [txn_start(3), crash(1)]
        assert check_liveness(trace) == []

    def test_unhealed_partition_excuses_stuck_families(self):
        trace = [txn_start(3), partition((0, 1))]
        assert check_liveness(trace) == []

    def test_healed_partition_does_not_excuse(self):
        trace = [txn_start(3), partition((0, 1)), partition_heal((0, 1))]
        assert checkers(check_liveness(trace)) == ["invariant.liveness"]

    def test_sub_transaction_spans_do_not_terminate_the_family(self):
        # Only the *root's* end span terminates; a child ending while
        # the root hangs is exactly the ghost-holder signature.
        trace = [
            txn_start(3), txn_end("T9/r3", "commit"),
        ]
        assert checkers(check_liveness(trace)) == ["invariant.liveness"]

    def test_one_open_window_among_many_healed_still_excuses(self):
        trace = [
            crash(1), recover(1), crash(2),  # second window never heals
            txn_start(3),
        ]
        assert check_liveness(trace) == []


class TestRunInvariants:
    def test_aggregates_every_checker(self):
        trace = [
            grant("T0", 1, "W"), wait_grant("T5", 1, "W"),
            install(2, {"0": 3}), install(2, {"0": 1}),
            txn_end("T5", "commit"), txn_end("T0", "commit"),
            txn_start(3),
        ]
        assert checkers(run_invariants(trace)) == [
            "invariant.page-version", "invariant.commit-order",
            "invariant.liveness",
        ]

    def test_live_cluster_trace_is_clean(self):
        cluster = make_cluster(protocol="lotec", seed=4, trace=True)
        counter = cluster.create(Counter)
        for node in cluster.nodes:
            cluster.submit(counter, "add", 1, node=node)
        cluster.run()
        assert run_invariants(cluster.trace_events) == []


class TestJudgesReadOnly:
    """``TraceEvent.to_dict`` shares ``args`` with the event instead of
    copying it, so no judge may write to it: the reference model, the
    commutativity pre-scan and the invariant checkers only read."""

    @pytest.mark.parametrize("task", [
        FuzzTask(seed=3, scale=0.125),
        FuzzTask(seed=4, scale=0.125, semantic=True, migration=True),
        FuzzTask(seed=5, scale=0.125, preset="chaos"),
        FuzzTask(seed=0, scale=0.125, mutate=("skip-precommit-retention",)),
    ], ids=lambda task: task.describe())
    def test_judge_leaves_event_args_alone(self, task):
        cluster = Cluster(build_config(task))
        install_mutations(cluster, task.mutate)
        params = SCENARIOS[task.scenario].scaled(task.scale)
        run_workload(cluster, generate_workload(params, seed=task.seed))
        before = copy.deepcopy([event.args for event in cluster.trace_events])
        verdict = judge(cluster)
        assert verdict.trace
        assert [event.args for event in cluster.trace_events] == before
