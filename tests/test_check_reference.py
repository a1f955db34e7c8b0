"""The nested-O2PL reference model, fed hand-built trace streams.

Each test scripts a tiny trace (the JSONL-shaped dicts the tracer
sanitizes to) and asserts the model's judgement: legal choreographies
pass, and each forbidden acquire/retain/release pattern from
Algorithms 4.1-4.4 is flagged with the right checker tag.  A final
test feeds the model a real cluster trace to pin the two
implementations together.
"""

from repro.check import ReferenceModel, check_reference_model
from repro.check.events import TxnRef, parse_object, parse_txn

from conftest import Counter, Orchestrator, make_cluster


# -- trace-building helpers (sanitized event shapes) -------------------

def grant(txn, obj, mode="W", lineage=(), ts=0.0):
    return {
        "name": f"lock.grant O{obj}", "category": "lock", "phase": "i",
        "ts": ts,
        "args": {"txn": txn, "object": f"O{obj}", "mode": mode,
                 "lineage": list(lineage)},
    }


def wait_grant(txn, obj, mode="W", lineage=(), ts=0.0):
    return {
        "name": f"lock.wait O{obj}", "category": "lock", "phase": "X",
        "ts": ts,
        "args": {"txn": txn, "object": f"O{obj}", "mode": mode,
                 "granted": True, "lineage": list(lineage)},
    }


def prefetch(txn, obj, mode="W", lineage=(), ts=0.0):
    return {
        "name": f"lock.prefetch O{obj}", "category": "lock", "phase": "i",
        "ts": ts,
        "args": {"txn": txn, "object": f"O{obj}", "mode": mode,
                 "outcome": "granted", "lineage": list(lineage)},
    }


def inherit(txn, parent, objs, ts=0.0):
    return {
        "name": "lock.inherit", "category": "lock", "phase": "i", "ts": ts,
        "args": {"txn": txn, "parent": parent,
                 "objects": [f"O{obj}" for obj in objs]},
    }


def release(root, objs, ts=0.0):
    return {
        "name": "lock.release", "category": "lock", "phase": "i", "ts": ts,
        "args": {"root": root, "objects": [f"O{obj}" for obj in objs],
                 "cause": "commit"},
    }


def txn_end(txn, outcome, ts=0.0):
    return {
        "name": f"txn:{txn}", "category": "txn", "phase": "X", "ts": ts,
        "args": {"txn": txn, "outcome": outcome},
    }


def checkers(violations):
    return [violation.checker for violation in violations]


class TestParsing:
    def test_txn_refs(self):
        assert parse_txn("T5") == TxnRef(5, 5)
        assert parse_txn("T5/r3") == TxnRef(5, 3)
        assert parse_txn("T5").is_root
        assert not parse_txn("T5/r3").is_root
        assert repr(parse_txn("T5/r3")) == "T5/r3"

    def test_object_refs(self):
        assert parse_object("O17") == 17


class TestLegalChoreographies:
    def test_nested_commit_flow_is_clean(self):
        # Child acquires, pre-commits to parent (retained), sibling
        # re-enters under the retention, root releases and commits.
        trace = [
            grant("T1/r0", 1, "W", lineage=[0]),
            inherit("T1/r0", "T0", [1]),
            txn_end("T1/r0", "commit"),
            grant("T2/r0", 1, "W", lineage=[0]),
            inherit("T2/r0", "T0", [1]),
            txn_end("T2/r0", "commit"),
            release(0, [1]),
            txn_end("T0", "commit"),
        ]
        assert check_reference_model(trace) == []

    def test_cross_family_readers_are_clean(self):
        trace = [
            grant("T0", 1, "R"), grant("T5", 1, "R"),
            release(0, [1]), txn_end("T0", "commit"),
            release(5, [1]), txn_end("T5", "commit"),
        ]
        assert check_reference_model(trace) == []

    def test_sub_abort_preserves_ancestor_retention(self):
        # First child pre-commits (root retains O1); second child
        # re-acquires, aborts — the root's retention must survive for
        # the third child without a fresh violation.
        trace = [
            grant("T1/r0", 1, "W", lineage=[0]),
            inherit("T1/r0", "T0", [1]),
            txn_end("T1/r0", "commit"),
            grant("T2/r0", 1, "W", lineage=[0]),
            txn_end("T2/r0", "abort"),
            grant("T3/r0", 1, "W", lineage=[0]),
            inherit("T3/r0", "T0", [1]),
            txn_end("T3/r0", "commit"),
            release(0, [1]),
            txn_end("T0", "commit"),
        ]
        model = ReferenceModel()
        partial = trace[:5]
        model.run(partial)
        # After the second child's abort the root still retains O1.
        assert model.retainers(1) == {TxnRef(0, 0): "W"}
        assert check_reference_model(trace) == []

    def test_crash_abort_frees_the_family(self):
        trace = [
            grant("T0", 1, "W"),
            {"name": "fault.crash_abort", "category": "fault",
             "phase": "i", "ts": 0.0, "args": {"root": 0}},
            grant("T5", 1, "W"),
            release(5, [1]), txn_end("T5", "commit"),
        ]
        assert check_reference_model(trace) == []


class TestForbiddenGrants:
    def test_cross_family_write_conflict(self):
        trace = [grant("T0", 1, "W"), wait_grant("T5", 1, "W")]
        violations = check_reference_model(trace)
        assert checkers(violations) == ["reference.conflict"]
        assert "T5" in violations[0].message

    def test_upgrade_with_other_readers(self):
        trace = [grant("T0", 1, "R"), grant("T5", 1, "R"),
                 grant("T0", 1, "W")]
        assert checkers(check_reference_model(trace)) == [
            "reference.upgrade"
        ]

    def test_upgrade_past_a_foreign_retainer(self):
        # Rule 1a binds upgrades too: T5's child read and pre-committed,
        # so T5 retains R, and T0 may not upgrade to W past it.
        trace = [grant("T0", 1, "R"), grant("T6/r5", 1, "R", lineage=[5]),
                 inherit("T6/r5", "T5", [1]), grant("T0", 1, "W")]
        assert checkers(check_reference_model(trace)) == [
            "reference.upgrade"
        ]

    def test_reentrant_grants_are_free(self):
        trace = [grant("T0", 1, "W"), grant("T0", 1, "R"),
                 grant("T0", 1, "W")]
        assert check_reference_model(trace) == []

    def test_sole_holder_upgrade_is_legal(self):
        trace = [grant("T0", 1, "R"), grant("T0", 1, "W")]
        assert check_reference_model(trace) == []

    def test_retained_lock_refused_to_non_descendant(self):
        # Rule 1a: after T1/r0 pre-fetched (hold demoted to retained),
        # a foreign family admitted under that retention is forbidden.
        trace = [prefetch("T1/r0", 1, "W", lineage=[0]),
                 grant("T5", 1, "W")]
        assert checkers(check_reference_model(trace)) == [
            "reference.retention"
        ]

    def test_read_retention_still_shares_with_foreign_readers(self):
        # Moss rule 1a is mode-dependent: a read retention excludes
        # foreign writers, not foreign readers.  (This also absorbs the
        # benign replay race where a read *hold* becomes a read
        # retention between a legal R-R grant decision and the grant's
        # delivery-time trace instant.)
        retained_r = [prefetch("T1/r0", 1, "R", lineage=[0])]
        assert check_reference_model(retained_r + [grant("T5", 1, "R")]) \
            == []
        assert checkers(check_reference_model(
            retained_r + [grant("T5", 1, "W")]
        )) == ["reference.retention"]

    def test_write_retention_excludes_foreign_readers(self):
        trace = [prefetch("T1/r0", 1, "W", lineage=[0]),
                 grant("T5", 1, "R")]
        assert checkers(check_reference_model(trace)) == [
            "reference.retention"
        ]

    def test_retained_lock_open_to_descendants(self):
        trace = [prefetch("T1/r0", 1, "W", lineage=[0]),
                 grant("T9/r0", 1, "W", lineage=[1, 0])]
        assert check_reference_model(trace) == []

    def test_recursion_preclusion(self):
        # §3.4: an ancestor *holds* — the child grant self-deadlocks.
        trace = [grant("T0", 1, "R"),
                 grant("T1/r0", 1, "R", lineage=[0])]
        assert checkers(check_reference_model(trace)) == [
            "reference.recursion"
        ]

    def test_write_recursion_never_allowed(self):
        trace = [grant("T0", 1, "W"),
                 grant("T1/r0", 1, "W", lineage=[0])]
        assert checkers(check_reference_model(trace)) == [
            "reference.recursion"
        ]


class TestInheritanceAndRelease:
    def test_sub_commit_without_inherit_is_flagged(self):
        trace = [grant("T1/r0", 1, "W", lineage=[0]),
                 txn_end("T1/r0", "commit")]
        violations = check_reference_model(trace)
        assert checkers(violations) == ["reference.inherit"]
        assert "retention skipped" in violations[0].message

    def test_inherit_of_nothing_is_flagged(self):
        trace = [inherit("T1/r0", "T0", [1])]
        assert checkers(check_reference_model(trace)) == [
            "reference.inherit"
        ]

    def test_root_end_with_leaked_locks_is_flagged(self):
        trace = [grant("T0", 1, "W"), txn_end("T0", "commit")]
        violations = check_reference_model(trace)
        assert checkers(violations) == ["reference.release"]
        assert "O1" in violations[0].message

    def test_inheritance_moves_hold_and_retention_up(self):
        model = ReferenceModel()
        model.run([
            grant("T2/r0", 1, "R", lineage=[1, 0]),
            prefetch("T2/r0", 2, "W", lineage=[1, 0]),
            inherit("T2/r0", "T1/r0", [1, 2]),
        ])
        assert model.holders(1) == {} and model.holders(2) == {}
        assert model.retainers(1) == {TxnRef(1, 0): "R"}
        assert model.retainers(2) == {TxnRef(1, 0): "W"}


class TestAgainstRealTraces:
    def test_live_cluster_trace_is_clean(self):
        cluster = make_cluster(protocol="lotec", seed=3, trace=True)
        counters = [cluster.create(Counter) for _ in range(3)]
        boss = cluster.create(Orchestrator)
        for node in cluster.nodes:
            cluster.submit(boss, "fanout", counters, 1, node=node)
        cluster.run()
        assert check_reference_model(cluster.trace_events) == []
