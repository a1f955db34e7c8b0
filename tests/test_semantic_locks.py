"""Semantic lock modes end to end.

Covers the commutativity tables (trust tiers, blind increments, the
conservative R/W fallback, inherited bodies, determinism), the
SemanticMode lattice itself, and live-cluster integration with
``semantic_locks=True``: commuting deposits merge through the
increment ledger, aborts drop their deltas, and the serial oracle
agrees with the relaxed schedule.
"""

import pytest

from repro import (
    Attr,
    ClusterConfig,
    TransactionAborted,
    check_serializability,
    method,
    shared_class,
)
from repro.analysis.commutativity import (
    TRUST_ANALYZED,
    TRUST_DECLARED,
    TRUST_FALLBACK,
    build_commutativity,
)
from repro.gdo.entry import DirectoryEntry, GrantDecision, LockMode, Waiter
from repro.objects.schema import schema_of
from repro.txn.semantic import SemanticMode, base_of
from repro.txn.transaction import Transaction
from repro.util.ids import NodeId, ObjectId, TxnId

from conftest import make_cluster

PAGE = 256


@shared_class
class Till:
    """All attributes on one page: commutativity must come from blind
    increments, not page disjointness."""

    balance = Attr(size=8, default=0)
    deposits = Attr(size=8, default=0)

    @method
    def deposit(self, ctx, amount):
        self.balance += amount
        self.deposits += 1

    @method
    def withdraw(self, ctx, amount):
        # The guard *observes* balance, demoting the -= to a plain
        # read/write: withdrawals must serialize against each other.
        if self.balance < amount:
            ctx.abort("insufficient")
        self.balance -= amount

    @method
    def open_with(self, ctx, amount):
        self.balance = amount

    @method
    def read_balance(self, ctx):
        return self.balance


@shared_class
class Opaque:
    """Dynamic attribute access defeats the AST analysis."""

    total = Attr(size=8, default=0)

    @method
    def poke(self, ctx, name):
        setattr(self, name, getattr(self, name, 0) + 1)

    @method
    def bump(self, ctx):
        self.total += 1


@shared_class
class Disjoint:
    """Declared overrides narrow an inconclusive analysis: the
    declaration is trusted for page disjointness, never increments."""

    left = Attr(size=PAGE, default=0)
    right = Attr(size=PAGE, default=0)

    @method(reads=["left"], writes=["left"])
    def touch_left(self, ctx):
        setattr(self, "left", getattr(self, "left") + 1)

    @method(reads=["right"], writes=["right"])
    def touch_right(self, ctx):
        setattr(self, "right", getattr(self, "right") + 1)


class _CounterOps:
    """Plain (non-shared) base class: bodies inherited by re-export."""

    @method
    def bump(self, ctx):
        self.hits += 1

    @method
    def peek(self, ctx):
        return self.hits


@shared_class
class InheritedCounter(_CounterOps):
    hits = Attr(size=8, default=0)
    bump = _CounterOps.bump
    peek = _CounterOps.peek


def _table(cls):
    schema = schema_of(cls)
    return build_commutativity(schema, schema.make_layout(PAGE))


class TestCommutativityTable:
    def test_blind_increments_self_commute(self):
        table = _table(Till)
        assert table.commutes("deposit", "deposit")
        summary = table.summary("deposit")
        assert summary.trust == TRUST_ANALYZED
        assert summary.increment_attrs == {"balance", "deposits"}

    def test_guarded_decrement_does_not_commute(self):
        table = _table(Till)
        assert not table.commutes("withdraw", "withdraw")
        assert not table.commutes("deposit", "withdraw")
        assert not table.commutes("withdraw", "deposit")

    def test_plain_write_excludes_increments(self):
        table = _table(Till)
        assert not table.commutes("open_with", "deposit")
        assert not table.commutes("open_with", "open_with")

    def test_readers_commute_with_each_other_only(self):
        table = _table(Till)
        assert table.commutes("read_balance", "read_balance")
        assert not table.commutes("read_balance", "deposit")

    def test_unknown_method_never_commutes(self):
        table = _table(Till)
        assert not table.commutes("deposit", "ghost")
        assert not table.commutes("ghost", "ghost")

    def test_inconclusive_analysis_falls_back_to_plain_rw(self):
        table = _table(Opaque)
        poke = table.summary("poke")
        assert poke.trust == TRUST_FALLBACK
        assert not poke.semantic
        # A fallback method commutes with nothing — not even itself.
        assert not table.commutes("poke", "poke")
        assert not table.commutes("poke", "bump")
        assert table.commutes("bump", "bump")

    def test_declared_overrides_trust_pages_not_increments(self):
        table = _table(Disjoint)
        left = table.summary("touch_left")
        assert left.trust == TRUST_DECLARED
        assert left.increment_attrs == frozenset()
        # Page-disjoint declared writers commute across methods...
        assert table.commutes("touch_left", "touch_right")
        # ...but never with themselves: without the body, the += is
        # just an observed read/write of the same page.
        assert not table.commutes("touch_left", "touch_left")

    def test_inherited_bodies_analyze_like_their_own(self):
        table = _table(InheritedCounter)
        bump = table.summary("bump")
        assert bump.trust == TRUST_ANALYZED
        assert bump.increment_attrs == {"hits"}
        assert table.commutes("bump", "bump")
        assert not table.commutes("bump", "peek")

    def test_repeated_builds_are_identical(self):
        first, second = _table(Till), _table(Till)
        assert first.to_trace() == second.to_trace()
        assert first.commuting_pairs() == second.commuting_pairs()

    def test_trace_artifact_carries_everything_checkers_judge_by(self):
        payload = _table(Till).to_trace()
        assert payload["class"] == "Till"
        assert ["deposit", "deposit"] in payload["commutes"]
        deposit = payload["methods"]["deposit"]
        assert deposit["base"] == "W" and deposit["semantic"]
        assert deposit["increments"] == ["balance", "deposits"]


class TestSemanticModeLattice:
    def _modes(self):
        table = _table(Till)
        return (
            SemanticMode(LockMode.WRITE, "Till.deposit", table),
            SemanticMode(LockMode.WRITE, "Till.open_with", table),
            table,
        )

    def test_commuting_modes_do_not_conflict(self):
        deposit, _, _ = self._modes()
        assert not deposit.conflicts_with(deposit)

    def test_non_commuting_semantic_modes_conflict(self):
        deposit, open_with, _ = self._modes()
        assert deposit.conflicts_with(open_with)
        assert open_with.conflicts_with(deposit)

    def test_semantic_write_conflicts_with_plain_modes_both_ways(self):
        deposit, _, _ = self._modes()
        # Commutativity never excuses a plain-mode holder: the plain
        # grant carries no method identity to commute against.
        assert deposit.conflicts_with(LockMode.READ)
        assert LockMode.READ.conflicts_with(deposit)
        assert deposit.conflicts_with(LockMode.WRITE)
        assert LockMode.WRITE.conflicts_with(deposit)
        assert not LockMode.READ.conflicts_with(LockMode.READ)

    def test_base_and_repr(self):
        deposit, _, _ = self._modes()
        assert base_of(deposit) is LockMode.WRITE
        assert base_of(LockMode.READ) is LockMode.READ
        assert deposit.value == "W+Till.deposit"

    def test_join_keeps_identity_only_for_equal_modes(self):
        """The mode a holder entry records after a re-entrant grant."""
        deposit, open_with, table = self._modes()
        same = SemanticMode(LockMode.WRITE, "Till.deposit", table)

        def recorded(*modes):
            entry = DirectoryEntry(ObjectId(0), home_node=NodeId(0),
                                   page_count=1, creator_node=NodeId(0))
            txn = Transaction(TxnId(serial=0, root=0), NodeId(0))
            for mode in modes:
                entry.grant(txn, mode)
            return entry.holders[txn.id]

        assert recorded(deposit) is deposit
        assert recorded(deposit, same) == deposit
        assert recorded(deposit, open_with) is LockMode.WRITE
        assert recorded(deposit, LockMode.READ) is LockMode.WRITE
        assert recorded(LockMode.READ, deposit) is LockMode.WRITE

    def test_precommit_of_a_commuting_holder_admits_no_foreign_waiter(self):
        """The retention that replaces a semantic hold blocks the same
        foreign modes, so the lock manager need not pump at a
        pre-commit."""
        deposit, open_with, _ = self._modes()
        cluster = make_cluster(semantic_locks=True)
        node = cluster.nodes[0]
        entry = DirectoryEntry(ObjectId(0), home_node=node, page_count=1,
                               creator_node=node)
        parent = Transaction(TxnId(serial=1, root=1), node)
        child = Transaction(TxnId(serial=2, root=1), node, parent=parent)
        entry.grant(child, deposit)
        child.lock_objects[entry.object_id] = entry
        foreign = Transaction(TxnId(serial=3, root=3), cluster.nodes[1])
        assert entry.decide(foreign, open_with) is GrantDecision.WAIT_GLOBAL
        waiter = Waiter(foreign, open_with, wake=cluster.env.event())
        entry.enqueue_global(waiter)
        cluster.lockmgr.precommit_release(child)
        cluster.run()
        assert entry.retainers == {parent.id: deposit}
        assert not entry.holders
        assert not waiter.wake.triggered
        assert entry.waiting_families == [waiter]
        # Not a pump skipped: a pump would admit nobody either.
        assert entry.pump() == []


class TestClusterIntegration:
    def test_semantic_locks_default_off(self):
        assert ClusterConfig().semantic_locks is False

    def test_concurrent_deposits_merge_and_conserve_money(self):
        cluster = make_cluster(semantic_locks=True)
        till = cluster.create(Till)
        total = 0
        for index in range(12):
            amount = 10 + index
            total += amount
            cluster.submit(till, "deposit", amount,
                           node=cluster.nodes[index % len(cluster.nodes)])
        cluster.run()
        assert cluster.read_attr(till, "balance") == total
        assert cluster.read_attr(till, "deposits") == 12
        assert check_serializability(cluster)

    def test_abort_drops_deltas(self):
        cluster = make_cluster(semantic_locks=True)
        till = cluster.create(Till)
        cluster.call(till, "deposit", 50)
        with pytest.raises(TransactionAborted):
            cluster.call(till, "withdraw", 1000)
        assert cluster.read_attr(till, "balance") == 50
        cluster.call(till, "deposit", 7)
        assert cluster.read_attr(till, "balance") == 57
        assert check_serializability(cluster)

    @pytest.mark.parametrize("protocol", ["lotec", "cotec"])
    def test_on_and_off_agree_on_final_state(self, protocol):
        def run(semantic):
            cluster = make_cluster(protocol=protocol,
                                   semantic_locks=semantic)
            till = cluster.create(Till)
            for index in range(8):
                cluster.submit(till, "deposit", index + 1,
                               node=cluster.nodes[index % 4])
            cluster.submit(till, "withdraw", 3, node=cluster.nodes[1])
            cluster.run()
            return (cluster.read_attr(till, "balance"),
                    cluster.read_attr(till, "deposits"))

        assert run(semantic=False) == run(semantic=True)
