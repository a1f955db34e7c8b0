"""Unit tests for identifiers, seeded RNG streams, and errors."""

import copy
import pickle

import pytest

from repro.util.errors import (
    DeadlockError,
    RecursiveInvocationError,
    ReproError,
    TransactionAborted,
)
from repro.util.ids import IdAllocator, NodeId, ObjectId, TxnId
from repro.util.rng import SeededRNG, derive_seed


class TestIds:
    def test_reprs(self):
        assert repr(NodeId(3)) == "N3"
        assert repr(ObjectId(5)) == "O5"
        assert repr(TxnId(serial=4, root=4)) == "T4"
        assert repr(TxnId(serial=9, root=4)) == "T9/r4"

    def test_txn_family(self):
        root = TxnId(serial=1, root=1)
        child = TxnId(serial=2, root=1)
        stranger = TxnId(serial=3, root=3)
        assert root.is_root and not child.is_root
        assert child.same_family(root)
        assert not child.same_family(stranger)

    def test_ids_hashable_and_ordered(self):
        assert NodeId(1) < NodeId(2)
        assert len({ObjectId(1), ObjectId(1), ObjectId(2)}) == 2

    def test_ids_of_different_types_unequal(self):
        assert NodeId(1) != ObjectId(1)
        assert len({NodeId(1), ObjectId(1), TxnId(serial=1, root=1)}) == 3
        assert NodeId(1) == NodeId(1) and hash(NodeId(1)) == hash(NodeId(1))

    def test_txn_ids_sort_by_serial_then_root(self):
        ids = [TxnId(serial=5, root=1), TxnId(serial=2, root=2),
               TxnId(serial=5, root=0)]
        assert sorted(ids) == [TxnId(serial=2, root=2),
                               TxnId(serial=5, root=0),
                               TxnId(serial=5, root=1)]

    def test_fields_and_keyword_construction(self):
        txn = TxnId(serial=9, root=4)
        assert (txn.serial, txn.root) == (9, 4) and txn == TxnId(9, 4)
        assert NodeId(value=3).value == 3 and ObjectId(value=5).value == 5

    @pytest.mark.parametrize("value", [NodeId(3), ObjectId(5),
                                       TxnId(serial=9, root=4)])
    def test_pickle_and_copy_round_trip(self, value):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is type(value)
        assert copy.deepcopy(value) == value
        assert type(copy.deepcopy(value)) is type(value)

    def test_ids_are_immutable(self):
        with pytest.raises(AttributeError):
            NodeId(1).value = 2
        with pytest.raises(AttributeError):
            NodeId(1).extra = 2

    def test_allocator_monotonic(self):
        alloc = IdAllocator()
        assert alloc.next_node() == NodeId(0)
        assert alloc.next_node() == NodeId(1)
        root = alloc.next_root_txn()
        sub = alloc.next_sub_txn(root)
        assert root.is_root
        assert sub.root == root.serial
        assert sub.serial > root.serial

    def test_allocators_independent(self):
        a, b = IdAllocator(), IdAllocator()
        a.next_object()
        assert b.next_object() == ObjectId(0)


class TestRNG:
    def test_determinism(self):
        a, b = SeededRNG(5), SeededRNG(5)
        assert [a.randint(0, 100) for _ in range(10)] == \
            [b.randint(0, 100) for _ in range(10)]

    def test_derive_independent_streams(self):
        base = SeededRNG(5)
        x = base.derive("x").randint(0, 10**9)
        y = base.derive("y").randint(0, 10**9)
        assert x != y
        assert base.derive("x").randint(0, 10**9) == x

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_zipf_skew_direction(self):
        rng = SeededRNG(7)
        skewed = [rng.zipf_index(10, 1.5) for _ in range(500)]
        uniform = [rng.zipf_index(10, 0.0) for _ in range(500)]
        assert skewed.count(0) > uniform.count(0) * 1.5

    def test_zipf_bounds(self):
        rng = SeededRNG(7)
        draws = [rng.zipf_index(5, 0.9) for _ in range(200)]
        assert all(0 <= d < 5 for d in draws)
        with pytest.raises(ValueError):
            rng.zipf_index(0, 1.0)

    def test_maybe_probability_extremes(self):
        rng = SeededRNG(1)
        assert not any(rng.maybe(0.0) for _ in range(50))
        assert all(rng.maybe(1.0) for _ in range(50))

    def test_pareto_int_bounds(self):
        rng = SeededRNG(1)
        values = [rng.pareto_int(10, maximum=100) for _ in range(100)]
        assert all(10 <= v <= 100 for v in values)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(DeadlockError, TransactionAborted)
        assert issubclass(TransactionAborted, ReproError)
        assert issubclass(RecursiveInvocationError, ReproError)

    def test_deadlock_carries_cycle(self):
        error = DeadlockError(TxnId(1, 1), cycle=[1, 2])
        assert error.cycle == [1, 2]
        assert error.reason == "deadlock"

    def test_abort_reason(self):
        error = TransactionAborted(TxnId(1, 1), reason="user")
        assert "user" in str(error)
