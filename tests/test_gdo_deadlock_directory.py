"""Unit tests for the deadlock detector, directory partitioning, and
holder-list cache tracker."""

import pytest

from repro.gdo.cache import EntryCacheTracker
from repro.gdo.deadlock import DeadlockDetector
from repro.gdo.directory import Directory
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId

N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)
O0, O1, O2 = ObjectId(0), ObjectId(1), ObjectId(2)


def _edges(waiting, blocking):
    """Legacy-shaped edge set: every waiter blocked by every blocker."""
    return {waiter: frozenset(blocking) for waiter in waiting}


class TestDeadlockDetector:
    def test_no_edges_no_cycle(self):
        detector = DeadlockDetector()
        assert detector.find_cycle(1) is None

    def test_two_family_cycle(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        cycle = detector.find_cycle(1)
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_three_family_cycle(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({3})))
        detector.update_entry(O2, _edges(frozenset({3}), frozenset({1})))
        cycle = detector.find_cycle(2)
        assert set(cycle) == {1, 2, 3}

    def test_chain_is_not_cycle(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({3})))
        assert detector.find_cycle(1) is None

    def test_self_edges_ignored(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({1, 2})))
        assert detector.find_cycle(1) is None

    def test_entry_update_replaces_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        # Family 2 got the lock on O1: edge disappears, cycle broken.
        detector.update_entry(O1, _edges(frozenset(), frozenset({2})))
        assert detector.find_cycle(1) is None

    def test_clear_entry(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O0, {})
        assert detector.edges() == {}
        assert not detector.has_entry(O0)

    def test_victim_is_youngest(self):
        detector = DeadlockDetector()
        assert detector.pick_victim([5, 9, 2], blocked={5, 9, 2}) == 9

    def test_victim_is_youngest_blocked_when_youngest_runs(self):
        # Family 9 is running (it cannot be preempted mid-method): the
        # youngest *blocked* member of the cycle dies instead.
        detector = DeadlockDetector()
        assert detector.pick_victim([5, 9, 2], blocked={2, 5, 7}) == 5

    def test_cycle_with_no_blocked_family_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            DeadlockDetector().pick_victim([5, 9, 2], blocked={7})

    def test_waiting_families_view(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1, 3}), frozenset({2})))
        assert set(detector.edges()) == {1, 3}

    def test_edges_is_a_snapshot(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        snapshot = detector.edges()
        snapshot[1].clear()
        del snapshot[2]
        assert detector.edges() == {1: {2}, 2: {1}}
        assert set(detector.find_cycle(1)) == {1, 2}

    def test_multi_waiter_multi_blocker_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1, 2}), frozenset({3, 4})))
        edges = detector.edges()
        assert edges[1] == {3, 4}
        assert edges[2] == {3, 4}

    def test_pure_self_wait_is_not_a_deadlock(self):
        # A family queued behind itself (lock upgrade paths) must not
        # read as a one-node cycle.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({1})))
        assert detector.find_cycle(1) is None
        assert detector.edges().get(1, set()) == set()

    def test_overlapping_cycles_share_a_family(self):
        # 1 -> 2 -> 1 and 2 -> 3 -> 2 share family 2; search from any
        # member must find *some* cycle, and breaking one must leave
        # the other detectable.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1, 3})))
        detector.update_entry(O2, _edges(frozenset({3}), frozenset({2})))
        for start in (1, 2, 3):
            assert detector.find_cycle(start) is not None
        # Abort family 3: its cycle dissolves, the 1<->2 cycle stays.
        detector.drop_family(3)
        assert set(detector.find_cycle(1)) == {1, 2}
        assert detector.find_cycle(3) is None

    def test_per_waiter_edges_are_independent(self):
        # Conflict-keyed edges: two waiters on the same entry may be
        # blocked by *different* families (a semantic waiter commutes
        # with some holders).  The detector must not union them.
        detector = DeadlockDetector()
        detector.update_entry(O0, {1: frozenset({3}), 2: frozenset({4})})
        edges = detector.edges()
        assert edges[1] == {3}
        assert edges[2] == {4}

    def test_waiter_with_no_blockers_contributes_nothing(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, {1: frozenset(), 2: frozenset({3})})
        assert detector.edges() == {2: {3}}

    def test_pick_victim_is_stable_under_rotation(self):
        # The victim is a function of the cycle's membership, not of
        # the node the DFS happened to enter it from.
        detector = DeadlockDetector()
        cycle = [4, 7, 2]
        rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
        assert {detector.pick_victim(rot, blocked=set(cycle))
                for rot in rotations} == {7}

    def test_drop_family_clears_crash_aborted_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({2}), frozenset({1})))
        # Family 2 dies in a node crash: both edges involving it go,
        # and family 1 is no longer part of any cycle.
        detector.drop_family(2)
        assert detector.find_cycle(1) is None
        assert 2 not in detector.edges()

    def test_drop_family_keeps_unrelated_edges(self):
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1, 5}), frozenset({2, 6})))
        detector.drop_family(5)
        edges = detector.edges()
        assert edges[1] == {2, 6}
        assert 5 not in edges

    def test_clear_entry_after_crash_release(self):
        # crash_release frees a dead family's entries; the refresh of
        # the emptied entry must remove its contributed edges even if
        # drop_family was never called for the survivors.
        detector = DeadlockDetector()
        detector.update_entry(O0, _edges(frozenset({1}), frozenset({2})))
        detector.update_entry(O1, _edges(frozenset({3}), frozenset({4})))
        detector.update_entry(O0, {})
        assert detector.find_cycle(1) is None
        assert detector.edges() == {3: {4}}


class TestDirectory:
    def test_requires_nodes(self):
        with pytest.raises(Exception):
            Directory([])

    def test_round_robin_partitioning(self):
        directory = Directory([N0, N1, N2])
        assert directory.home_node(O0) == N0
        assert directory.home_node(O1) == N1
        assert directory.home_node(ObjectId(5)) == N2

    def test_register_and_lookup(self):
        directory = Directory([N0, N1])
        entry = directory.register(O0, page_count=4, creator_node=N1)
        assert directory.entry(O0) is entry
        assert entry.home_node == N0
        assert entry.page_count == 4
        assert O0 in directory
        assert len(directory) == 1

    def test_double_register_rejected(self):
        directory = Directory([N0])
        directory.register(O0, page_count=1, creator_node=N0)
        with pytest.raises(ProtocolError):
            directory.register(O0, page_count=1, creator_node=N0)

    def test_missing_entry_rejected(self):
        with pytest.raises(ProtocolError):
            Directory([N0]).entry(O0)


class TestEntryCacheTracker:
    def test_miss_then_hit(self):
        tracker = EntryCacheTracker()
        assert not tracker.is_local(O0, N0)
        tracker.on_granted(O0, N0)
        assert tracker.is_local(O0, N0)
        assert tracker.stats.hits == 1
        assert tracker.stats.misses == 1

    def test_other_site_misses(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        assert not tracker.is_local(O0, N1)

    def test_regrant_moves_cache_site(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        tracker.on_granted(O0, N1)
        assert tracker.cache_site(O0) == N1
        assert tracker.stats.invalidations == 1

    def test_freed_clears_cache(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        tracker.on_freed(O0)
        assert tracker.cache_site(O0) is None
        assert not tracker.is_local(O0, N0)

    def test_disabled_tracker_never_hits(self):
        tracker = EntryCacheTracker(enabled=False)
        tracker.on_granted(O0, N0)
        assert not tracker.is_local(O0, N0)
        assert tracker.stats.hit_rate == 0.0

    def test_hit_rate(self):
        tracker = EntryCacheTracker()
        tracker.on_granted(O0, N0)
        tracker.is_local(O0, N0)
        tracker.is_local(O0, N1)
        assert tracker.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_safe(self):
        assert EntryCacheTracker().stats.hit_rate == 0.0
