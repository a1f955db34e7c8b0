"""Unit tests for the deadlock detector, directory partitioning, and
holder-list cache tracker."""

from types import SimpleNamespace

import pytest

from repro.gdo.cache import EntryCacheTracker
from repro.gdo.deadlock import (
    BlockedFamily,
    find_cycle,
    first_cycle,
    pick_victim,
)
from repro.gdo.directory import Directory
from repro.gdo.entry import DirectoryEntry, LockMode, Waiter
from repro.txn.locks import LockManager
from repro.txn.semantic import SemanticMode
from repro.util.errors import DeadlockError, ProtocolError
from repro.util.ids import NodeId, ObjectId, TxnId

N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)
O0, O1, O2 = ObjectId(0), ObjectId(1), ObjectId(2)
R, W = LockMode.READ, LockMode.WRITE


class _Root:
    """A family's root, as the entry needs it."""

    def __init__(self, root):
        self.id = TxnId(root, root)
        self.node = N0

    def is_ancestor_of(self, other):
        return False


def _entry(index=0):
    return DirectoryEntry(ObjectId(index), home_node=N0, page_count=1,
                          creator_node=N0)


def _queue(entry, root, mode=W):
    """Queue ``root``'s one waiter on ``entry``: a blocked family."""
    waiter = Waiter(_Root(root), mode)
    entry.enqueue_global(waiter)
    return SimpleNamespace(entry=entry, waiter=waiter)


def lock_table(waits_for):
    """Blocked families read off real entries: each waiter queues for
    W on its own entry, which every family it waits for holds in R."""
    blocked = {}
    for index, (root, blockers) in enumerate(sorted(waits_for.items())):
        entry = _entry(index)
        for blocker in blockers:
            entry.grant(_Root(blocker), R)
        blocked[root] = _queue(entry, root)
    return blocked


def search(blocked, start):
    """One round's search from one start: a fresh memo and no
    certificates."""
    return find_cycle(start, blocked, {}, set())


class TestDeadlockDetector:
    def test_no_edges_no_cycle(self):
        assert search({}, 1) is None

    def test_two_family_cycle(self):
        blocked = lock_table({1: [2], 2: [1]})
        cycle = search(blocked, 1)
        assert cycle is not None
        assert set(cycle) == {1, 2}

    def test_three_family_cycle(self):
        blocked = lock_table({1: [2], 2: [3], 3: [1]})
        assert set(search(blocked, 2)) == {1, 2, 3}

    def test_chain_is_not_cycle(self):
        blocked = lock_table({1: [2], 2: [3]})
        assert search(blocked, 1) is None

    def test_self_edges_ignored(self):
        # The waiter's own family holding the entry is no edge.
        blocked = lock_table({1: [1, 2]})
        family = blocked[1]
        assert family.entry.blockers_of(family.waiter) == [2]
        assert search(blocked, 1) is None

    def test_entry_update_replaces_edges(self):
        blocked = lock_table({1: [2], 2: [1]})
        # Family 2 gets the lock on its entry (family 1's read lock
        # there is released): its waiter leaves the queue, its edge
        # disappears, the cycle is broken.
        entry = blocked[2].entry
        entry.release_family(1)
        assert entry.pump() == [blocked[2].waiter]
        assert search(blocked, 1) is None

    def test_clear_entry(self):
        blocked = lock_table({1: [2]})
        blocked[1].entry.release_family(2)
        family = blocked[1]
        assert family.entry.blockers_of(family.waiter) == []
        assert search(blocked, 1) is None

    def test_victim_is_youngest(self):
        assert pick_victim([5, 9, 2], blocked={5, 9, 2}) == 9

    def test_victim_is_youngest_blocked_when_youngest_runs(self):
        # Family 9 is running (it cannot be preempted mid-method): the
        # youngest *blocked* member of the cycle dies instead.
        assert pick_victim([5, 9, 2], blocked={2, 5, 7}) == 5

    def test_cycle_with_no_blocked_family_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            pick_victim([5, 9, 2], blocked={7})

    def test_waiting_families_view(self):
        # Every queued family is a node with its own out-edges.
        entry = _entry()
        entry.grant(_Root(2), R)
        blocked = {1: _queue(entry, 1), 3: _queue(entry, 3)}
        edges = {}
        assert first_cycle([1, 3], blocked, edges, set(),
                           SimpleNamespace(cycle_searches=0)) is None
        assert edges == {1: [2], 2: [], 3: [2]}

    def test_multi_waiter_multi_blocker_edges(self):
        # Holders and retainers alike block every waiter.
        entry = _entry()
        entry.grant(_Root(3), R)
        entry.grant(_Root(4), R)
        entry.demote_to_retained(_Root(4))
        first, second = _queue(entry, 1), _queue(entry, 2)
        assert entry.blockers_of(first.waiter) == [3, 4]
        assert entry.blockers_of(second.waiter) == [3, 4]

    def test_pure_self_wait_is_not_a_deadlock(self):
        # A family queued behind itself alone must not read as a
        # one-node cycle.
        blocked = lock_table({1: [1]})
        family = blocked[1]
        assert family.entry.blockers_of(family.waiter) == []
        assert search(blocked, 1) is None

    def test_overlapping_cycles_share_a_family(self):
        # 1 -> 2 -> 1 and 2 -> 3 -> 2 share family 2; search from any
        # member must find *some* cycle, and breaking one must leave
        # the other detectable.
        blocked = lock_table({1: [2], 2: [1, 3], 3: [2]})
        for start in (1, 2, 3):
            assert search(blocked, start) is not None
        # Family 3 is a victim: its waiter leaves the queue.
        victim = blocked.pop(3)
        victim.entry.remove_waiter(victim.waiter.txn_id)
        assert set(search(blocked, 1)) == {1, 2}
        assert search(blocked, 3) is None

    def test_per_waiter_edges_are_independent(self):
        # Conflict-keyed edges: two waiters on the same entry may be
        # blocked by *different* families (a semantic waiter commutes
        # with some holders).
        table = SimpleNamespace(commutes=lambda a, b: a == b == "deposit")
        deposit = SemanticMode(W, "Till.deposit", table)
        entry = _entry()
        entry.grant(_Root(3), deposit)
        entry.grant(_Root(4), R)
        semantic, plain = _queue(entry, 1, deposit), _queue(entry, 2, R)
        assert entry.blockers_of(semantic.waiter) == [4]
        assert entry.blockers_of(plain.waiter) == [3, 4]

    def test_waiter_with_no_blockers_contributes_nothing(self):
        # Family 1 waits for nobody, so a path through it ends there.
        blocked = lock_table({1: [], 2: [1]})
        assert search(blocked, 2) is None
        assert search(blocked, 1) is None

    def test_pick_victim_is_stable_under_rotation(self):
        # The victim is a function of the cycle's membership, not of
        # the node the DFS happened to enter it from.
        cycle = [4, 7, 2]
        rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
        assert {pick_victim(rot, blocked=set(cycle))
                for rot in rotations} == {7}

    def test_clear_entry_after_crash_release(self):
        # Family 2 crashes: crash cleanup releases its lock and pumps,
        # which admits family 1.  The edge through the emptied entry
        # goes; the other entry's edge stays.
        blocked = lock_table({1: [2], 3: [4]})
        entry = blocked[1].entry
        entry.release_family(2)
        assert entry.pump() == [blocked[1].waiter]
        assert search(blocked, 1) is None
        family = blocked[3]
        assert family.entry.blockers_of(family.waiter) == [4]

    def test_first_cycle_counts_searches_and_skips_certified_starts(self):
        blocked = lock_table({1: [2], 2: [3], 4: [1]})
        stats = SimpleNamespace(cycle_searches=0)
        cycle_free = set()
        assert first_cycle([1, 2, 4], blocked, {}, cycle_free, stats) is None
        # 1 certified 2 and 3 on the way: two searches, not three.
        assert stats.cycle_searches == 2
        assert cycle_free == {1, 2, 4}


class _Wake:
    def __init__(self):
        self.failed = None

    def fail(self, exc):
        self.failed = exc


class TestDetectorCost:
    """The lock manager's round, over real entries: its searches."""

    @staticmethod
    def _block(lockmgr, entry, root):
        waiter = Waiter(_Root(root), W, _Wake())
        entry.enqueue_global(waiter)
        lockmgr._blocked[root] = BlockedFamily(entry=entry, waiter=waiter)
        return waiter

    def _hit_searches(self, closer, bystanders):
        lockmgr = LockManager(None, None, None, None)
        held = {1: _entry(0), 2: _entry(1)}
        for root, entry in held.items():
            entry.grant(_Root(root), R)
        other = 3 - closer
        waiters = {other: self._block(lockmgr, held[closer], other)}
        # Each bystander waits for a running family, not in the cycle.
        for index in range(bystanders):
            entry = _entry(2 + index)
            entry.grant(_Root(1000 + index), R)
            self._block(lockmgr, entry, 100 + index)
        waiters[closer] = self._block(lockmgr, held[other], closer)
        lockmgr._detect_deadlocks(closer)
        # The youngest blocked family of the cycle died; nobody else.
        assert isinstance(waiters[2].wake.failed, DeadlockError)
        assert waiters[1].wake.failed is None
        assert lockmgr.stats.deadlocks == 1
        assert sorted(lockmgr._blocked) == [1] + [
            100 + index for index in range(bystanders)]
        return lockmgr.stats.cycle_searches

    @pytest.mark.parametrize("closer", [1, 2])
    def test_hit_path_cost_does_not_grow_with_bystanders(self, closer):
        # Every cycle runs through the family that just blocked, so one
        # search from it ends the round, however many others wait.
        assert (self._hit_searches(closer, 40)
                == self._hit_searches(closer, 0))


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
