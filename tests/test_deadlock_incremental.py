"""Differential test of the incremental deadlock detector.

Which cycle is found and which family dies is part of the schedule, so
the incremental detector (search only from families that gained a
blocker, certificates kept across edge removals) must make exactly the
choices of the search it replaced.  That search — rebuild the adjacency
from every entry, ``for start in sorted(blocked)``, sorted-neighbour
DFS, no memo — is kept here as the reference:

(a) seeded random operation sequences drive a small lock-table model
    against the bare detector and the reference in lockstep;
(b) live ``medium-high`` runs ask the reference at every victim abort
    and at every return of ``LockManager._detect_deadlocks``.

Tier-1 runs a small cut of (b); the full matrix is marked ``slow``.
"""

import dataclasses
import random

import pytest

from repro.check.explorer import FuzzTask, build_config
from repro.gdo.deadlock import DeadlockDetector
from repro.runtime import Cluster
from repro.util.errors import ProtocolError
from repro.util.ids import ObjectId
from repro.workload import SCENARIOS, generate_workload, run_workload


# ----------------------------------------------------------------------
# The reference: the parent commit's algorithm, unoptimised
# ----------------------------------------------------------------------

class ReferenceDetector:
    def __init__(self):
        self.entries = {}

    def update_entry(self, object_id, edges):
        pruned = {waiter: frozenset(blocking) - {waiter}
                  for waiter, blocking in edges.items()
                  if frozenset(blocking) - {waiter}}
        if pruned:
            self.entries[object_id] = pruned
        else:
            self.entries.pop(object_id, None)

    def drop_family(self, root):
        for object_id, edges in list(self.entries.items()):
            self.update_entry(object_id, {
                waiter: blocking - {root}
                for waiter, blocking in edges.items() if waiter != root
            })

    def mark(self, root):
        pass

    def edges(self):
        adjacency = {}
        for entry_edges in self.entries.values():
            for waiter, blocking in entry_edges.items():
                adjacency.setdefault(waiter, set()).update(blocking)
        return adjacency

    def find_cycle(self, start):
        adjacency = self.edges()
        path, on_path, visited = [], set(), set()

        def dfs(node):
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for target in sorted(adjacency.get(node, ())):
                if target in on_path:
                    return path[path.index(target):]
                if target not in visited:
                    found = dfs(target)
                    if found is not None:
                        return found
            path.pop()
            on_path.discard(node)
            return None

        return dfs(start) if start in adjacency else None

    def first_cycle(self, blocked):
        """Every blocked family, every time."""
        for start in sorted(blocked):
            cycle = self.find_cycle(start)
            if cycle is not None:
                return cycle
        return None

    def pick_victim(self, cycle, blocked):
        if max(cycle) in blocked:
            return max(cycle)
        blocked_roots = [root for root in cycle if root in blocked]
        if not blocked_roots:
            raise ProtocolError(f"deadlock cycle {cycle} with no blocked family")
        return max(blocked_roots)


def incremental_detect(detector, blocked):
    """``LockManager._detect_deadlocks``'s use of the detector."""
    if not detector.cycle_appeared():
        return None
    return detector.first_cycle(sorted(blocked))


# ----------------------------------------------------------------------
# (a) Random operation sequences on a small lock-table model
# ----------------------------------------------------------------------

class LockTableModel:
    """Holders and family queues per object, a blocked set, and one
    detector fed the way the lock manager feeds it.  ``commutes``
    thins the edges per (waiter, holder) like conflict-keyed modes."""

    def __init__(self, engine, detect, objects, commutes):
        self.engine = engine
        self._detect = detect
        self.holders = {obj: set() for obj in objects}
        self.queues = {obj: [] for obj in objects}
        self.blocked = {}            # root -> object queued on, or None
        self.commutes = commutes
        self.stale = set()           # objects pumped without a refresh
        self.log = []                # (victim, cycle) in order

    def refresh(self, obj):
        self.stale.discard(obj)
        self.engine.update_entry(obj, {
            waiter: frozenset(
                holder for holder in self.holders[obj]
                if (waiter, holder) not in self.commutes
            )
            for waiter in self.queues[obj]
        })

    def detect(self):
        cycle = self._detect(self.engine, self.blocked)
        while cycle is not None:
            try:
                victim = self.engine.pick_victim(cycle, self.blocked)
            except ProtocolError:
                # Only stale edges of running families: the real lock
                # manager dies here.  Record it and clear the ghost.
                self.log.append(("error", list(cycle)))
                self.crash(max(cycle), detect=False)
            else:
                self.log.append((victim, list(cycle)))
                obj = self.blocked.pop(victim)
                if obj is not None:
                    self.queues[obj].remove(victim)
                    self.refresh(obj)
            cycle = self.engine.first_cycle(sorted(self.blocked))

    # -- operations ----------------------------------------------------

    def wait(self, root, obj, local):
        if not local:
            self.queues[obj].append(root)
        self.blocked[root] = None if local else obj
        self.engine.mark(root)
        self.refresh_and_detect(obj)

    def grant(self, obj, root, refresh):
        """Admit a queued family; ``refresh=False`` is the pump sites
        that leave the waiter's edge behind (pre-commit, sub-abort)."""
        self.queues[obj].remove(root)
        self.blocked.pop(root)
        self.holders[obj].add(root)
        if refresh:
            self.refresh_and_detect(obj)
        else:
            self.stale.add(obj)

    def wake_local(self, root):
        del self.blocked[root]

    def interrupt(self, root):
        """The family runs again but its waiter is still queued (the
        window between a crash interrupt and the entry's cleanup): its
        edges stay, and later refreshes add edges from a family that
        is not blocked."""
        self.blocked.pop(root, None)

    def hold(self, obj, root):
        self.holders[obj].add(root)
        self.refresh_and_detect(obj)

    def release(self, obj, root):
        self.holders[obj].discard(root)
        self.refresh_and_detect(obj)

    def refresh_and_detect(self, obj):
        self.refresh(obj)
        self.detect()

    def crash(self, root, detect=True):
        self.blocked.pop(root, None)
        for obj in self.holders:
            touched = root in self.holders[obj] or root in self.queues[obj]
            self.holders[obj].discard(root)
            if root in self.queues[obj]:
                self.queues[obj].remove(root)
            if touched:
                self.refresh(obj)
        self.engine.drop_family(root)
        if detect:
            self.detect()


def random_step(rng, model, roots, objects):
    """One operation, chosen from the model's state only; returns it
    as (method name, args) so both models can be given it."""
    running = [root for root in roots if root not in model.blocked]
    queued = [(obj, root) for obj in objects for root in model.queues[obj]
              if root in model.blocked]
    local = [root for root, obj in model.blocked.items() if obj is None]
    held = [(obj, root) for obj in objects           # blocked families
            for root in sorted(model.holders[obj])   # release nothing
            if root not in model.blocked]
    kinds = ["refresh_and_detect", "crash"]
    weights = [2, 1]
    if running:
        kinds.append("acquire")
        weights.append(20)
    if queued:
        kinds += ["grant", "interrupt"]
        weights += [2, 1]
    if local:
        kinds.append("wake_local")
        weights.append(4)
    if held:
        kinds.append("release")
        weights.append(6)
    kind = rng.choices(kinds, weights)[0]
    if kind == "acquire":
        root = rng.choice(running)
        obj = rng.choice(objects)
        if root in model.queues[obj]:              # interrupted there
            return "refresh_and_detect", (obj,)
        if root in model.holders[obj]:
            if rng.random() < 0.7:
                return "release", (obj, root)
            return "wait", (root, obj, True)       # intra-family wait
        if not model.holders[obj] or rng.random() < 0.2:
            return "hold", (obj, root)             # free, or shared read
        return "wait", (root, obj, False)
    if kind == "grant":
        obj, root = rng.choice(queued)
        return "grant", (obj, root, rng.random() < 0.5)
    if kind == "interrupt":
        return "interrupt", (rng.choice(queued)[1],)
    if kind == "release":
        return "release", rng.choice(held)
    if kind == "wake_local":
        return "wake_local", (rng.choice(local),)
    if kind == "crash":
        return "crash", (rng.choice(roots),)
    return "refresh_and_detect", (rng.choice(objects),)


@pytest.mark.parametrize("seed", range(24))
def test_random_sequences_match_reference(seed):
    rng = random.Random(seed)
    roots = list(range(1, rng.choice((5, 8, 12)) + 1))
    objects = [ObjectId(i) for i in range(rng.choice((3, 5)))]
    commutes = {(a, b) for a in roots for b in roots
                if a != b and rng.random() < 0.15}
    detector = DeadlockDetector()
    reference = ReferenceDetector()
    new = LockTableModel(detector, incremental_detect, objects, commutes)
    old = LockTableModel(reference, ReferenceDetector.first_cycle, objects,
                         commutes)
    seen = set()
    for _ in range(300):
        name, args = random_step(rng, old, roots, objects)
        seen.add(name)
        unchanged = (name == "refresh_and_detect"
                     and args[0] not in new.stale)
        refreshes = detector.stats.edge_refreshes
        getattr(old, name)(*args)
        getattr(new, name)(*args)
        if unchanged:
            assert detector.stats.edge_refreshes == refreshes
        assert new.log == old.log
        assert new.blocked == old.blocked
        assert detector.edges() == reference.edges()
        # find_cycle called directly stays exact whatever is marked.
        for start in roots:
            assert detector.find_cycle(start) == reference.find_cycle(start)
    assert {"wait", "hold", "grant", "wake_local", "interrupt", "release",
            "crash", "refresh_and_detect"} <= seen
    assert any(victim != "error" for victim, _ in old.log)


def test_waiter_under_two_entries_keeps_the_union():
    detector, reference = DeadlockDetector(), ReferenceDetector()
    steps = [
        (ObjectId(0), {1: frozenset({2, 3})}),
        (ObjectId(1), {1: frozenset({3, 4})}),   # stale + live: overlap on 3
        (ObjectId(0), {}),                       # 3 must survive via O1
        (ObjectId(2), {3: frozenset({1})}),      # closes 1 -> 3 -> 1
        (ObjectId(1), {1: frozenset({4})}),      # removal only: opens it
    ]
    for object_id, edges in steps:
        detector.update_entry(object_id, edges)
        reference.update_entry(object_id, edges)
        assert detector.edges() == reference.edges()
        for start in (1, 2, 3, 4):
            assert detector.find_cycle(start) == reference.find_cycle(start)


def test_reblocking_family_with_a_stale_edge_is_searched_from():
    # 1 -> 2 -> 1 exists, but neither family is blocked (both edges are
    # stale: their waiters were pumped without a refresh), so nothing
    # is aborted.  When family 1 blocks again — locally, gaining no
    # edge — the cycle is reachable from a blocked family and must be
    # found, exactly as the search from every blocked family finds it.
    detector = DeadlockDetector()
    detector.update_entry(ObjectId(0), {1: frozenset({2})})
    detector.update_entry(ObjectId(1), {2: frozenset({1})})
    assert incremental_detect(detector, blocked=set()) is None
    assert incremental_detect(detector, blocked={1}) is None  # unmarked
    detector.mark(1)
    assert incremental_detect(detector, blocked={1}) == [1, 2]


def test_certificates_survive_removals_and_die_on_additions():
    detector = DeadlockDetector()
    detector.update_entry(ObjectId(0), {1: frozenset({2})})
    detector.update_entry(ObjectId(1), {2: frozenset({3})})
    assert detector.find_cycle(1) is None
    searches = detector.stats.cycle_searches
    detector.update_entry(ObjectId(1), {})           # removal only
    assert detector.find_cycle(1) is None
    assert detector.stats.cycle_searches == searches  # still certified
    detector.update_entry(ObjectId(1), {2: frozenset({1})})  # addition
    assert detector.find_cycle(1) == [1, 2]
    assert detector.stats.cycle_searches == searches + 1


# ----------------------------------------------------------------------
# (b) Live runs: the reference is asked at every abort and every return
# ----------------------------------------------------------------------

def run_against_reference(task):
    """Run ``task``'s workload with the lock manager's deadlock path
    shadowed by the reference; returns the (victim, cycle) pairs
    compared.  The reference keeps its own record of every entry
    refresh, so it shares no bookkeeping with the detector."""
    config = dataclasses.replace(build_config(task), trace=False)
    workload = generate_workload(
        SCENARIOS[task.scenario].scaled(task.scale), seed=task.seed
    )
    cluster = Cluster(config)
    lockmgr = cluster.lockmgr
    detector = cluster.directory.deadlock
    reference = ReferenceDetector()
    compared = []

    update_entry = detector.update_entry
    detect = lockmgr._detect_deadlocks
    abort_victim = lockmgr._abort_victim

    def shadowed_update_entry(object_id, edges):
        reference.update_entry(object_id, edges)
        update_entry(object_id, edges)

    def shadowed_abort_victim(cycle):
        expected = reference.first_cycle(lockmgr._blocked)
        assert cycle == expected
        victim = reference.pick_victim(expected, lockmgr._blocked)
        before = set(lockmgr._blocked)
        abort_victim(cycle)
        assert before - set(lockmgr._blocked) == {victim}
        compared.append((victim, list(cycle)))

    def shadowed_detect():
        detect()
        missed = reference.first_cycle(lockmgr._blocked)
        assert missed is None, f"cycle {missed} left behind"

    detector.update_entry = shadowed_update_entry
    lockmgr._abort_victim = shadowed_abort_victim
    lockmgr._detect_deadlocks = shadowed_detect
    with cluster:
        run_workload(cluster, workload)
    assert len(compared) == cluster.lock_stats.deadlocks
    return compared


VARIANTS = {
    "plain": {},
    "semantic": {"semantic": True},
    "crash-recover": {"preset": "crash-recover"},
    "migration": {"migration": True},
}


def compare_matrix(seeds, policies, variants, scale):
    compared = 0
    for seed in seeds:
        for policy in policies:
            for variant in variants:
                compared += len(run_against_reference(FuzzTask(
                    seed=seed, policy=policy, scale=scale,
                    **VARIANTS[variant],
                )))
    return compared


def test_live_victims_match_reference():
    compared = compare_matrix(seeds=(11, 12), policies=("fifo",),
                              variants=("plain", "semantic"), scale=0.5)
    assert compared >= 20


@pytest.mark.slow
def test_live_victims_match_reference_full_matrix():
    compared = compare_matrix(seeds=range(5),
                              policies=("fifo", "lifo", "random"),
                              variants=sorted(VARIANTS), scale=0.5)
    assert compared >= 100
