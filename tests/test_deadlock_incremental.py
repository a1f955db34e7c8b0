"""Differential test of the deadlock detector against a full rebuild.

The detector reads the waits-for graph off the lock table, searches
only from the family that just blocked, and keeps an edge memo and
cycle-free certificates for one round.  Which cycle is found
and which family dies is part of the schedule, so it must make exactly
the choices of the plain search: rebuild the whole graph from every
entry and every queued waiter, judging conflicts here rather than
through ``DirectoryEntry.blockers_of``, then run a memo-free DFS from
each blocked family in serial order.  That search is the reference
below; it shares no code with the detector.

(a) seeded random operation sequences drive real directory entries
    through ``LockManager._detect_deadlocks``; the reference is asked
    at every victim abort and after every operation;
(b) live ``medium-high`` runs (plain, semantic, crash-recover,
    migration, prefetch) ask the reference at every victim abort and
    at every return of ``LockManager._detect_deadlocks``.

Tier-1 runs a small cut of (b); the full matrix is marked ``slow``.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.check.explorer import FuzzTask, build_config
from repro.gdo.deadlock import BlockedFamily, find_cycle
from repro.gdo.entry import DirectoryEntry, LockMode, Waiter
from repro.obs.tracer import NULL_TRACER
from repro.runtime import Cluster
from repro.txn.locks import LockManager, LockStats
from repro.txn.semantic import SemanticMode
from repro.txn.transaction import Transaction
from repro.util.errors import DeadlockError
from repro.util.ids import NodeId, ObjectId, TxnId
from repro.workload import SCENARIOS, generate_workload, run_workload

from conftest import Counter

R, W = LockMode.READ, LockMode.WRITE


# ----------------------------------------------------------------------
# The reference: rebuild everything, search everything, no memo
# ----------------------------------------------------------------------

def _blocks(waiting, held):
    """Does a held or retained mode block a waiting one?  A plain mode
    on either side always does; two semantic modes do unless their
    methods commute, and then only if one of them writes."""
    waiting_tag = getattr(waiting, "tag", None)
    held_tag = getattr(held, "tag", None)
    if waiting_tag is None or held_tag is None:
        return True
    waiting_class, waiting_method = waiting_tag.split(".", 1)
    held_class, held_method = held_tag.split(".", 1)
    if (waiting_class == held_class
            and waiting.table.commutes(waiting_method, held_method)):
        return False
    return W in (getattr(waiting, "base", waiting),
                 getattr(held, "base", held))


def reference_graph(entries):
    """Family -> the families its queued waiters are blocked by."""
    graph = {}
    for entry in entries:
        members = [*entry.holders.items(), *entry.retainers.items()]
        for waiter in entry.waiting_families:
            root = waiter.txn_id.root
            targets = graph.setdefault(root, set())
            for txn_id, held in members:
                if txn_id.root != root and _blocks(waiter.mode, held):
                    targets.add(txn_id.root)
    return graph


def reference_find_cycle(graph, start):
    path, on_path, visited = [], set(), set()

    def dfs(node):
        visited.add(node)
        path.append(node)
        on_path.add(node)
        for target in sorted(graph.get(node, ())):
            if target in on_path:
                return path[path.index(target):]
            if target not in visited:
                found = dfs(target)
                if found is not None:
                    return found
        path.pop()
        on_path.discard(node)
        return None

    return dfs(start) if graph.get(start) else None


def reference_first_cycle(entries, blocked):
    """The first cycle from the blocked families in serial order."""
    graph = reference_graph(entries)
    for start in sorted(blocked):
        cycle = reference_find_cycle(graph, start)
        if cycle is not None:
            return cycle
    return None


def reference_victim(cycle, blocked):
    return max(root for root in cycle if root in blocked)


# ----------------------------------------------------------------------
# (a) Random operation sequences on real entries
# ----------------------------------------------------------------------

class _Txn:
    """A family's root, as the entry needs it (id, node, ancestry)."""

    def __init__(self, root):
        self.id = TxnId(root, root)
        self.node = NodeId(0)
        self.parent = None

    def is_ancestor_of(self, other):
        return False


class _Wake:
    def __init__(self):
        self.failed = None

    def fail(self, exc):
        self.failed = exc


class _ModelLockManager:
    """The state ``LockManager``'s deadlock path reads, around its
    real ``_detect_deadlocks`` and ``_abort_victim``."""

    _detect_deadlocks = LockManager._detect_deadlocks
    _real_abort_victim = LockManager._abort_victim

    def __init__(self, entries):
        self.entries = entries
        self._blocked = {}
        self.stats = LockStats()
        self.tracer = NULL_TRACER
        self.log = []  # (victim, cycle) in order

    def _abort_victim(self, cycle):
        assert cycle == reference_first_cycle(self.entries, self._blocked)
        expected = reference_victim(cycle, self._blocked)
        family = self._blocked[expected]
        victim = self._real_abort_victim(cycle)
        assert victim == expected
        assert isinstance(family.waiter.wake.failed, DeadlockError)
        assert family.waiter not in family.entry.waiting_families
        self.log.append((victim, list(cycle)))
        return victim


class LockTableModel:
    """Families (one root each) holding, retaining and queueing on a
    few real entries; the lock manager's deadlock path on top.  A
    family a pump admits stays blocked until it resumes, as a woken
    process does."""

    def __init__(self, rng, roots, objects):
        self.rng = rng
        self.roots = roots
        self.txns = {root: _Txn(root) for root in roots}
        self.entries = [
            DirectoryEntry(ObjectId(index), home_node=NodeId(0),
                           page_count=1, creator_node=NodeId(0))
            for index in range(objects)
        ]
        self.lockmgr = _ModelLockManager(self.entries)
        table = SimpleNamespace(commutes=lambda a, b: a == b == "deposit")
        self.modes = [R, W, SemanticMode(W, "Till.deposit", table),
                      SemanticMode(W, "Till.withdraw", table),
                      SemanticMode(R, "Till.audit", table)]

    @property
    def blocked(self):
        return self.lockmgr._blocked

    def _pump(self, entry):
        entry.pump()  # the admitted stay blocked until they resume

    # -- operations ----------------------------------------------------

    def hold(self, root, index, mode):
        """A running family is granted the lock (shared or not: the
        graph, not the grant rule, is under test)."""
        self.entries[index].grant(self.txns[root], mode)

    def wait(self, root, index, mode):
        entry = self.entries[index]
        waiter = Waiter(self.txns[root], mode, _Wake())
        entry.enqueue_global(waiter)
        self.blocked[root] = BlockedFamily(entry=entry, waiter=waiter)
        self.lockmgr._detect_deadlocks(root)

    def retain(self, root, index, mode):
        """A running family gains a retention (a prefetch, or a child's
        pre-commit)."""
        entry = self.entries[index]
        txn = self.txns[root]
        entry.grant(txn, mode)
        entry.demote_to_retained(txn)

    def release(self, root, index):
        entry = self.entries[index]
        entry.release_family(root)
        self._pump(entry)

    def resume(self, root):
        del self.blocked[root]

    def timeout(self, root):
        family = self.blocked.pop(root)
        assert family.entry.remove_waiter(family.waiter.txn_id)

    def crash(self, root):
        self.blocked.pop(root, None)
        for entry in self.entries:
            touched = bool(entry.remove_family_waiters(root))
            if entry.family_present(root):
                entry.release_family(root)
                touched = True
            if touched:
                self._pump(entry)

    # -- random steps --------------------------------------------------

    def queued(self, root):
        family = self.blocked.get(root)
        return (family is not None
                and family.waiter in family.entry.waiting_families)

    def step(self):
        """One operation chosen from the state; returns its name."""
        rng = self.rng
        running = [root for root in self.roots if root not in self.blocked]
        admitted = [root for root in self.blocked if not self.queued(root)]
        waiting = [root for root in self.blocked if self.queued(root)]
        holding = [(root, index) for root in running
                   for index, entry in enumerate(self.entries)
                   if entry.family_present(root)]
        kinds, weights = ["crash"], [1]
        for names, weight, pool in (("acquire", 20, running),
                                    ("retain", 2, running),
                                    ("release", 6, holding),
                                    ("resume", 6, admitted),
                                    ("timeout", 1, waiting)):
            if pool:
                kinds.append(names)
                weights.append(weight)
        kind = rng.choices(kinds, weights)[0]
        mode = rng.choice(self.modes)
        index = rng.randrange(len(self.entries))
        entry = self.entries[index]
        if kind == "acquire":
            root = rng.choice(running)
            if entry.family_present(root):
                return "noop"
            if entry.is_free or rng.random() < 0.2:
                self.hold(root, index, mode)
                return "hold"
            self.wait(root, index, mode)
            return "wait"
        if kind == "retain":
            root = rng.choice(running)
            if entry.family_present(root):
                return "noop"
            self.retain(root, index, mode)
            return "retain"
        if kind == "release":
            self.release(*rng.choice(holding))
        elif kind == "resume":
            self.resume(rng.choice(admitted))
        elif kind == "timeout":
            self.timeout(rng.choice(waiting))
        else:
            self.crash(rng.choice(self.roots))
        return kind


@pytest.mark.parametrize("seed", range(24))
def test_random_sequences_match_reference(seed):
    rng = random.Random(seed)
    roots = list(range(1, rng.choice((5, 8, 12)) + 1))
    model = LockTableModel(rng, roots, objects=rng.choice((3, 5)))
    seen = set()
    for _ in range(300):
        seen.add(model.step())
        assert reference_first_cycle(model.entries, model.blocked) is None
    assert {"hold", "wait", "retain", "release", "resume", "timeout",
            "crash"} <= seen
    assert model.lockmgr.log, "no deadlock in 300 steps"
    assert model.lockmgr.stats.cycle_searches >= len(model.lockmgr.log)


# ----------------------------------------------------------------------
# The lock manager's own window: admitted, not yet resumed
# ----------------------------------------------------------------------

def test_waiter_admitted_by_a_local_pump_has_no_out_edge(cluster):
    """Family B waits on O1 behind H's child; the child's sub-abort
    pumps locally (H still retains a commuting deposit) and admits B.
    B stays blocked until its process resumes, but its waiter left the
    queue, so B waits for nobody: when H's root then waits for O2,
    which B holds, there is no cycle (a stale B -> H edge would make
    one and abort a family already granted its lock)."""
    lockmgr = cluster.lockmgr
    table = SimpleNamespace(commutes=lambda a, b: a == b == "deposit")
    deposit = SemanticMode(W, "Till.deposit", table)
    withdraw = SemanticMode(W, "Till.withdraw", table)
    first, second = cluster.create(Counter), cluster.create(Counter)
    o1, o2 = first.meta.object_id, second.meta.object_id
    e1, e2 = cluster.directory.entry(o1), cluster.directory.entry(o2)
    node = cluster.nodes[1]
    h_root = Transaction(TxnId(1, 1), node)
    h_child = Transaction(TxnId(3, 1), node, parent=h_root)
    b_root = Transaction(TxnId(2, 2), node)
    e1.grant(h_root, deposit)
    e1.demote_to_retained(h_root)
    e1.grant(h_child, withdraw)
    h_child.lock_objects[o1] = e1
    e2.grant(b_root, W)

    b_waits = lockmgr._wait(e1, b_root, deposit)
    next(b_waits)
    (b_waiter,) = e1.waiting_families
    assert e1.blockers_of(b_waiter) == [1]

    for _ in lockmgr.sub_abort_release(h_child):
        pass  # nothing freed: the local pump is all of it
    assert e1.waiting_families == [] and b_root.id in e1.holders
    assert 2 in lockmgr._blocked  # B's process has not resumed
    assert e1.blockers_of(b_waiter) == []

    h_waits = lockmgr._wait(e2, h_root, W)
    next(h_waits)
    assert cluster.lock_stats.deadlocks == 0
    assert find_cycle(1, lockmgr._blocked, {}, set()) is None
    h_waits.close()
    b_waits.close()


# ----------------------------------------------------------------------
# (b) Live runs: the reference is asked at every abort and every return
# ----------------------------------------------------------------------

def run_against_reference(task, **config):
    """Run ``task``'s workload, with ``config`` overrides, and the lock
    manager's deadlock path shadowed by the reference; returns the
    (victim, cycle) pairs compared."""
    config = dataclasses.replace(build_config(task), trace=False, **config)
    workload = generate_workload(
        SCENARIOS[task.scenario].scaled(task.scale), seed=task.seed
    )
    cluster = Cluster(config)
    lockmgr = cluster.lockmgr
    detect = lockmgr._detect_deadlocks
    abort_victim = lockmgr._abort_victim
    compared = []

    def entries():
        return cluster.directory.entries().values()

    def shadowed_abort_victim(cycle):
        expected = reference_first_cycle(entries(), lockmgr._blocked)
        assert cycle == expected
        victim = reference_victim(expected, lockmgr._blocked)
        assert abort_victim(cycle) == victim
        assert victim not in lockmgr._blocked
        compared.append((victim, list(cycle)))
        return victim

    def shadowed_detect(root):
        detect(root)
        missed = reference_first_cycle(entries(), lockmgr._blocked)
        assert missed is None, f"cycle {missed} left behind"

    lockmgr._abort_victim = shadowed_abort_victim
    lockmgr._detect_deadlocks = shadowed_detect
    with cluster:
        run_workload(cluster, workload)
    assert len(compared) == cluster.lock_stats.deadlocks
    return compared


#: name -> (FuzzTask fields, ClusterConfig overrides)
VARIANTS = {
    "plain": ({}, {}),
    "semantic": ({"semantic": True}, {}),
    "crash-recover": ({"preset": "crash-recover"}, {}),
    "migration": ({"migration": True}, {}),
    "prefetch": ({}, {"prefetch": "locks+pages"}),
}


def compare_matrix(seeds, policies, variants, scale):
    compared = 0
    for seed in seeds:
        for policy in policies:
            for variant in variants:
                fields, config = VARIANTS[variant]
                compared += len(run_against_reference(FuzzTask(
                    seed=seed, policy=policy, scale=scale, **fields,
                ), **config))
    return compared


def test_live_victims_match_reference():
    compared = compare_matrix(seeds=(11, 12), policies=("fifo",),
                              variants=("plain", "semantic", "prefetch"),
                              scale=0.5)
    assert compared >= 20


@pytest.mark.slow
def test_live_victims_match_reference_full_matrix():
    compared = compare_matrix(seeds=range(5),
                              policies=("fifo", "lifo", "random"),
                              variants=sorted(VARIANTS), scale=0.5)
    assert compared >= 100
