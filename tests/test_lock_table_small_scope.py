"""Small-scope model check of the lock table under the executor's rule.

A breadth-first enumeration of every state a few GDO entries can reach
when families behave as :mod:`repro.runtime.executor` runs them: a
family's live transactions form one chain (root, child, grandchild...),
only the leaf requests locks, one request at a time, and a blocked
family can only wait to be granted or lose its request (a deadlock
victim or a lock-wait timeout) and abort.  The rules follow the
abstract-state-machine style — each is a guard on the abstract state
plus an update — and the updates drive the real
:class:`~repro.gdo.entry.DirectoryEntry`.

Actions: start a root; root pre-acquisition (a grant demoted to a
retention); open a child; the leaf requests R or W on any object;
pre-commit or sub-abort the leaf; root commit or abort (one rule: both
release the family everywhere).  A refused (§3.4 recursive) request and
a deadlock victim let the family go on with any step, not only the
abort steps the executor takes: a superset of its behaviour, and so a
stronger claim.

Checked at every pump and pre-commit, against a reference pump that
decides every queued waiter (``_full_pass_pump``, run on a copy of the
entry; ``DirectoryEntry.pump`` ends its pass at a granted write):

* a pre-commit makes nobody grantable, so the lock manager need not
  pump after one (the model does not);
* the pump returns the grants that copy returns and leaves the queue
  it leaves.

Checked after every step:

* ``decide`` never raises: no request is blocked by its own family, so
  the paper's intra-family wait list is unreachable (the entry raises
  ``ProtocolError`` instead of queueing such a request);
* a write holder is the only holder, and a family holding or
  retaining a write lock is the only family on the entry (rule 1a: no
  grant, upgrades included, passes a foreign retainer);
* a family has at most one waiter, from its leaf, on the entry it is
  blocked on;
* every holder, retainer and waiter is a live transaction of its
  family's chain (finished transactions leave no residue).

States are deduplicated by a canonical form keyed on (family, depth),
which abstracts the transaction serials away.  Depth counts the levels
below the root.  Tier-1 runs 2 families x 1 object x depth 2 (4,518
states); ``-m slow`` runs 2 x 2 x depth 1 (54,097) and 3 x 1 x depth 1
(29,565).  A change to the entry's rules or to the action set moves
these counts: re-read them from a run.
"""

import copy
from collections import Counter, deque

import pytest

from repro.gdo.entry import DirectoryEntry, GrantDecision, LockMode, Waiter
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId, TxnId

R, W = LockMode.READ, LockMode.WRITE


class _Txn:
    """Stub transaction: id, node and ancestry, as the entry needs.
    Family ``f`` runs at node ``f``, so a waiter's node names its
    family."""

    __slots__ = ("id", "node", "parent")

    def __init__(self, serial, family, parent):
        root = parent.id.root if parent is not None else serial
        self.id = TxnId(serial, root)
        self.node = NodeId(family)
        self.parent = parent

    def is_ancestor_of(self, other):
        probe = other.parent
        while probe is not None:
            if probe is self:
                return True
            probe = probe.parent
        return False


def _full_pass_pump(self):
    """The reference pump: one FIFO pass that decides every queued
    waiter, with no early end."""
    granted = []
    remaining = []
    for waiter in self.waiting_families:
        if self.decide(waiter.txn, waiter.mode) is GrantDecision.GRANTED:
            self.grant(waiter.txn, waiter.mode)
            granted.append(waiter)
        else:
            remaining.append(waiter)
    self.waiting_families = remaining
    return granted


def _full_pass_on_copy(entry):
    """Run :func:`_full_pass_pump` on a copy of ``entry``'s lock
    state; returns the copy's grants and the copy."""
    twin = copy.copy(entry)
    for name in ("holders", "_holder_txns", "retainers", "_retainer_txns",
                 "waiting_families"):
        setattr(twin, name, copy.copy(getattr(entry, name)))
    return _full_pass_pump(twin), twin


def _chains(families, max_depth):
    """One full chain per family; a state's family at depth d is the
    prefix of length d + 1.  Shared by every rebuilt world: the rules
    never mutate a transaction, and new ones get fresh serials."""
    chains = []
    for family in range(families):
        chain = []
        for depth in range(max_depth + 1):
            parent = chain[-1] if chain else None
            chain.append(_Txn(100 * (family + 1) + depth, family, parent))
        chains.append(chain)
    return chains


class _World:
    """The concrete state of one abstract state: entries and chains.

    A family's abstract state is (depth of its leaf, index of the entry
    it is blocked on or None); depth -1 is a family between roots.
    Every rule runs on a fresh world rebuilt from the abstract state,
    so successors never share mutable entries."""

    def __init__(self, state, chains, decisions):
        families, entries = state
        self.decisions = decisions
        self.serial = 10_000
        self.chains = [chains[family][:depth + 1]
                       for family, (depth, _) in enumerate(families)]
        self.blocked = [blocked for _, blocked in families]
        self.entries = []
        for index, (holders, retainers, waiters) in enumerate(entries):
            entry = DirectoryEntry(ObjectId(index), home_node=NodeId(0),
                                   page_count=1, creator_node=NodeId(0))
            for family, depth, mode in retainers:
                txn = chains[family][depth]
                entry.grant(txn, mode)
                entry.demote_to_retained(txn)
            for family, depth, mode in holders:
                entry.grant(chains[family][depth], mode)
            for family, depth, mode in waiters:
                entry.enqueue_global(Waiter(chains[family][depth], mode))
            self.entries.append(entry)

    def _push(self, family):
        """A new leaf with a fresh serial, as the executor allocates
        one per attempt and per child (a stale lock of the transaction
        it replaces then shows up as residue)."""
        self.serial += 1
        chain = self.chains[family]
        chain.append(_Txn(self.serial, family, chain[-1] if chain else None))

    def pump(self, entry):
        expected, twin = _full_pass_on_copy(entry)
        granted = entry.pump()
        assert granted == expected, "the pump's grants differ"
        assert entry.waiting_families == twin.waiting_families, (
            "the pump left another queue")
        assert entry.holders == twin.holders
        for waiter in granted:
            family = waiter.txn.node.value
            self.blocked[family] = None

    def touched(self, txn):
        """The entries ``txn`` holds or retains: its ``lock_objects``."""
        return [entry for entry in self.entries
                if txn.id in entry.holders or txn.id in entry.retainers]

    # -- rules: guard in successors(), update here ------------------------

    def start(self, family, _):
        self._push(family)

    def open_child(self, family, _):
        self._push(family)

    def request(self, family, arg):
        index, mode, depth = arg
        txn = self.chains[family][depth]
        entry = self.entries[index]
        decision = entry.decide(txn, mode)
        self.decisions[decision] += 1
        if decision is GrantDecision.GRANTED:
            entry.grant(txn, mode)
        elif decision is GrantDecision.WAIT_GLOBAL:
            entry.enqueue_global(Waiter(txn, mode))
            self.blocked[family] = index
        # RECURSIVE: refused; the family goes on to abort its root.

    def pre_acquire(self, family, arg):
        """Optimistic pre-acquisition by the root (prefetch=True): a
        grant demoted to a retention, or nothing when not grantable."""
        index, mode, _ = arg
        root = self.chains[family][0]
        entry = self.entries[index]
        if (not entry.family_present(root.id.root)
                and entry.decide(root, mode) is GrantDecision.GRANTED):
            entry.grant(root, mode)
            entry.demote_to_retained(root)

    def precommit(self, family, _):
        chain = self.chains[family]
        leaf = chain.pop()
        for entry in self.touched(leaf):
            entry.release_to_parent(leaf, chain[-1])
            # The lock manager does not pump here: a pump would admit
            # nobody.
            assert _full_pass_on_copy(entry)[0] == [], (
                "a pre-commit made a waiter grantable")

    def sub_abort(self, family, _):
        leaf = self.chains[family].pop()
        for entry in self.touched(leaf):
            entry.release_on_abort(leaf)
            self.pump(entry)

    def victim(self, family, _):
        leaf = self.chains[family][-1]
        assert self.entries[self.blocked[family]].remove_waiter(leaf.id)
        self.blocked[family] = None

    def root_end(self, family, _):
        """Root commit or root abort: release the family everywhere."""
        root_serial = self.chains[family][0].id.root
        for entry in self.entries:
            entry.release_family(root_serial)
            entry.remove_family_waiters(root_serial)
            self.pump(entry)
        self.chains[family] = []

    # -- invariants and the abstract state ---------------------------------

    def check(self):
        live = {txn.id: (family, depth)
                for family, chain in enumerate(self.chains)
                for depth, txn in enumerate(chain)}
        for index, entry in enumerate(self.entries):
            for txn_id in (*entry.holders, *entry.retainers):
                assert txn_id in live, f"residue of {txn_id!r} on O{index}"
            if any(mode is W for mode in entry.holders.values()):
                assert len(entry.holders) == 1, f"two writers on O{index}"
            writers = {txn_id.root for txn_id, mode
                       in (*entry.holders.items(), *entry.retainers.items())
                       if mode is W}
            if writers:
                present = {txn_id.root
                           for txn_id in (*entry.holders, *entry.retainers)}
                assert present == writers, (
                    f"a write lock shared with another family on O{index}")
            seen = set()
            for waiter in entry.waiting_families:
                assert waiter.txn_id in live, f"stale waiter on O{index}"
                family, depth = live[waiter.txn_id]
                assert family not in seen, f"family {family} waits twice"
                seen.add(family)
                assert self.blocked[family] == index
                assert depth == len(self.chains[family]) - 1, "non-leaf waits"
        for family, index in enumerate(self.blocked):
            if index is not None:
                assert any(live[waiter.txn_id][0] == family for waiter
                           in self.entries[index].waiting_families)
        return live

    def abstract(self):
        key = self.check()

        def cells(pairs):
            return tuple((*key[txn_id], mode) for txn_id, mode in pairs)

        families = tuple(
            (len(chain) - 1, self.blocked[family])
            for family, chain in enumerate(self.chains)
        )
        entries = tuple(
            (cells(entry.holders.items()), cells(entry.retainers.items()),
             cells((w.txn_id, w.mode) for w in entry.waiting_families))
            for entry in self.entries
        )
        return families, entries


def successors(state, objects, max_depth, any_requester=False):
    """Every (family, rule, argument) whose guard holds in ``state``."""
    families, _ = state
    for family, (depth, blocked) in enumerate(families):
        if depth < 0:
            yield family, _World.start, None
        elif blocked is not None:
            yield family, _World.victim, None
        else:
            if depth < max_depth:
                yield family, _World.open_child, None
            requesters = range(depth + 1) if any_requester else (depth,)
            for index in range(objects):
                for mode in (R, W):
                    for requester in requesters:
                        yield family, _World.request, (index, mode, requester)
                    if depth == 0:
                        yield family, _World.pre_acquire, (index, mode, 0)
            if depth:
                yield family, _World.precommit, None
                yield family, _World.sub_abort, None
            else:
                yield family, _World.root_end, None  # commit or abort


def explore(families, objects, max_depth, any_requester=False):
    """Breadth-first over every reachable state; returns the number of
    states and the tally of ``decide`` outcomes for leaf requests.
    Raises AssertionError, naming the path, on the first violation."""
    initial = (((-1, None),) * families, (((), (), ()),) * objects)
    chains = _chains(families, max_depth)
    parents = {initial: None}
    frontier = deque([initial])
    decisions = Counter()
    while frontier:
        state = frontier.popleft()
        for family, rule, arg in successors(state, objects, max_depth,
                                            any_requester):
            world = _World(state, chains, decisions)
            try:
                rule(world, family, arg)
                successor = world.abstract()
            except (ProtocolError, AssertionError) as exc:
                path = [(family, rule.__name__, arg)]
                while parents[state] is not None:
                    state, step = parents[state]
                    path.append(step)
                raise AssertionError(f"{exc} after {path[::-1]}") from exc
            if successor not in parents:
                parents[successor] = (state, (family, rule.__name__, arg))
                frontier.append(successor)
    return len(parents), decisions


def _assert_exercised(decisions):
    """The search reached grants, cross-family waits and §3.4 aborts."""
    for decision in GrantDecision:
        assert decisions[decision] > 0, decision


def test_two_families_one_object_depth_two():
    states, decisions = explore(families=2, objects=1, max_depth=2)
    assert states == 4_518, states
    _assert_exercised(decisions)


@pytest.mark.slow
@pytest.mark.parametrize("families, objects, expected", [
    pytest.param(2, 2, 54_097, id="2x2-depth1"),
    pytest.param(3, 1, 29_565, id="3x1-depth1"),
])
def test_larger_scopes(families, objects, expected):
    states, decisions = explore(families=families, objects=objects,
                                max_depth=1)
    assert states == expected, states
    _assert_exercised(decisions)


def test_the_search_finds_an_intra_family_conflict_when_one_is_reachable():
    """Let an ancestor request while its descendant runs — concurrency
    the executor never has — and the same search reaches the entry's
    ProtocolError, so a clean search above is not vacuous."""
    with pytest.raises(AssertionError, match="intra-family conflict"):
        explore(families=1, objects=1, max_depth=1, any_requester=True)
