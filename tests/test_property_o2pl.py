"""Property-based state machine over the O2PL directory entry.

Hypothesis drives random sequences of family growth, acquisition,
pre-commit, abort, and root release against one DirectoryEntry, under
the executor's one-request-per-family rule, and checks the §4.1
structural invariants after every step:

* multiple readers / single writer (a write holder is the sole holder),
* ReadCount equals the number of read holders,
* a grant is only ever handed out when rule 1 allows it,
* waiters are never simultaneously holders,
* a family has at most one waiter,
* no request is blocked by its own family (``decide`` never raises),
* released families leave no residue.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
import hypothesis.strategies as st

from repro.gdo.entry import DirectoryEntry, GrantDecision, LockMode, Waiter
from repro.util.ids import NodeId, ObjectId, TxnId


class _StubTxn:
    def __init__(self, serial, root, parent, node):
        self.id = TxnId(serial=serial, root=root)
        self.parent = parent
        self.node = node
        self.finished = False

    def is_ancestor_of(self, other):
        probe = other.parent
        while probe is not None:
            if probe is self:
                return True
            probe = probe.parent
        return False

    def __repr__(self):
        return f"Stub{self.id!r}"


class _FakeWake:
    def __init__(self):
        self.fired = False

    def succeed(self, value=None):
        self.fired = True

    def fail(self, exc):
        self.fired = True

    @property
    def triggered(self):
        return self.fired


class O2PLMachine(RuleBasedStateMachine):
    """Families follow the executor's rule: a family's live
    transactions form one chain, only its leaf requests, and a blocked
    family can only wait or abort its root.  ``decide`` must therefore
    never raise (no intra-family conflict): any ProtocolError fails the
    run."""

    def __init__(self):
        super().__init__()
        self.entry = DirectoryEntry(
            ObjectId(0), home_node=NodeId(0), page_count=2,
            creator_node=NodeId(0),
        )
        self.serial = 0
        self.txns = []
        # root serial -> live chain (root first); blocked root serials.
        self.chains = {}
        self.blocked = set()

    def _next_serial(self):
        self.serial += 1
        return self.serial

    def _running(self):
        return [root for root in self.chains if root not in self.blocked]

    def _pump(self):
        for waiter in self.entry.pump():
            self.blocked.discard(waiter.txn_id.root)

    def _release_family(self, root):
        for txn in self.chains.pop(root):
            txn.finished = True
        self.entry.remove_family_waiters(root)
        self.blocked.discard(root)
        self.entry.release_family(root)
        self._pump()

    # -- rules -----------------------------------------------------------

    @rule(node=st.integers(0, 2))
    def new_root(self, node):
        serial = self._next_serial()
        root = _StubTxn(serial, serial, None, NodeId(node))
        self.txns.append(root)
        self.chains[serial] = [root]

    @precondition(lambda self: self._running())
    @rule(data=st.data())
    def new_child(self, data):
        chain = self.chains[data.draw(st.sampled_from(self._running()))]
        parent = chain[-1]
        child = _StubTxn(self._next_serial(), parent.id.root, parent,
                         parent.node)
        self.txns.append(child)
        chain.append(child)

    @precondition(lambda self: self._running())
    @rule(data=st.data(), mode=st.sampled_from([LockMode.READ, LockMode.WRITE]))
    def try_acquire(self, data, mode):
        root = data.draw(st.sampled_from(self._running()))
        txn = self.chains[root][-1]
        decision = self.entry.decide(txn, mode)
        if decision is GrantDecision.GRANTED:
            self.entry.grant(txn, mode)
        elif decision is GrantDecision.WAIT_GLOBAL:
            self.entry.enqueue_global(Waiter(txn, mode, _FakeWake()))
            self.blocked.add(root)
        # RECURSIVE: request refused, nothing recorded.

    @precondition(lambda self: any(
        len(self.chains[root]) > 1 for root in self._running()
    ))
    @rule(data=st.data())
    def precommit_leaf(self, data):
        root = data.draw(st.sampled_from([
            root for root in self._running() if len(self.chains[root]) > 1
        ]))
        txn = self.chains[root].pop()
        if txn.id in self.entry.holders or txn.id in self.entry.retainers:
            self.entry.release_to_parent(txn, txn.parent)
        txn.finished = True
        self._pump()

    @precondition(lambda self: any(
        len(self.chains[root]) > 1 for root in self._running()
    ))
    @rule(data=st.data())
    def abort_leaf(self, data):
        root = data.draw(st.sampled_from([
            root for root in self._running() if len(self.chains[root]) > 1
        ]))
        txn = self.chains[root].pop()
        self.entry.release_on_abort(txn)
        txn.finished = True
        self._pump()

    @precondition(lambda self: self.chains)
    @rule(data=st.data())
    def abort_root(self, data):
        # Blocked families included: a deadlock victim aborts its root.
        self._release_family(data.draw(st.sampled_from(sorted(self.chains))))

    @precondition(lambda self: any(
        len(self.chains[root]) == 1 for root in self._running()
    ))
    @rule(data=st.data())
    def commit_root(self, data):
        self._release_family(data.draw(st.sampled_from([
            root for root in self._running() if len(self.chains[root]) == 1
        ])))

    # -- invariants --------------------------------------------------------

    @invariant()
    def single_writer(self):
        writers = [
            txn_id for txn_id, mode in self.entry.holders.items()
            if mode is LockMode.WRITE
        ]
        if writers:
            assert len(self.entry.holders) == 1, (
                f"writer {writers} shares with {list(self.entry.holders)}"
            )

    @invariant()
    def read_count_consistent(self):
        expected = sum(
            1 for mode in self.entry.holders.values()
            if mode is LockMode.READ
        )
        assert self.entry.read_count == expected

    @invariant()
    def waiters_not_already_satisfied(self):
        # A transaction may wait for an upgrade (holding R, wanting W),
        # but never for a mode its current hold already covers.
        for waiter in self.entry.waiting_families:
            held = self.entry.holders.get(waiter.txn_id)
            if held is None:
                continue
            assert held is LockMode.READ and waiter.mode is LockMode.WRITE, (
                f"{waiter.txn_id} waits for {waiter.mode} while holding {held}"
            )

    @invariant()
    def one_waiter_per_family(self):
        roots = [w.txn_id.root for w in self.entry.waiting_families]
        assert sorted(roots) == sorted(self.blocked)

    @invariant()
    def finished_txns_left_no_residue(self):
        finished = {t.id for t in self.txns if t.finished}
        assert not (finished & set(self.entry.holders))
        assert not (finished & set(self.entry.retainers))

    @invariant()
    def retainers_imply_rule1_blocks_strangers(self):
        # If any retainer exists, a brand-new family's request must not
        # be grantable (its retainers cannot be ancestors of a stranger).
        if self.entry.retainers:
            probe = _StubTxn(10**6, 10**6, None, NodeId(0))
            decision = self.entry.decide(probe, LockMode.WRITE)
            assert decision is not GrantDecision.GRANTED


O2PLMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestO2PL = O2PLMachine.TestCase
