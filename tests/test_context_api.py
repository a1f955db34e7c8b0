"""Tests for the user-facing TxnContext surface and executor timing."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    Array, Attr, ConfigurationError, ProtocolError, method, shared_class,
)
from repro.faults import FAULT_PRESETS
from repro.gdo.entry import PageMapEntry
from repro.gdo.migration import MigrationConfig
from repro.memory.undo import UndoRecord
from repro.runtime.context import TxnContext
from repro.txn.transaction import Transaction
from repro.util.ids import TxnId
from repro.workload import SCENARIOS, generate_workload

from conftest import Counter, Ledger, make_cluster


@shared_class
class Introspector:
    seen_node = Attr(size=8, default=0)
    seen_time = Attr(size=8, default=0)

    @method
    def observe(self, ctx):
        self.seen_node = ctx.node.value
        self.seen_time = int(ctx.now * 1e9)
        return (ctx.txn_id, ctx.node, ctx.now)


class TestContextProperties:
    def test_txn_identity_exposed(self):
        cluster = make_cluster()
        probe = cluster.create(Introspector)
        txn_id, node, now = cluster.call(probe, "observe",
                                         node=cluster.nodes[2])
        assert isinstance(txn_id, TxnId)
        assert txn_id.is_root
        assert node == cluster.nodes[2]
        assert now >= 0.0
        assert cluster.read_attr(probe, "seen_node") == 2

    def test_sub_txn_gets_child_identity(self):
        @shared_class
        class Wrapper:
            x = Attr(size=8, default=0)

            @method
            def wrap(self, ctx, probe):
                child_result = yield ctx.invoke(probe, "observe")
                return (ctx.txn_id, child_result[0])

        cluster = make_cluster()
        probe = cluster.create(Introspector)
        wrapper = cluster.create(Wrapper)
        parent_id, child_id = cluster.call(wrapper, "wrap", probe)
        assert parent_id.is_root
        assert not child_id.is_root
        assert child_id.root == parent_id.serial

    def test_cross_object_direct_access_refused(self):
        """The proxy of one object must not be usable to reach another
        object's slots (other objects only via ctx.invoke)."""
        cluster = make_cluster()
        ledger = cluster.create(Ledger)
        counter = cluster.create(Counter)
        ctx_holder = {}

        @shared_class
        class Thief:
            x = Attr(size=8, default=0)

            @method
            def steal(self, ctx, victim_meta):
                ctx_holder["ctx"] = ctx
                return self.x

        thief = cluster.create(Thief)
        cluster.call(thief, "steal", None)
        ctx = ctx_holder["ctx"]
        with pytest.raises(ProtocolError, match="ctx.invoke"):
            ctx.read_slot(counter.meta, ("value", 0))


class TestDemandFetchDelayAccounting:
    def test_deferred_delay_advances_clock(self):
        """A LOTEC demand fetch charges its network time at the next
        suspension point: the commit happens later than a run where
        everything was predicted."""
        cluster = make_cluster(protocol="lotec", seed=4)
        ledger = cluster.create(Ledger, node=cluster.nodes[0])
        cluster.call(ledger, "bump_beta", 2, node=cluster.nodes[1])

        @shared_class
        class Driver:
            n = Attr(size=8, default=0)

            @method
            def go(self, ctx, target):
                yield ctx.invoke(target, "bump_alpha", 1)
                total = yield ctx.invoke(target, "sum_all")
                self.n += 1
                return total

        driver = cluster.create(Driver, node=cluster.nodes[2])
        before_fetches = cluster.prediction_stats.demand_fetches
        start = cluster.env.now
        cluster.call(driver, "go", ledger, node=cluster.nodes[2])
        elapsed = cluster.env.now - start
        fetches = cluster.prediction_stats.demand_fetches - before_fetches
        assert fetches > 0
        # Every fetch's round trip is at least two software costs.
        min_delay = fetches * 2 * cluster.config.network.software_cost_s
        assert elapsed > min_delay


class TestRetryBackoff:
    def test_retries_are_spaced_in_time(self):
        """Deadlock retries wait an exponential, jittered backoff: the
        retried commit lands later than the conflict-free path."""
        from repro import Attr, method, shared_class

        @shared_class
        class Grabber:
            done = Attr(size=8, default=0)

            @method
            def both(self, ctx, first, second):
                yield ctx.invoke(first, "add", 1)
                yield ctx.invoke(second, "add", 1)
                self.done += 1

        cluster = make_cluster(protocol="lotec", seed=3,
                               retry_backoff_s=0.05)
        a = cluster.create(Counter, node=cluster.nodes[0])
        b = cluster.create(Counter, node=cluster.nodes[1])
        g1 = cluster.create(Grabber, node=cluster.nodes[2])
        g2 = cluster.create(Grabber, node=cluster.nodes[3])
        cluster.submit(g1, "both", a, b, node=cluster.nodes[2])
        cluster.submit(g2, "both", b, a, node=cluster.nodes[3])
        cluster.run()
        assert cluster.read_attr(a, "value") == 2
        if cluster.lock_stats.deadlocks:
            # With a 50ms backoff base, the victim's retry pushes the
            # end of the run past the backoff floor.
            assert cluster.env.now > 0.05


# ---------------------------------------------------------------------------
# Same behaviour, fewer lookups (PR 20): the bound-reference access path
# against a reference written on the public NodeStore / Directory API.
# ---------------------------------------------------------------------------

PAGE = 100
ALL = ["a", "b", "n", "arr"]


@shared_class
class Wide:
    """428 bytes on five 100-byte pages: ``b`` and three of the four
    ``arr`` elements span two pages (``arr[3]`` is on pages 3 and 4)."""

    a = Attr(size=60, default=1)
    b = Attr(size=80, default=2)
    n = Attr(size=8, default=0)
    arr = Array(size=70, count=4, default=3)

    @method(reads=ALL, writes=ALL)
    def work(self, ctx):
        self.n += 1

    @method(reads=ALL, writes=[])
    def peek(self, ctx):
        return self.a

    @method
    def idle(self, ctx):
        return 7


SLOTS = [("a", 0), ("b", 0), ("n", 0)] + [("arr", i) for i in range(4)]


class ReferenceAccessor:
    """The pre-PR-20 access algorithm on the public API only: every
    access re-resolves the store, the directory entry and the root."""

    def __init__(self, cluster, txn, meta, increments=frozenset()):
        self.cluster, self.txn, self.meta = cluster, txn, meta
        self.oid, self.increments = meta.object_id, increments
        self.merger = cluster.executor.merger
        self.actual_reads, self.actual_writes = set(), set()

    def _ensure_current(self, pages, is_write):
        entry = self.cluster.directory.entry(self.oid)
        store = self.cluster.stores[self.txn.node]
        stale = [page for page in pages
                 if store.page_version(self.oid, page) < entry.latest_version(page)]
        if stale:
            self.txn.root.pending_delay += self.cluster.protocol.for_meta(
                self.meta).on_stale_access(self.txn, self.meta,
                                           entry.page_map, stale, is_write)

    def _materialize(self, pages):
        store = self.cluster.stores[self.txn.node]
        if not store.has_object(self.oid) or any(
                store.page_version(self.oid, page) == 0 for page in pages):
            self._ensure_current(pages, True)

    def _touch(self, accessed, attr, pages):
        accessed.add(attr)
        self.txn.root.touch_pages.setdefault(self.oid, set()).update(pages)

    def read(self, slot):
        pages = self.meta.layout.slot_pages(*slot)
        if slot[0] in self.increments:
            self._materialize(pages)
        else:
            self._ensure_current(pages, False)
        self._touch(self.actual_reads, slot[0], pages)
        value = self.cluster.stores[self.txn.node].read_slot(self.oid, slot)
        if self.merger is not None:
            value += self.merger.family_adjustment(self.txn, self.oid, slot)
        return value

    def write(self, slot, value):
        pages = self.meta.layout.slot_pages(*slot)
        store = self.cluster.stores[self.txn.node]
        if slot[0] in self.increments:
            self._materialize(pages)
            delta = value - store.read_slot(self.oid, slot) - \
                self.merger.family_adjustment(self.txn, self.oid, slot)
            self.merger.record(self.txn, self.oid, slot, delta)
        else:
            self._ensure_current(pages, True)
            if self.merger is not None:
                value -= self.merger.plain_write_adjustment(
                    self.txn, self.oid, slot)
            self.txn.undo.append(UndoRecord(
                (self.oid, slot) + store.peek_slot(self.oid, slot)))
            store.write_slot(self.oid, slot, value)
        self.txn.record_dirty(self.oid, pages)
        self._touch(self.actual_writes, slot[0], pages)


def _world(semantic, cached_pages):
    """A cluster with one ``Wide`` object created at node 0 and a child
    transaction at node 1 that holds ``cached_pages`` of it (as if an
    acquisition had gathered the predicted pages)."""
    cluster = make_cluster(page_size=PAGE, semantic_locks=semantic)
    handle = cluster.create(Wide, node=cluster.nodes[0])
    cluster.run()  # bring the transport up
    node, oid = cluster.nodes[1], handle.object_id
    root = Transaction(cluster.alloc.next_root_txn(), node)
    child = Transaction(cluster.alloc.next_sub_txn(root.id), node,
                        parent=root)
    cluster.stores[node].register_object(oid, handle.meta.layout)
    cluster.stores[cluster.nodes[0]].ship_pages(oid, cached_pages,
                                                cluster.stores[node])
    return cluster, handle.meta, child


def _observable(cluster, meta, txn, accessor):
    store, oid = cluster.stores[txn.node], meta.object_id
    merger = cluster.executor.merger
    return {
        "slots": store.snapshot_object(oid),
        "page_versions": store.resident_pages(oid),
        "dirty": txn.dirty, "touch_pages": txn.root.touch_pages,
        "reads": accessor.actual_reads, "writes": accessor.actual_writes,
        "pending_delay": txn.root.pending_delay,
        "demand_fetches": cluster.prediction_stats.demand_fetches,
        "deltas": None if merger is None else [
            merger.family_adjustment(txn, oid, slot) for slot in SLOTS],
    }


operations = st.lists(st.one_of(
    st.tuples(st.just("read"), st.sampled_from(SLOTS)),
    st.tuples(st.just("write"), st.sampled_from(SLOTS), st.integers(-9, 9)),
    # A co-holder's commit at the owner: new bytes, a newer version.
    st.tuples(st.just("bump"), st.integers(0, 4), st.integers(10, 99)),
), max_size=25)


class TestSameBehaviourFewerLookups:
    @pytest.mark.parametrize("semantic", [False, True],
                             ids=["undo", "undo-semantic"])
    @given(ops=operations, cached=st.sets(st.integers(0, 4)))
    @example(cached={0}, ops=[  # hit, 2-page miss, refetch, increments
        ("read", ("a", 0)), ("write", ("arr", 3), 5), ("bump", 0, 42),
        ("read", ("a", 0)), ("write", ("n", 0), 4), ("write", ("n", 0), 6),
        ("read", ("n", 0)), ("write", ("b", 0), 8), ("read", ("b", 0))])
    @settings(max_examples=40, deadline=None)
    def test_context_matches_public_api_reference(self, semantic, ops,
                                                  cached):
        increments = frozenset({"n"}) if semantic else frozenset()
        real, meta_r, txn_r = _world(semantic, cached)
        ref, meta_f, txn_f = _world(semantic, cached)
        ctx = TxnContext(real.executor, txn_r, meta_r,
                         meta_r.schema.method_spec("work"), increments)
        model = ReferenceAccessor(ref, txn_f, meta_f, increments)
        for op in ops:
            if op[0] == "read":
                assert ctx.read_slot(meta_r, op[1]) == model.read(op[1])
            elif op[0] == "write":
                ctx.write_slot(meta_r, op[1], op[2])
                model.write(op[1], op[2])
            else:
                for cluster, meta in ((real, meta_r), (ref, meta_f)):
                    _, page, value = op
                    owner, oid = cluster.stores[cluster.nodes[0]], meta.object_id
                    page_map = cluster.directory.entry(oid).page_map
                    entry = page_map[page]
                    assert entry.owner == cluster.nodes[0]
                    # Entries are immutable: a commit replaces one.
                    entry = page_map[page] = PageMapEntry(
                        entry.owner, entry.version + 1)
                    owner.write_slot(oid, meta.layout.slots_by_page[page][0],
                                     value)
                    owner.set_page_version(oid, page, entry.version)
            assert _observable(real, meta_r, txn_r, ctx) == \
                _observable(ref, meta_f, txn_f, model)
        # Roll back through the recovery log: both stores agree again.
        applied = (txn_r.undo.apply(real.stores[txn_r.node]),
                   txn_f.undo.apply(ref.stores[txn_f.node]))
        assert applied[0] == applied[1]
        assert real.stores[txn_r.node].snapshot_object(meta_r.object_id) == \
            ref.stores[txn_f.node].snapshot_object(meta_f.object_id)

    def test_untouched_context_binds_nothing(self):
        """No slot access: no ``touch_pages`` entry, and the object
        need not even be cached at the executing node."""
        cluster = make_cluster(page_size=PAGE)
        handle = cluster.create(Wide, node=cluster.nodes[0])
        txn = Transaction(cluster.alloc.next_root_txn(), cluster.nodes[1])
        assert not cluster.stores[txn.node].has_object(handle.object_id)
        ctx = TxnContext(cluster.executor, txn, handle.meta,
                         handle.meta.schema.method_spec("idle"))
        assert (ctx.txn_id, ctx.node) == (txn.id, txn.node)
        assert handle.object_id not in txn.touch_pages
        assert cluster.call(handle, "idle", node=cluster.nodes[0]) == 7

    def test_bound_structures_are_assigned_once(self):
        """What a context binds must never be re-created: home
        migration and the crash-failover preset (failover re-homing,
        WAL replay at rejoin) mutate copies, entries and page maps in
        place."""
        workload = generate_workload(SCENARIOS["medium-high"].scaled(0.25),
                                     seed=3)
        cluster = make_cluster(seed=3, migration=MigrationConfig(),
                               faults=FAULT_PRESETS["crash-failover"])
        handles = tuple(cluster.create(workload.class_of(index).schema)
                        for index in range(workload.num_objects))
        for index, plan in enumerate(workload.plans):
            cluster.submit(handles[plan.obj_index], plan.method_name, plan,
                           handles, delay=workload.arrival_offsets[index])

        def identities():
            found = {}
            for handle in handles:
                oid = handle.object_id
                entry = cluster.directory.entry(oid)
                found[oid] = (entry, entry.page_map)
                for node, store in cluster.stores.items():
                    if store.has_object(oid):
                        found[node, oid] = store.copy_of(oid)
            return found

        seen = identities()
        for until in (0.005, 0.02, None):  # mid-crash, after rejoin, idle
            cluster.run(until)
            now = identities()
            for key, value in seen.items():
                same = (value is now[key] if not isinstance(value, tuple)
                        else all(a is b for a, b in zip(value, now[key])))
                assert same, key
            seen = now
        assert cluster.migration_stats.migrations > 0
        assert cluster.fault_stats.failovers > 0
        assert cluster.fault_stats.rejoin_replayed_records > 0


class TestAccessErrors:
    """Every refusal on the access path keeps its type and its text."""

    def setup_method(self):
        self.cluster, self.meta, self.txn = _world(False, {0, 1})

    def context(self, method_name="work"):
        return TxnContext(self.cluster.executor, self.txn, self.meta,
                          self.meta.schema.method_spec(method_name))

    def test_cross_object_write_refused(self):
        other = self.cluster.create(Counter)
        with pytest.raises(ProtocolError, match=r"touched .* directly; other "
                           r"objects are reached only via ctx.invoke\(\)"):
            self.context().write_slot(other.meta, ("value", 0), 1)

    def test_write_under_read_lock_refused(self):
        with pytest.raises(ProtocolError, match="method 'peek' wrote "
                           "attribute 'a' under a READ lock"):
            self.context("peek").write_slot(self.meta, ("a", 0), 1)

    def test_read_before_any_copy_arrived(self):
        store = self.cluster.stores[self.txn.node]
        for page in (3, 4):  # current tags, but the bytes never came
            store.set_page_version(self.meta.object_id, page, 1)
        with pytest.raises(ProtocolError, match=r"slot \('arr', 3\) of .* "
                           r"read at .* before any copy arrived"):
            self.context().read_slot(self.meta, ("arr", 3))

    def test_object_not_cached_at_the_executing_node(self):
        txn = Transaction(self.cluster.alloc.next_root_txn(),
                          self.cluster.nodes[2])
        ctx = TxnContext(self.cluster.executor, txn, self.meta,
                         self.meta.schema.method_spec("work"))
        with pytest.raises(ProtocolError, match="not cached at node"):
            ctx.read_slot(self.meta, ("a", 0))

    def test_unknown_slot(self):
        with pytest.raises(KeyError, match=r"no slot \('arr', 9\)"):
            self.context().read_slot(self.meta, ("arr", 9))
        with pytest.raises(KeyError, match=r"no slot \('ghost', 0\)"):
            self.context().write_slot(self.meta, ("ghost", 0), 1)

    def test_method_name_read_off_shared_self(self):
        @shared_class
        class Caller:
            x = Attr(size=8)

            @method
            def helper(self, ctx):
                return 1

            @method
            def run(self, ctx):
                return self.helper

        with pytest.raises(ConfigurationError, match="direct call of method "
                           "'helper' on shared self; invoke it as a "
                           "sub-transaction"):
            self.cluster.call(self.cluster.create(Caller), "run")

    def test_whole_array_assignment(self):
        @shared_class
        class Bulk:
            items = Array(size=8, count=3)

            @method
            def run(self, ctx):
                self.items = [1, 2, 3]

        with pytest.raises(ConfigurationError, match=r"cannot assign whole "
                           r"array 'items'; assign elements"):
            self.cluster.call(self.cluster.create(Bulk), "run")
