"""Integration tests: transaction execution semantics on a live cluster."""

import pytest

from repro import (
    Attr,
    ConfigurationError,
    ProtocolError,
    RecursiveInvocationError,
    TransactionAborted,
    method,
    shared_class,
)
from repro.util.ids import NodeId
from repro.workload import SCENARIOS, generate_workload, run_workload

from conftest import Counter, Ledger, Orchestrator, make_cluster


class TestBasics:
    def test_call_returns_result(self, cluster):
        counter = cluster.create(Counter)
        cluster.call(counter, "add", 5)
        assert cluster.call(counter, "get") == 5

    def test_initial_values(self, cluster):
        counter = cluster.create(Counter, initial={"value": 42})
        assert cluster.call(counter, "get") == 42

    def test_unknown_initial_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.create(Counter, initial={"ghost": 1})

    def test_unknown_method_rejected_at_submit(self, cluster):
        counter = cluster.create(Counter)
        with pytest.raises(KeyError):
            cluster.submit(counter, "nonexistent")

    def test_explicit_node_placement(self, cluster):
        counter = cluster.create(Counter, node=cluster.nodes[2])
        ticket = cluster.submit(counter, "add", 1, node=cluster.nodes[1])
        cluster.run()
        assert ticket.result() == 1
        assert ticket.node == cluster.nodes[1]

    def test_unknown_node_rejected(self, cluster):
        counter = cluster.create(Counter)
        with pytest.raises(ConfigurationError):
            cluster.submit(counter, "add", 1, node=NodeId(99))
        with pytest.raises(ConfigurationError):
            cluster.create(Counter, node=NodeId(99))

    def test_ticket_result_before_run_rejected(self, cluster):
        counter = cluster.create(Counter)
        ticket = cluster.submit(counter, "add", 1)
        with pytest.raises(ConfigurationError, match="not finished"):
            ticket.result()

    def test_root_in_flight_after_run_is_a_liveness_failure(
            self, cluster, monkeypatch):
        # A lost wake: every lock request waits on an event nobody
        # triggers, so the simulation quiesces with the roots in flight.
        def stalled_acquire(*_args, **_kwargs):
            yield cluster.env.event()

        monkeypatch.setattr(cluster.lockmgr, "acquire", stalled_acquire)
        counter = cluster.create(Counter)
        with pytest.raises(ProtocolError, match=(
                r"^1 root transaction\(s\) never finished \(first: 'add'\)")):
            cluster.call(counter, "add", 1)
        workload = generate_workload(
            SCENARIOS["medium-high"].scaled(0.05), seed=3)
        with pytest.raises(ProtocolError, match=(
                rf"^{len(workload.plans)} root transaction\(s\) never "
                r"finished \(first: 'root0'\)")):
            run_workload(cluster, workload)

    def test_delayed_submission(self, cluster):
        counter = cluster.create(Counter)
        cluster.submit(counter, "add", 1, delay=0.5)
        cluster.run()
        assert cluster.env.now >= 0.5

    def test_config_and_overrides_mutually_exclusive(self):
        from repro import Cluster, ClusterConfig

        with pytest.raises(ConfigurationError):
            Cluster(ClusterConfig(), num_nodes=2)


class TestNestedInvocation:
    def test_fanout_aggregates_children(self, cluster):
        counters = [cluster.create(Counter) for _ in range(3)]
        boss = cluster.create(Orchestrator)
        total = cluster.call(boss, "fanout", counters, 10)
        # per target: add returns the new value (10) and get returns 10.
        assert total == 60
        for counter in counters:
            assert cluster.read_attr(counter, "value") == 10

    def test_nested_stats_counted(self, cluster):
        counters = [cluster.create(Counter) for _ in range(2)]
        boss = cluster.create(Orchestrator)
        cluster.call(boss, "fanout", counters, 1)
        assert cluster.txn_stats.commits == 1
        assert cluster.txn_stats.sub_commits == 4  # 2 adds + 2 gets

    def test_plain_method_cannot_invoke(self, cluster):
        @shared_class
        class Bad:
            x = Attr(size=8)

            @method
            def leaf(self, ctx, other):
                ctx.invoke(other, "get")  # not a generator: forbidden

        bad = cluster.create(Bad)
        counter = cluster.create(Counter)
        with pytest.raises(ConfigurationError, match="generator"):
            cluster.call(bad, "leaf", counter)

    def test_yielding_garbage_rejected(self, cluster):
        @shared_class
        class Weird:
            x = Attr(size=8)

            @method
            def m(self, ctx):
                yield 42

        weird = cluster.create(Weird)
        with pytest.raises(ConfigurationError, match="may only yield"):
            cluster.call(weird, "m")

    def test_invoke_type_checked(self, cluster):
        @shared_class
        class Inv:
            x = Attr(size=8)

            @method
            def m(self, ctx):
                yield ctx.invoke("not-a-handle", "get")

        inv = cluster.create(Inv)
        with pytest.raises(TypeError):
            cluster.call(inv, "m")


class TestAborts:
    def test_user_abort_rolls_back(self, cluster):
        counter = cluster.create(Counter, initial={"value": 7})
        with pytest.raises(TransactionAborted):
            cluster.call(counter, "fail_after_write", 100)
        assert cluster.read_attr(counter, "value") == 7
        assert cluster.txn_stats.aborts_user == 1
        assert cluster.txn_stats.commits == 0

    def test_child_abort_rolls_back_child_only_when_caught(self, cluster):
        source = cluster.create(Counter, initial={"value": 1})
        sink = cluster.create(Counter, initial={"value": 0})
        boss = cluster.create(Orchestrator)
        cluster.call(boss, "safe_transfer", source, sink, 50)
        # child aborted: source unchanged; compensation applied to sink.
        assert cluster.read_attr(source, "value") == 1
        assert cluster.read_attr(sink, "value") == 50
        assert cluster.read_attr(boss, "runs") == 1
        assert cluster.txn_stats.sub_aborts == 1
        assert cluster.txn_stats.commits == 1

    def test_uncaught_child_abort_aborts_family(self, cluster):
        @shared_class
        class Driver:
            n = Attr(size=8, default=0)

            @method
            def drive(self, ctx, target):
                self.n += 1
                yield ctx.invoke(target, "fail_after_write", 5)

        target = cluster.create(Counter, initial={"value": 3})
        driver = cluster.create(Driver)
        with pytest.raises(TransactionAborted):
            cluster.call(driver, "drive", target)
        assert cluster.read_attr(driver, "n") == 0
        assert cluster.read_attr(target, "value") == 3

    def test_python_exception_aborts_and_propagates(self, cluster):
        @shared_class
        class Crasher:
            x = Attr(size=8, default=0)

            @method
            def crash(self, ctx):
                self.x = 1
                raise ValueError("boom")

        crasher = cluster.create(Crasher)
        with pytest.raises(ValueError, match="boom"):
            cluster.call(crasher, "crash")
        assert cluster.read_attr(crasher, "x") == 0

    def test_child_python_exception_catchable_by_parent(self, cluster):
        @shared_class
        class Child:
            x = Attr(size=8, default=0)

            @method
            def bad(self, ctx):
                self.x = 9
                raise KeyError("inner")

        @shared_class
        class Parent:
            handled = Attr(size=8, default=0)

            @method
            def run(self, ctx, child):
                try:
                    yield ctx.invoke(child, "bad")
                except KeyError:
                    self.handled = 1
                return self.handled

        child = cluster.create(Child)
        parent = cluster.create(Parent)
        assert cluster.call(parent, "run", child) == 1
        assert cluster.read_attr(child, "x") == 0
        assert cluster.read_attr(parent, "handled") == 1

    def test_abort_releases_locks_for_others(self, cluster):
        counter = cluster.create(Counter, initial={"value": 0})
        with pytest.raises(TransactionAborted):
            cluster.call(counter, "fail_after_write", 1)
        cluster.call(counter, "add", 2)  # must not hang on a stale lock
        assert cluster.read_attr(counter, "value") == 2


class TestRecursionPreclusion:
    def test_direct_self_reinvocation_rejected(self, cluster):
        @shared_class
        class Selfish:
            x = Attr(size=8, default=0)

            @method
            def outer(self, ctx, me):
                self.x += 1
                yield ctx.invoke(me, "inner")

            @method
            def inner(self, ctx):
                self.x += 1

        selfish = cluster.create(Selfish)
        with pytest.raises(RecursiveInvocationError):
            cluster.call(selfish, "outer", selfish)
        assert cluster.read_attr(selfish, "x") == 0
        assert cluster.txn_stats.aborts_recursive == 1

    def test_mutual_recursion_rejected(self, cluster):
        @shared_class
        class PingPong:
            x = Attr(size=8, default=0)

            @method
            def ping(self, ctx, other, me):
                self.x += 1
                yield ctx.invoke(other, "pong", me, other)

            @method
            def pong(self, ctx, other, me):
                self.x += 1
                yield ctx.invoke(other, "ping", me, other)

        a = cluster.create(PingPong)
        b = cluster.create(PingPong)
        with pytest.raises(RecursiveInvocationError):
            cluster.call(a, "ping", b, a)
        assert cluster.read_attr(a, "x") == 0
        assert cluster.read_attr(b, "x") == 0

    def test_read_read_recursion_rejected(self, cluster):
        @shared_class
        class Reader:
            x = Attr(size=8, default=5)

            @method
            def outer(self, ctx, me):
                base = self.x
                inner = yield ctx.invoke(me, "inner")
                return base + inner

            @method
            def inner(self, ctx):
                return self.x

        reader = cluster.create(Reader)
        with pytest.raises(RecursiveInvocationError):
            cluster.call(reader, "outer", reader)

    def test_sibling_reuse_is_not_recursion(self, cluster):
        """Two siblings touching the same object is legal: retained by
        the common ancestor between them (rule on retained locks)."""

        @shared_class
        class Boss:
            n = Attr(size=8, default=0)

            @method
            def twice(self, ctx, target):
                yield ctx.invoke(target, "add", 1)
                yield ctx.invoke(target, "add", 2)
                self.n += 1

        boss = cluster.create(Boss)
        counter = cluster.create(Counter)
        cluster.call(boss, "twice", counter)
        assert cluster.read_attr(counter, "value") == 3


class TestWriteUnderReadLock:
    def test_lying_annotation_refused(self, cluster):
        @shared_class
        class Liar:
            x = Attr(size=8, default=0)

            @method(reads=["x"], writes=[])
            def sneaky(self, ctx):
                self.x = 99

        liar = cluster.create(Liar)
        with pytest.raises(ProtocolError, match="READ"):
            cluster.call(liar, "sneaky")


class TestPlacement:
    def test_round_robin_spreads_and_completes(self):
        cluster = make_cluster(seed=3)
        counter = cluster.create(Counter)  # takes the first pick
        tickets = [cluster.submit(counter, "add", 1) for _ in range(8)]
        cluster.run()
        assert cluster.read_attr(counter, "value") == 8
        nodes = cluster.nodes
        assert [ticket.node for ticket in tickets] == (nodes[1:] + nodes
                                                      + nodes[:1])
