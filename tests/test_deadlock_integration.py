"""Integration tests: deadlock detection, victim abort, and retry."""

import gc

import pytest

from repro import Attr, TransactionAborted, method, shared_class
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.util.errors import DeadlockError
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

from conftest import Counter, make_cluster


@shared_class
class Hoarder:
    """Grabs two counters in a caller-chosen order — the classic
    lock-ordering deadlock when two of these run with opposite orders."""

    done = Attr(size=8, default=0)

    @method
    def grab_both(self, ctx, first, second):
        yield ctx.invoke(first, "add", 1)
        yield ctx.invoke(second, "add", 1)
        self.done += 1
        return self.done


class TestDeadlock:
    def make_deadlock_prone(self, seed=0, **overrides):
        cluster = make_cluster(protocol="lotec", seed=seed, **overrides)
        a = cluster.create(Counter, node=cluster.nodes[0])
        b = cluster.create(Counter, node=cluster.nodes[1])
        h1 = cluster.create(Hoarder, node=cluster.nodes[2])
        h2 = cluster.create(Hoarder, node=cluster.nodes[3])
        return cluster, a, b, h1, h2

    def test_opposite_order_grabs_resolve(self):
        cluster, a, b, h1, h2 = self.make_deadlock_prone()
        t1 = cluster.submit(h1, "grab_both", a, b, node=cluster.nodes[2])
        t2 = cluster.submit(h2, "grab_both", b, a, node=cluster.nodes[3])
        cluster.run()
        assert t1.result() == 1
        assert t2.result() == 1
        assert cluster.read_attr(a, "value") == 2
        assert cluster.read_attr(b, "value") == 2

    def test_deadlock_detected_and_victim_retried(self):
        # Force the interleaving: submit many opposing pairs; with four
        # nodes and no arrival jitter, cycles are certain.
        cluster, a, b, h1, h2 = self.make_deadlock_prone(seed=3)
        tickets = []
        for index in range(8):
            grabber, first, second = (
                (h1, a, b) if index % 2 == 0 else (h2, b, a)
            )
            tickets.append(cluster.submit(grabber, "grab_both", first, second))
        cluster.run()
        for ticket in tickets:
            ticket.result()  # everything eventually commits
        assert cluster.read_attr(a, "value") == 8
        assert cluster.read_attr(b, "value") == 8
        assert cluster.lock_stats.deadlocks > 0
        assert cluster.txn_stats.retries == cluster.txn_stats.aborts_deadlock

    def test_victim_rollback_is_complete(self):
        cluster, a, b, h1, h2 = self.make_deadlock_prone(seed=5)
        for index in range(6):
            grabber, first, second = (
                (h1, a, b) if index % 2 == 0 else (h2, b, a)
            )
            cluster.submit(grabber, "grab_both", first, second)
        cluster.run()
        # Final state reflects exactly the committed work: no phantom
        # increments from aborted attempts survived.
        assert cluster.read_attr(a, "value") == 6
        assert cluster.read_attr(b, "value") == 6
        assert cluster.read_attr(h1, "done") + cluster.read_attr(h2, "done") == 6

    def test_retry_budget_exhaustion_surfaces(self):
        cluster, a, b, h1, h2 = self.make_deadlock_prone(
            seed=3, max_retries=0
        )
        tickets = []
        for index in range(8):
            grabber, first, second = (
                (h1, a, b) if index % 2 == 0 else (h2, b, a)
            )
            tickets.append(cluster.submit(grabber, "grab_both", first, second))
        cluster.run()
        outcomes = []
        for ticket in tickets:
            try:
                ticket.result()
                outcomes.append("ok")
            except TransactionAborted as exc:
                assert "retries-exhausted" in exc.reason
                outcomes.append("aborted")
        assert "aborted" in outcomes  # with zero retries some must die
        assert "ok" in outcomes       # and the survivors must finish

    def test_no_deadlock_between_readers(self):
        cluster = make_cluster(protocol="lotec", seed=1)
        counter = cluster.create(Counter)
        for node in cluster.nodes:
            cluster.submit(counter, "get", node=node)
        cluster.run()
        assert cluster.lock_stats.deadlocks == 0

    def test_victims_leave_no_cyclic_garbage(self):
        # A victim's error must not keep the frames that hold its own
        # failed wake: with the collector off, every DeadlockError must
        # already have died by reference count.
        workload = generate_workload(SCENARIOS["medium-high"].scaled(0.5),
                                     seed=11)
        gc.collect()
        gc.disable()
        try:
            cluster = Cluster(ClusterConfig(
                num_nodes=4, protocol="lotec", seed=11,
                audit_accesses=False,
            ))
            run_workload(cluster, workload)
            assert cluster.lock_stats.deadlocks == 110
            left = [obj for obj in gc.get_objects()
                    if isinstance(obj, DeadlockError)]
            assert left == []
        finally:
            gc.enable()
