"""Property test: the FIFO fast path is sequence-identical to the
ranked path.

With ``tiebreak=None`` the engine takes its fast path: 3-tuple heap
entries (no rank slot, no ``policy.rank()`` call), succeed's inlined
FIFO push, and batched same-instant wake groups
(:meth:`~repro.sim.engine.Environment.succeed_all`).  An explicit
rank-0 :class:`~repro.sim.tiebreak.TieBreakPolicy` instance forces the
general 4-tuple ranked path through the same workload.  Both must
produce the *same event sequence* — identical pop order at the micro
level, and byte-identical trace digests (plus identical commit and
events-processed counts) on full workloads: plain fig2 at two scales
and seeds, a chaos run with fault injection, and an open-loop load with
adaptive GDO home migration.  The fast path also lands a remote message
with one heap entry where the ranked path uses two, lands a local
directory call in place when its delivery would be the next entry
popped, and books a plain send in one frame.
"""

import hashlib
import random

import pytest

from repro.faults import FAULT_PRESETS
from repro.gdo import MigrationConfig
from repro.load import build_load, run_load
from repro.net.message import MessageCategory
from repro.obs.export import events_to_jsonl
from repro.runtime import Cluster, ClusterConfig
from repro.sim import Environment
from repro.sim.tiebreak import LifoTieBreak, RandomWalkTieBreak, TieBreakPolicy
from repro.workload import SCENARIOS, generate_workload, run_workload


def _ranked(cluster):
    """Install an explicit rank-0 policy: same ordering contract as the
    default, but through the general ranked-tuple machinery."""
    cluster.env.tiebreak = TieBreakPolicy()
    return cluster


def _fingerprint(cluster, committed):
    jsonl = events_to_jsonl(cluster.tracer.events)
    return (
        hashlib.sha256(jsonl.encode("utf-8")).hexdigest(),
        committed,
        cluster.env.events_processed,
    )


class TestPopOrderProperty:
    """Randomized (seeded) schedules: pop order must match exactly."""

    def _trace(self, policy, seed):
        env = Environment(tiebreak=policy)
        rng = random.Random(seed)
        order = []

        def proc(tag, delays):
            for delay in delays:
                yield env.timeout(delay)
                order.append((tag, env.now))

        for index in range(8):
            delays = [rng.choice((0.0, 0.5, 1.0, 1.0, 2.0))
                      for _ in range(6)]
            env.process(proc(index, delays), name=f"p{index}")

        # A same-instant wake group: batched into one heap entry on the
        # fast path, per-event succeeds on the ranked path.
        group = [env.event(name=f"g{index}") for index in range(5)]
        for index, event in enumerate(group):
            event.add_callback(
                lambda _e, i=index: order.append(("wake", i, env.now))
            )

        def batcher():
            yield env.timeout(1.0)
            env.succeed_all(group, value="granted")

        env.process(batcher(), name="batcher")
        env.run()
        return order, env.events_processed

    @pytest.mark.parametrize("seed", range(5))
    def test_fast_path_pop_order_matches_ranked(self, seed):
        assert self._trace(None, seed) == \
            self._trace(TieBreakPolicy(), seed)


class TestWorkloadDigestProperty:
    """Full workloads: byte-identical traces across both paths."""

    def _fig2(self, ranked, scale=0.1, seed=11):
        workload = generate_workload(
            SCENARIOS["medium-high"].scaled(scale), seed=seed
        )
        cluster = Cluster(ClusterConfig(
            num_nodes=4, protocol="lotec", seed=seed,
            audit_accesses=False, trace=True,
        ))
        if ranked:
            _ranked(cluster)
        run = run_workload(cluster, workload)
        return _fingerprint(cluster, run.committed)

    def _chaos(self, ranked):
        workload = generate_workload(
            SCENARIOS["medium-high"].scaled(0.2), seed=5
        )
        cluster = Cluster(ClusterConfig(
            num_nodes=4, protocol="lotec", seed=5, trace=True,
            faults=FAULT_PRESETS["chaos"],
        ))
        if ranked:
            _ranked(cluster)
        run = run_workload(cluster, workload)
        return _fingerprint(cluster, run.committed)

    def _migration(self, ranked):
        load = build_load("zipf-smoke", seed=7, scale=0.3)
        cluster = Cluster(ClusterConfig(
            num_nodes=load.scenario.clients, protocol="lotec", seed=7,
            trace=True, migration=MigrationConfig(),
        ))
        if ranked:
            _ranked(cluster)
        run = run_load(cluster, load)
        return _fingerprint(cluster, run.committed)

    def test_fig2_digest_identical(self):
        fast, ranked = self._fig2(False), self._fig2(True)
        assert fast == ranked
        assert fast[1] > 0  # the run did real work

    def test_fig2_digest_identical_at_quarter_scale(self):
        fast = self._fig2(False, scale=0.25, seed=2)
        ranked = self._fig2(True, scale=0.25, seed=2)
        assert fast == ranked
        assert fast[1] > 0

    def test_chaos_digest_identical(self):
        fast, ranked = self._chaos(False), self._chaos(True)
        assert fast == ranked
        assert fast[1] > 0

    def test_migration_digest_identical(self):
        fast, ranked = self._migration(False), self._migration(True)
        assert fast == ranked
        assert fast[1] > 0


class TestLocalReleaseShare:
    """A release to several homes sends only the remote shares on the
    FIFO path: the releasing node's own share would land at once and
    only count the ``all_of`` down, so it counts its one event instead.
    A policy still sends it, and both paths give the same trace bytes."""

    @staticmethod
    def _migration(ranked):
        load = build_load("zipf-smoke", seed=7, scale=0.3)
        cluster = Cluster(ClusterConfig(
            num_nodes=load.scenario.clients, protocol="lotec", seed=7,
            trace=True, migration=MigrationConfig(),
        ))
        if ranked:
            _ranked(cluster)
        local = []
        send = cluster.network.send

        def spy(message):
            if (message.category is MessageCategory.LOCK_RELEASE
                    and message.src == message.dst):
                local.append(message)
            return send(message)

        cluster.network.send = spy
        run = run_load(cluster, load)
        return _fingerprint(cluster, run.committed), len(local)

    def test_no_local_release_share_is_sent(self):
        fast, fast_local = self._migration(ranked=False)
        ranked, ranked_local = self._migration(ranked=True)
        assert fast_local == 0 and ranked_local > 0
        assert fast == ranked and fast[1] > 0


class TestOneEntryLanding:
    """On the fast path ``SimTransport`` queues a remote message's
    pending ``Delivery`` itself, one heap entry at the landing instant,
    counted as the landing ``_Call`` plus the delivery it replaces; a
    policy keeps the two-step landing.  ``TestWorkloadDigestProperty``
    holds the two paths to the same trace bytes and
    ``events_processed`` on whole workloads."""

    @staticmethod
    def _send(policy):
        from repro.net.message import Message, MessageCategory
        from repro.net.network import NetworkConfig, SimTransport
        from repro.util.ids import NodeId

        env = Environment(tiebreak=policy)
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3))
        done = net.send(Message(src=NodeId(0), dst=NodeId(1),
                                category=MessageCategory.CONTROL,
                                size_bytes=100))
        return env, done

    def test_fast_path_queues_the_delivery_itself(self):
        env, done = self._send(None)
        assert [entry[-1] for entry in env._queue] == [done]
        assert not done.triggered
        env.run()
        assert done.value is done.message
        assert env.events_processed == 2

    def test_ranked_path_keeps_the_landing_call(self):
        env, done = self._send(TieBreakPolicy())
        assert len(env._queue) == 1 and env._queue[0][-1] is not done
        env.run()
        assert done.value is done.message
        assert env.events_processed == 2


class TestCallLaterEquivalence:
    """``env.call_later(d, f, *args)`` replaced
    ``env.timeout(d).add_callback(lambda _e: f(*args))`` on the message
    landing, retransmit and process-bootstrap paths; it must schedule
    identically — same pop order, same events-processed count — under
    FIFO and under every kind of policy (stateful ones included: a
    policy's ``rank`` must be consulted the same number of times)."""

    def _trace(self, policy, seed, timer):
        env = Environment(tiebreak=policy)
        rng = random.Random(seed)
        order = []

        def note(label):
            order.append((label, env.now))

        def proc(tag):
            for step in range(5):
                delay = rng.choice((0.0, 0.5, 1.0))
                timer(env, rng.choice((0.0, 0.5, 1.0)), note, (tag, step))
                yield env.timeout(delay)
                note((tag, "woke", step))

        for index in range(6):
            env.process(proc(index), name=f"p{index}")
        env.run()
        return order, env.events_processed

    @staticmethod
    def _via_timeout(env, delay, callback, arg):
        env.timeout(delay).add_callback(lambda _event: callback(arg))

    @staticmethod
    def _via_call_later(env, delay, callback, arg):
        env.call_later(delay, callback, arg)

    @pytest.mark.parametrize("policy", [
        lambda: None,
        TieBreakPolicy,
        LifoTieBreak,
        lambda: RandomWalkTieBreak(5),
    ], ids=["fast", "fifo", "lifo", "random"])
    @pytest.mark.parametrize("seed", range(3))
    def test_call_later_schedules_like_a_timeout_callback(self, policy, seed):
        assert self._trace(policy(), seed, self._via_call_later) == \
            self._trace(policy(), seed, self._via_timeout)


class TestInlineLanding:
    """A local directory call its caller would yield at once lands in
    place (``Transport.lands_inline``) exactly when its delivery would
    be the next entry popped: FIFO, the last action of the popped
    entry, nothing else due at ``now``.  It still counts its events."""

    @staticmethod
    def _call(policy=None, due_now=False, src=0, dst=0):
        """One process, at t=1, makes a call from ``src`` to ``dst`` the
        way ``LockManager.acquire`` does; returns (landed inline,
        events counted by the call itself, entries left queued at the
        call, the process's finish time, total events)."""
        from repro.net.message import Message, MessageCategory
        from repro.net.network import NetworkConfig, SimTransport
        from repro.util.ids import NodeId

        env = Environment(tiebreak=policy)
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3))
        seen = {}

        def caller():
            yield env.timeout(1.0)
            if due_now:
                env.timeout(0.0)  # queued ahead of any landing
            before = env.events_processed
            seen["inline"] = net.lands_inline(NodeId(src), NodeId(dst))
            seen["counted"] = env.events_processed - before
            seen["queued"] = len(env._queue)
            if not seen["inline"]:
                yield net.send(Message(src=NodeId(src), dst=NodeId(dst),
                                       category=MessageCategory.CONTROL,
                                       size_bytes=40))
            seen["done_at"] = env.now

        env.process(caller())
        env.run()
        return (seen["inline"], seen["counted"], seen["queued"],
                seen["done_at"], env.events_processed)

    def test_entry_due_now_sends_through_the_heap(self):
        inline, counted, queued, done_at, events = self._call(due_now=True)
        assert not inline and counted == 0 and queued == 1
        assert done_at == 1.0

    def test_nothing_due_lands_inline_counted_once(self):
        inline, counted, queued, done_at, events = self._call()
        assert inline and counted == 1 and queued == 0
        assert done_at == 1.0
        # The same total as the heap path a rank-0 policy takes.
        assert events == self._call(TieBreakPolicy())[-1]

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_random_never_lands_inline(self, seed):
        inline, counted, _queued, done_at, _events = self._call(
            RandomWalkTieBreak(seed))
        assert not inline and counted == 0 and done_at == 1.0

    def test_remote_call_never_lands_inline(self):
        inline, counted, _queued, done_at, _events = self._call(dst=1)
        assert not inline and counted == 0 and done_at > 1.0

    def test_outside_run_never_lands_inline(self):
        from repro.net.network import NetworkConfig, SimTransport
        from repro.util.ids import NodeId

        env = Environment()
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3))
        assert not net.lands_inline(NodeId(0), NodeId(0))
        assert env.events_processed == 0

    def test_only_the_last_callback_of_an_entry_lands_inline(self):
        """Two processes resumed by one event: the first must not go on
        in place ahead of the second (it would reorder their steps)."""
        from repro.net.network import NetworkConfig, SimTransport
        from repro.util.ids import NodeId

        env = Environment()
        net = SimTransport(env, NetworkConfig(bandwidth_bps=8e6,
                                              software_cost_s=1e-3))
        gate = env.event()
        landed = []

        def waiter(tag):
            yield gate
            landed.append((tag, net.lands_inline(NodeId(0), NodeId(0))))
            yield env.timeout(5.0)  # nothing due at now for the next

        env.process(waiter("first"))
        env.process(waiter("second"))
        env.call_later(1.0, gate.succeed)
        env.run()
        assert landed == [("first", False), ("second", True)]

    def test_finished_process_nobody_awaits_lands_without_an_entry(self):
        def quick(env):
            yield env.timeout(1.0)
            return "done"

        runs = []
        for policy in (None, TieBreakPolicy()):
            env = Environment(tiebreak=policy)
            proc = env.process(quick(env))
            env.run()
            assert proc.processed and proc.value == "done"
            # Heap entries ever scheduled, and events counted.
            runs.append((next(env._sequence), env.events_processed))
        # Bootstrap and timeout only; the ranked path also queues the
        # finished process.  Both count the same three events.
        assert runs == [(2, 3), (3, 3)]


class TestOneFrameSend:
    """With no injector and no tracer, a FIFO ``SimTransport`` send is
    priced, booked and landed in ``Transport.send`` itself; traced,
    faulted and ranked sends keep ``_attempt``.  Both paths must book
    the same statistics to the bit."""

    @staticmethod
    def _run(trace):
        workload = generate_workload(
            SCENARIOS["medium-high"].scaled(0.2), seed=4)
        cluster = Cluster(ClusterConfig(
            num_nodes=4, protocol="lotec", seed=4, trace=trace,
            audit_accesses=False,
        ))
        attempts = []
        general = cluster.network._attempt

        def spy(*args):
            attempts.append(args[0])
            return general(*args)

        cluster.network._attempt = spy
        run_workload(cluster, workload)
        return cluster, len(attempts)

    def test_traced_and_plain_runs_book_identical_traffic(self):
        traced, traced_attempts = self._run(trace=True)
        plain, plain_attempts = self._run(trace=False)
        assert plain.network._lean and not traced.network._lean
        assert traced_attempts > 0 and plain_attempts == 0
        assert plain.network_stats.snapshot() == \
            traced.network_stats.snapshot()
        assert plain.network_stats.total_messages > 0
        times = {oid: traffic.time
                 for oid, traffic in plain.network_stats.objects.items()}
        assert times == {oid: traffic.time for oid, traffic
                         in traced.network_stats.objects.items()}
        assert [record.time for record in plain.commit_log] == \
            [record.time for record in traced.commit_log]
        assert plain.commit_log
