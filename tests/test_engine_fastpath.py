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
events-processed counts) on full workloads: plain fig2, a chaos run
with fault injection, and an open-loop load with adaptive GDO home
migration.
"""

import hashlib
import random

import pytest

from repro.faults import FAULT_PRESETS
from repro.gdo import MigrationConfig
from repro.load import build_load, run_load
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

    def _fig2(self, ranked):
        workload = generate_workload(
            SCENARIOS["medium-high"].scaled(0.1), seed=11
        )
        cluster = Cluster(ClusterConfig(
            num_nodes=4, protocol="lotec", seed=11,
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

    def test_chaos_digest_identical(self):
        fast, ranked = self._chaos(False), self._chaos(True)
        assert fast == ranked
        assert fast[1] > 0

    def test_migration_digest_identical(self):
        fast, ranked = self._migration(False), self._migration(True)
        assert fast == ranked
        assert fast[1] > 0


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
