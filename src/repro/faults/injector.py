"""Fault injectors: the seeded decision engine behind the chaos plan.

The injector is consulted at exactly the points where the real system
would misbehave — per remote message at the network layer, per blocked
lock wait, and per node at transaction-start — and answers from one
dedicated RNG sub-stream (``rng.derive("faults")``), so fault
decisions never perturb the workload or executor streams.

* :class:`FaultInjector` evaluates a
  :class:`~repro.faults.plan.FaultPlan` with a fixed draw order
  (drop, then duplicate, then jitter) so the fault schedule is a
  deterministic function of ``(seed, plan)``.  Draws for messages the
  network has tagged with a ``wire_id`` come from a sub-stream keyed
  by ``(wire_id, attempt)``: the fate of one wire message is then a
  pure function of ``(seed, plan, wire id, attempt)``, identical on
  the asynchronous ``send`` and synchronous ``charge`` paths.
* :class:`NullInjector` (shared :data:`NULL_INJECTOR`) is the
  transport's default.  It answers no query: the transport asks
  ``injector.enabled`` first, and every other fault site is a hook
  ``Cluster`` attaches only with a plan, so a fault-free run never
  reaches this package.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.faults.plan import FaultPlan
from repro.util.backoff import backoff_delay
from repro.util.errors import LockTimeoutError, NodeCrashError
from repro.util.rng import SeededRNG

__all__ = [
    "FaultStats", "MessageFaults", "NO_FAULTS",
    "NullInjector", "NULL_INJECTOR", "FaultInjector",
]


@dataclass
class FaultStats:
    """Aggregate fault/recovery accounting for one cluster run."""

    messages_dropped: int = 0
    messages_duplicated: int = 0
    retransmissions: int = 0
    delay_injected_s: float = 0.0
    lock_timeouts: int = 0
    crashes: int = 0
    recoveries: int = 0
    crash_aborted_families: int = 0
    partition_dropped: int = 0
    slow_delay_s: float = 0.0
    failovers: int = 0
    failover_reroutes: int = 0
    rejoin_replayed_records: int = 0
    rejoin_reclaimed_homes: int = 0
    rejoin_discarded_holders: int = 0

    def snapshot(self) -> Dict[str, float]:
        return {
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "retransmissions": self.retransmissions,
            "delay_injected_s": self.delay_injected_s,
            "lock_timeouts": self.lock_timeouts,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "crash_aborted_families": self.crash_aborted_families,
            "partition_dropped": self.partition_dropped,
            "slow_delay_s": self.slow_delay_s,
            "failovers": self.failovers,
            "failover_reroutes": self.failover_reroutes,
            "rejoin_replayed_records": self.rejoin_replayed_records,
            "rejoin_reclaimed_homes": self.rejoin_reclaimed_homes,
            "rejoin_discarded_holders": self.rejoin_discarded_holders,
        }


@dataclass(frozen=True)
class MessageFaults:
    """The injector's verdict for one transmission attempt."""

    dropped: bool = False
    duplicated: bool = False
    extra_delay_s: float = 0.0


#: Shared "nothing happened" verdict; the transport's when faults are off.
NO_FAULTS = MessageFaults()


class NullInjector:
    """Fault injection disabled.

    Faults off is the transport's ``injector.enabled`` branch, so this
    class answers no query: an unguarded call raises
    :class:`AttributeError` on every fault-free run.  ``stats`` is a
    class-level all-zero record that is never mutated (stats are only
    touched on fault branches), so sharing :data:`NULL_INJECTOR`
    across clusters is safe.
    """

    enabled = False
    plan = None
    stats = FaultStats()


#: Shared disabled injector — the default everywhere one is optional.
NULL_INJECTOR = NullInjector()


class FaultInjector:
    """Evaluate a :class:`FaultPlan` against a seeded RNG stream.

    Crash windows are static intervals computed from the plan up
    front, so "is node N down at time t" is answerable without any
    mutable controller state; the
    :class:`~repro.faults.crash.CrashController` only performs the
    *side effects* of a crash (family aborts, GDO cleanup).
    """

    enabled = True

    def __init__(self, plan: FaultPlan, rng: SeededRNG):
        self.plan = plan
        self.rng = rng
        self.stats = FaultStats()
        self._down: Dict[int, List[Tuple[float, float]]] = {}
        for crash in plan.crashes:
            self._down.setdefault(crash.node_index, []).append(
                (crash.at_s, crash.up_at_s))
        for windows in self._down.values():
            windows.sort()
        # Partition windows are equally static: (start, end, group_a).
        self._cuts: List[Tuple[float, float, frozenset]] = sorted(
            (cut.at_s, cut.heal_at_s, frozenset(cut.group_a))
            for cut in plan.partitions
        )
        self._slow: Dict[int, List[Tuple[float, float, float]]] = {}
        for slow in plan.slow_nodes:
            self._slow.setdefault(slow.node_index, []).append(
                (slow.at_s, slow.until_s, slow.per_message_s))
        for windows in self._slow.values():
            windows.sort()

    # -- crash windows -----------------------------------------------------

    def is_down(self, node, now) -> bool:
        return self.down_until(node, now) > now

    def down_until(self, node, now) -> float:
        """End of the crash window covering ``now``, or 0.0 if up."""
        for start, end in self._down.get(node.value, ()):
            if start <= now < end:
                return end
        return 0.0

    # -- partition and slow-node windows -----------------------------------

    def cut(self, src, dst, now) -> bool:
        return self.partition_until(src, dst, now) > now

    def partition_until(self, src, dst, now) -> float:
        """Heal instant of the partition separating ``src`` from
        ``dst`` at ``now``, or 0.0 when they can talk."""
        for start, end, group_a in self._cuts:
            if start <= now < end and (
                (src.value in group_a) != (dst.value in group_a)
            ):
                return end
        return 0.0

    def _slow_extra(self, node, now) -> float:
        for start, end, per_message_s in self._slow.get(node.value, ()):
            if start <= now < end:
                return per_message_s
        return 0.0

    # -- message faults ----------------------------------------------------

    def message_faults(self, message, attempt, now, synchronous=False):
        """Decide the fate of one transmission attempt.

        A message to or from a crashed node is always lost (the
        retransmission loop redelivers it after recovery); the
        synchronous ``charge`` path skips this rule because its clock
        is frozen and waiting for recovery would never terminate.
        Probabilistic drops apply only while ``attempt`` is within the
        plan's retransmit limit — past it the channel turns lossless,
        which is what makes fair-loss delivery (and the run) terminate.

        Probabilistic draws are *keyed per wire message*: once the
        network assigns a ``wire_id``, every draw comes from a stream
        derived from ``(wire_id, attempt)``.  Each wire message is
        therefore exactly one fault unit, and the verdict for a given
        attempt is independent of how many other messages are in
        flight.  The
        draw order is fixed — drop, then duplicate, then jitter — and
        all three are always evaluated, so a single attempt can be
        dropped *and* duplicated (both wire copies lost) with
        identical accounting on the asynchronous and synchronous
        paths.  Messages that never hit the network (direct unit
        probes) fall back to the injector's shared sequential stream.
        """
        plan = self.plan
        if not synchronous and (self.is_down(message.src, now)
                                or self.is_down(message.dst, now)):
            self.stats.messages_dropped += 1
            return MessageFaults(dropped=True)
        if not synchronous and self.cut(message.src, message.dst, now):
            self.stats.messages_dropped += 1
            self.stats.partition_dropped += 1
            return MessageFaults(dropped=True)
        rng = (self.rng if message.wire_id is None
               else self.rng.derive("msg", message.wire_id, attempt))
        dropped = (plan.drop_probability > 0
                   and attempt < plan.retransmit_limit
                   and rng.maybe(plan.drop_probability))
        duplicated = (plan.duplicate_probability > 0
                      and rng.maybe(plan.duplicate_probability))
        extra = (rng.uniform(0.0, plan.delay_jitter_s)
                 if plan.delay_jitter_s > 0 else 0.0)
        # Slow-node service latency is deterministic (no draw): a fixed
        # surcharge per message touching a degraded endpoint, applied
        # on both the asynchronous and synchronous paths so accounting
        # stays path-independent.
        slow = (self._slow_extra(message.src, now)
                + self._slow_extra(message.dst, now))
        if dropped:
            self.stats.messages_dropped += 1
        if duplicated:
            self.stats.messages_duplicated += 1
        if extra:
            self.stats.delay_injected_s += extra
        if slow:
            self.stats.slow_delay_s += slow
        if not dropped and not duplicated and not extra and not slow:
            return NO_FAULTS
        return MessageFaults(dropped=dropped, duplicated=duplicated,
                             extra_delay_s=extra + slow)

    # -- recovery parameters ----------------------------------------------

    def retransmit_timeout_s(self, attempt: int = 0) -> float:
        """Retransmission delay before attempt ``attempt + 1``.

        Capped exponential backoff from the plan's base timeout — the
        same :func:`~repro.util.backoff.backoff_delay` curve the
        executor's retry loop and the failover reroute path use, here
        without jitter so the sim and TCP backends account the
        identical schedule.
        """
        return backoff_delay(self.plan.retransmit_timeout_s, attempt)

    def bounded_wait(self, lockmgr, entry, waiter):
        """Race a blocked lock wait's wake against the plan's wait bound
        (``lockmgr.wait_bound``, attached when the plan sets one).

        On timeout the waiter is withdrawn from the entry and the whole
        family aborts with :class:`LockTimeoutError` (the executor
        retries it with backoff).  Two races need care: the grant may
        already be *in flight* when the timer fires (the waiter is no
        longer queued but its family holds the lock — honor the grant),
        and the wake may fail at the same instant the timer fires
        (deadlock victim — re-raise it).
        """
        env = lockmgr.env
        started = env.now
        index, value = yield env.any_of(
            [waiter.wake, env.timeout(self.plan.lock_wait_timeout_s)]
        )
        if index == 0:
            return value
        if waiter.wake.triggered:
            if waiter.wake.ok:
                return waiter.wake.value
            raise waiter.wake.value
        if not entry.remove_waiter(waiter.txn_id):
            if not entry.family_present(waiter.txn_id.root):
                # Neither queued nor granted: a crash reclaimed it.
                raise NodeCrashError(waiter.txn_id)
            payload = yield waiter.wake
            return payload
        waited = env.now - started
        lockmgr.stats.lock_timeouts += 1
        self.stats.lock_timeouts += 1
        if lockmgr.tracer.enabled:
            lockmgr.tracer.lock_timeout(waiter.txn, entry.object_id, waited)
        raise LockTimeoutError(waiter.txn_id, entry.object_id, waited)
