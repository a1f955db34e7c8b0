"""Fault plans: declarative, validated descriptions of what to break.

A :class:`FaultPlan` is pure data — it carries no randomness and no
clock.  The :class:`~repro.faults.injector.FaultInjector` combines a
plan with a seeded RNG stream and the simulation clock to produce the
actual fault schedule, which makes the schedule a deterministic
function of ``(cluster seed, plan)``.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.util.errors import ConfigurationError

__all__ = [
    "CrashEvent", "PartitionEvent", "SlowNodeEvent", "FaultPlan",
    "FAULT_PRESETS",
]


@dataclass(frozen=True)
class CrashEvent:
    """One scheduled fail-stop window for a single node.

    The node stops sending and receiving at ``at_s`` and comes back at
    ``at_s + down_for_s`` — or at ``recover_at_s`` when given, which
    expresses the window as an absolute rejoin instant instead of a
    duration (exactly one of the two forms must be used).  Storage is
    stable across the window (the model is fail-stop with durable
    pages, not media loss): committed page versions owned by the node
    survive, but every non-committing transaction family running there
    is aborted and its directory state reclaimed.  On rejoin the node
    replays its durable record and re-integrates
    (:mod:`repro.faults.recovery`).
    """

    node_index: int
    at_s: float
    down_for_s: float = 0.0
    recover_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_index < 0:
            raise ConfigurationError(
                f"crash node_index must be >= 0, got {self.node_index}")
        if self.at_s < 0:
            raise ConfigurationError(
                f"crash at_s must be >= 0, got {self.at_s}")
        if self.recover_at_s is None:
            if not self.down_for_s > 0:
                raise ConfigurationError(
                    f"crash down_for_s must be > 0, got {self.down_for_s}")
        else:
            if self.down_for_s:
                raise ConfigurationError(
                    "give either down_for_s or recover_at_s, not both")
            if not self.recover_at_s > self.at_s:
                raise ConfigurationError(
                    f"crash recover_at_s must be > at_s "
                    f"({self.at_s}), got {self.recover_at_s}")

    @property
    def up_at_s(self) -> float:
        if self.recover_at_s is not None:
            return self.recover_at_s
        return self.at_s + self.down_for_s


@dataclass(frozen=True)
class PartitionEvent:
    """One node-set bipartition window.

    From ``at_s`` until ``at_s + heal_after_s`` the cluster is split
    into ``group_a`` and everyone else: messages crossing the cut are
    lost (and redelivered by the retransmission loop after the heal),
    while traffic within either side flows normally.
    """

    group_a: Tuple[int, ...]
    at_s: float
    heal_after_s: float

    def __post_init__(self) -> None:
        if not self.group_a:
            raise ConfigurationError("partition group_a must be non-empty")
        if len(set(self.group_a)) != len(self.group_a):
            raise ConfigurationError(
                f"partition group_a has duplicates: {self.group_a}")
        if any(index < 0 for index in self.group_a):
            raise ConfigurationError(
                f"partition node indexes must be >= 0, got {self.group_a}")
        if self.at_s < 0:
            raise ConfigurationError(
                f"partition at_s must be >= 0, got {self.at_s}")
        if not self.heal_after_s > 0:
            raise ConfigurationError(
                f"partition heal_after_s must be > 0, got "
                f"{self.heal_after_s}")

    @property
    def heal_at_s(self) -> float:
        return self.at_s + self.heal_after_s


@dataclass(frozen=True)
class SlowNodeEvent:
    """One slow/overloaded-node window.

    Every message to or from the node during the window pays an extra
    fixed ``per_message_s`` of service latency — the node is degraded,
    not dead, so nothing is dropped and no recovery action fires.
    """

    node_index: int
    at_s: float
    for_s: float
    per_message_s: float

    def __post_init__(self) -> None:
        if self.node_index < 0:
            raise ConfigurationError(
                f"slow-node node_index must be >= 0, got {self.node_index}")
        if self.at_s < 0:
            raise ConfigurationError(
                f"slow-node at_s must be >= 0, got {self.at_s}")
        if not self.for_s > 0:
            raise ConfigurationError(
                f"slow-node for_s must be > 0, got {self.for_s}")
        if not self.per_message_s > 0:
            raise ConfigurationError(
                f"slow-node per_message_s must be > 0, got "
                f"{self.per_message_s}")

    @property
    def until_s(self) -> float:
        return self.at_s + self.for_s


@dataclass(frozen=True)
class FaultPlan:
    """What faults to inject, and the recovery parameters that bound them.

    Probabilistic message faults are evaluated per remote message in a
    fixed order (drop, duplicate, jitter) from a dedicated RNG
    sub-stream.  Drops are *fair-loss*: once a message has been
    retransmitted ``retransmit_limit`` times, further probabilistic
    drops are suppressed so delivery — and therefore termination — is
    guaranteed.  ``lock_wait_timeout_s == 0`` disables lock-wait
    timeouts entirely.  ``failover_detect_s > 0`` arms GDO home
    failover: a crashed home's directory entries are re-homed to a
    deterministic successor once it has been down for that long, and
    reclaimed when it rejoins.
    """

    name: str = "custom"
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_jitter_s: float = 0.0
    retransmit_timeout_s: float = 0.002
    retransmit_limit: int = 8
    lock_wait_timeout_s: float = 0.0
    failover_detect_s: float = 0.0
    crashes: Tuple[CrashEvent, ...] = field(default_factory=tuple)
    partitions: Tuple[PartitionEvent, ...] = field(default_factory=tuple)
    slow_nodes: Tuple[SlowNodeEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for label, probability in (
            ("drop_probability", self.drop_probability),
            ("duplicate_probability", self.duplicate_probability),
        ):
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"{label} must be in [0, 1], got {probability}")
        if self.delay_jitter_s < 0:
            raise ConfigurationError(
                f"delay_jitter_s must be >= 0, got {self.delay_jitter_s}")
        if not self.retransmit_timeout_s > 0:
            raise ConfigurationError(
                "retransmit_timeout_s must be > 0, got "
                f"{self.retransmit_timeout_s}")
        if self.retransmit_limit < 1:
            raise ConfigurationError(
                f"retransmit_limit must be >= 1, got {self.retransmit_limit}")
        if self.lock_wait_timeout_s < 0:
            raise ConfigurationError(
                "lock_wait_timeout_s must be >= 0, got "
                f"{self.lock_wait_timeout_s}")
        if self.failover_detect_s < 0:
            raise ConfigurationError(
                "failover_detect_s must be >= 0, got "
                f"{self.failover_detect_s}")
        for crash in self.crashes:
            if not isinstance(crash, CrashEvent):
                raise ConfigurationError(
                    f"crashes must hold CrashEvent instances, got {crash!r}")
        for cut in self.partitions:
            if not isinstance(cut, PartitionEvent):
                raise ConfigurationError(
                    f"partitions must hold PartitionEvent instances, "
                    f"got {cut!r}")
        for slow in self.slow_nodes:
            if not isinstance(slow, SlowNodeEvent):
                raise ConfigurationError(
                    f"slow_nodes must hold SlowNodeEvent instances, "
                    f"got {slow!r}")

    @property
    def max_crash_node_index(self) -> int:
        """Largest node index named by a crash, or -1 with no crashes."""
        if not self.crashes:
            return -1
        return max(crash.node_index for crash in self.crashes)

    @property
    def max_fault_node_index(self) -> int:
        """Largest node index named by any fault event, or -1."""
        indexes = [self.max_crash_node_index]
        indexes.extend(index for cut in self.partitions
                       for index in cut.group_a)
        indexes.extend(slow.node_index for slow in self.slow_nodes)
        return max(indexes)

    @property
    def has_message_faults(self) -> bool:
        return (self.drop_probability > 0
                or self.duplicate_probability > 0
                or self.delay_jitter_s > 0)


#: Named presets for ``repro run --faults`` and the chaos test suite.
#: Collectively they cover loss >= 10%, duplication, delay jitter,
#: node crash/recovery, GDO home failover, network bipartitions, and a
#: slow node; "chaos" combines the message faults with a crash.
FAULT_PRESETS: Dict[str, FaultPlan] = {
    "lossy-net": FaultPlan(
        name="lossy-net",
        drop_probability=0.12,
        delay_jitter_s=0.0005,
    ),
    "dup-delay": FaultPlan(
        name="dup-delay",
        duplicate_probability=0.15,
        delay_jitter_s=0.002,
    ),
    "lock-timeout": FaultPlan(
        name="lock-timeout",
        lock_wait_timeout_s=0.002,
    ),
    "crash-recover": FaultPlan(
        name="crash-recover",
        crashes=(CrashEvent(node_index=1, at_s=0.004, down_for_s=0.01),),
    ),
    "crash-failover": FaultPlan(
        name="crash-failover",
        failover_detect_s=0.003,
        crashes=(CrashEvent(node_index=1, at_s=0.004,
                            recover_at_s=0.016),),
    ),
    "partition": FaultPlan(
        name="partition",
        partitions=(PartitionEvent(group_a=(0, 1), at_s=0.004,
                                   heal_after_s=0.008),),
    ),
    "slow-node": FaultPlan(
        name="slow-node",
        slow_nodes=(SlowNodeEvent(node_index=2, at_s=0.002, for_s=0.01,
                                  per_message_s=0.001),),
    ),
    # The recovery gauntlet: two staggered crash/rejoin cycles (so two
    # nodes replay their durable records against live state) followed
    # by a bipartition that heals — the canonical input for the
    # rejoin-reconciliation mutation tests and the CI recovery smoke.
    "crash-partition": FaultPlan(
        name="crash-partition",
        failover_detect_s=0.003,
        crashes=(CrashEvent(node_index=1, at_s=0.01, recover_at_s=0.04),
                 CrashEvent(node_index=2, at_s=0.05, recover_at_s=0.09)),
        partitions=(PartitionEvent(group_a=(0, 1), at_s=0.1,
                                   heal_after_s=0.008),),
    ),
    "chaos": FaultPlan(
        name="chaos",
        drop_probability=0.10,
        duplicate_probability=0.05,
        delay_jitter_s=0.001,
        lock_wait_timeout_s=0.01,
        crashes=(CrashEvent(node_index=1, at_s=0.004, down_for_s=0.008),),
    ),
}
