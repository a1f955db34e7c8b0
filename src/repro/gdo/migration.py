"""Adaptive re-homing of hot directory entries.

The paper's partitioned GDO assigns every entry a fixed home by
round-robin over the cluster (§4.1) — fine when access is uniform, but
a skewed open-loop workload (``repro.load``) hammers a few hot objects
from whichever node their dominant clients run on, and every one of
those acquisitions pays a remote round trip to an arbitrary home.
This module is the directory-side response: track who actually talks
to each entry, and when one node clearly dominates, hand the entry's
home over to that node so its traffic becomes local procedure calls
(local messages cost nothing, per :class:`repro.net.Message.is_local`).

Design constraints that keep the protocol simple and provably safe:

* **Accounting is decayed, not windowed.**  Each entry keeps one
  exponentially decayed access count per node (half-life
  :attr:`MigrationConfig.half_life_s` of *simulated* time), so a node
  that was hot a while ago fades instead of pinning the entry forever.
* **Migration only fires on a quiescent entry** — no holders, no
  retainers, no queued waiters — evaluated by the lock manager at the
  end of a global release, after grants were pumped.  A quiescent
  entry's location is pure accounting: no in-flight grant references
  the old home, so correctness (reference model, invariant checkers)
  is untouched by the move and only the *message pattern* changes.
* **Requests racing a move are forwarded, not lost.**  The lock
  manager snapshots the home before each request send; if the home
  moved while the message was in flight, the old home forwards it
  (one extra hop, charged and traced) — see
  :meth:`repro.txn.locks.LockManager` and DESIGN §11.
* **Holder caches are invalidated** via the existing
  :class:`~repro.gdo.cache.EntryCacheTracker`, so Algorithm 4.1's
  local fast path never consults a stale notion of where the entry
  lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.util.ids import NodeId, ObjectId


@dataclass(frozen=True)
class MigrationConfig:
    """Policy knobs for adaptive home migration.

    Attributes:
        threshold: minimum decayed access count the dominant node must
            have amassed before a move is considered.
        dominance: minimum fraction of the entry's total decayed count
            the dominant node must own (``> 0.5`` so at most one node
            qualifies and ping-ponging between two equal accessors is
            impossible).
        half_life_s: decay half-life in simulated seconds; an idle
            entry's counts halve every ``half_life_s``.
        cooldown_s: minimum simulated time between two migrations of
            the same entry — a brake on thrash under shifting skew.
    """

    threshold: float = 2.0
    dominance: float = 0.55
    half_life_s: float = 0.1
    cooldown_s: float = 0.001

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("migration threshold must be positive")
        if not 0.5 < self.dominance <= 1.0:
            raise ValueError(
                f"dominance must be in (0.5, 1.0], got {self.dominance}"
            )
        if self.half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")


@dataclass
class MigrationStats:
    """Counters surfaced in run summaries and the claims bench."""

    migrations: int = 0
    forwarded_requests: int = 0
    considered: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "migrations": self.migrations,
            "forwarded_requests": self.forwarded_requests,
            "considered": self.considered,
        }


@dataclass(init=False)
class _AccessCounts:
    """One entry's decayed per-node access tallies."""

    counts: Dict[NodeId, float]
    last_update: float
    last_migration: float

    def __init__(self, counts: Optional[Dict[NodeId, float]] = None,
                 last_update: float = 0.0,
                 last_migration: float = float("-inf")):
        self.counts = {} if counts is None else counts
        self.last_update = last_update
        self.last_migration = last_migration

    def decay_to(self, now: float, half_life_s: float) -> None:
        """Decay every count to ``now``, which is later than
        ``last_update`` (while the clock stands still, callers skip
        the call: it would change nothing)."""
        factor = 0.5 ** ((now - self.last_update) / half_life_s)
        for node in list(self.counts):
            decayed = self.counts[node] * factor
            if decayed < 1e-9:
                del self.counts[node]
            else:
                self.counts[node] = decayed
        self.last_update = now


class HomeMigrationManager:
    """Per-entry access tracking + the move/no-move decision.

    Pure policy: it never touches the network or the directory entry
    itself.  The lock manager calls :meth:`record_access` on every
    global acquisition, asks :meth:`pick_target` when an entry
    quiesces, charges the handoff message, and then calls
    :meth:`note_migrated` once the home has actually flipped.  Time is
    ``env.now``, read directly: ``env`` is the simulation engine, or
    anything else with a ``now``.
    """

    def __init__(self, config: MigrationConfig, env):
        self.config = config
        self.env = env
        self._access: Dict[ObjectId, _AccessCounts] = {}
        self.stats = MigrationStats()

    def record_access(self, object_id: ObjectId, node: NodeId) -> None:
        """One global lock operation on ``object_id`` issued by ``node``."""
        now = self.env.now
        tally = self._access.get(object_id)
        if tally is None:
            tally = self._access[object_id] = _AccessCounts(last_update=now)
        elif now > tally.last_update:
            tally.decay_to(now, self.config.half_life_s)
        counts = tally.counts
        counts[node] = counts.get(node, 0.0) + 1.0

    def pick_target(self, object_id: ObjectId,
                    current_home: NodeId) -> Optional[NodeId]:
        """The node the entry should move to, or ``None`` to stay put."""
        tally = self._access.get(object_id)
        if tally is None:
            return None
        now = self.env.now
        if now - tally.last_migration < self.config.cooldown_s:
            return None
        self.stats.considered += 1
        if now > tally.last_update:
            tally.decay_to(now, self.config.half_life_s)
        counts = tally.counts
        total = sum(counts.values())
        if total <= 0:
            return None
        # Deterministic argmax: the highest count, ties to the lowest
        # node id (a tie never moves the entry: its share is <= 1/2).
        dominant, count = None, 0.0
        for node, tallied in counts.items():
            if (dominant is None or tallied > count
                    or (tallied == count and node.value < dominant.value)):
                dominant, count = node, tallied
        if dominant == current_home:
            return None
        if count < self.config.threshold:
            return None
        if count / total < self.config.dominance:
            return None
        return dominant

    def note_migrated(self, object_id: ObjectId) -> None:
        tally = self._access.get(object_id)
        if tally is not None:
            tally.last_migration = self.env.now
            # Start a fresh observation window at the new home so the
            # very next decision reflects post-move behavior only.
            tally.counts.clear()
        self.stats.migrations += 1

    def note_forwarded(self) -> None:
        self.stats.forwarded_requests += 1
