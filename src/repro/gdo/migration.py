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
  retainers, no queued waiters — evaluated at the end of a global
  release, after grants were pumped.  A quiescent
  entry's location is pure accounting: no in-flight grant references
  the old home, so correctness (reference model, invariant checkers)
  is untouched by the move and only the *message pattern* changes.
* **Requests racing a move are forwarded, not lost.**  The lock
  manager snapshots the home before each request send; if the home
  moved while the message was in flight, the old home forwards it
  (one extra hop, charged and traced) — see
  :meth:`repro.txn.locks.LockManager._relay` and DESIGN §11.
* **Holder caches are invalidated** via the existing
  :class:`~repro.gdo.cache.EntryCacheTracker`, so Algorithm 4.1's
  local fast path never consults a stale notion of where the entry
  lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Set

from repro.net.message import Message, MessageCategory
from repro.sim import Event, Process
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
    """Per-entry access tracking, the move/no-move decision, and the
    handoff.

    :meth:`attach` hooks it to a lock manager: :meth:`record_access`
    runs on every global request, :meth:`note_forwarded` on every
    relay, and each global release schedules :meth:`_migration_check`,
    which asks :meth:`pick_target` of each quiesced entry, charges the
    handoff message and calls :meth:`note_migrated` once the home has
    actually flipped.  Time is ``env.now``, read directly: ``env`` is
    the simulation engine, or anything else with a ``now``.
    """

    def __init__(self, config: MigrationConfig, env):
        self.config = config
        self.env = env
        self._access: Dict[ObjectId, _AccessCounts] = {}
        self.stats = MigrationStats()
        # Entries with a home handoff currently on the wire; blocks a
        # second concurrent migration of the same entry.
        self._migrating: Set[ObjectId] = set()
        #: ``hook(old index, new index, object_id)`` per completed move
        #: (the WAL's home record, when crashes are planned).
        self.moved_hooks: List = []

    def attach(self, lockmgr, directory) -> None:
        """Hook onto ``lockmgr``'s global path; moves go to ``directory``."""
        self.network, self.sizes = lockmgr.network, lockmgr.sizes
        self.cache, self.directory = lockmgr.cache, directory
        lockmgr.request_hooks.append(self.record_access)
        lockmgr.forward_hooks.append(self.note_forwarded)
        # Detached: re-homing is the directory's own housekeeping.
        # Running it inline would suspend the releasing family past the
        # point where pumped waiters resume, letting a later-granted
        # family commit (and trace its commit) before the releaser does
        # — inverting commit order vs conflict order and breaking the
        # serial-replay oracle.
        lockmgr.release_hooks.append(
            partial(self.env.call_later, 0.0, self._migration_check))

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

    # -- the handoff ---------------------------------------------------

    def _migration_check(self, _node, root_serial: int, entries,
                         _dirty) -> None:
        """Start :meth:`_maybe_migrate` where a detached process's
        first step would run it, and give it a process only if it sends
        a handoff — most checks move nothing.  Such a check ends here,
        in place of the finished process's heap entry, which nothing
        awaits: counted on the FIFO path, queued for a tie-break policy
        to rank as it always did."""
        env = self.env
        check = self._maybe_migrate(entries)
        handoff = next(check, None)
        if handoff is not None:
            Process(env, check, name=f"gdo-migrate:{root_serial}",
                    awaiting=handoff)
        elif env.tiebreak is None:
            env._events_processed += 1
        else:
            Event(env).succeed()

    def _maybe_migrate(self, entries):
        """Adaptive re-homing of freshly quiesced entries (DESIGN §11).

        Run detached (:meth:`_migration_check`) at the tail of a global
        release, after grants were pumped: an entry is only moved when
        it is fully quiescent — no holders, no retainers, no queued
        waiters — so the move is pure accounting (no in-flight grant
        ever references the old home) and correctness is untouched.
        The handoff message is charged and yielded; if anything touched
        the entry while the handoff was on the wire, the move is
        abandoned (the access counts survive, so it is reconsidered at
        the next quiesce).
        """
        for object_id, entry in entries.items():
            if object_id in self._migrating:
                continue
            if entry.holders or entry.retainers or entry.waiting_families:
                continue  # not quiescent
            target = self.pick_target(object_id, entry.home_node)
            if target is None:
                continue
            old_home = entry.home_node
            snapshot = entry.page_map_snapshot()
            handoff = Message(
                src=old_home, dst=target,
                category=MessageCategory.GDO_MIGRATE,
                size_bytes=self.sizes.migration_transfer(
                    holder_entries=len(entry.holder_entries()),
                    page_map_entries=len(snapshot),
                ),
                object_id=object_id,
            )
            self._migrating.add(object_id)
            try:
                yield self.network.send(handoff)
            finally:
                self._migrating.discard(object_id)
            if entry.holders or entry.retainers or entry.waiting_families:
                continue  # a racing request got in first: stay put
            moved_from = self.directory.move_home(object_id, target)
            for hook in self.moved_hooks:
                hook(moved_from.value, target.value, object_id)
            # The quiescent entry has no holders, but a stale cached
            # holder list at any site would now route Algorithm 4.1's
            # fast path to the wrong home — drop it.
            self.cache.on_freed(object_id)
            self.note_migrated(object_id)
