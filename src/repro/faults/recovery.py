"""GDO home failover and node rejoin.

Two responsibilities, both deterministic functions of ``(plan, time)``:

* **Failover** — when a GDO home has been down past the plan's
  ``failover_detect_s``, every directory entry homed there is re-homed
  to a *deterministic successor*: the next live node in shard order,
  ``(crashed + k) mod N`` for the smallest ``k`` with a live node.
  Every site computes the same successor from the same static crash
  windows without any coordination, which is the whole determinism
  argument (DESIGN §13).  The move reuses the adaptive-migration
  machinery — ``Directory.move_home`` plus the lock manager's
  stale-home request forwarding — so in-flight messages addressed to
  the old home keep working.  Failover moves are *not* charged to the
  network: the crashed home cannot participate in a handoff, and the
  successor reconstructs the entry from the directory it already
  shares (same rationale as the uncharged ``crash_release``).

* **Rejoin** — when the node comes back it replays its durable record
  (:mod:`repro.faults.wal`): committed page versions are cross-checked
  against the live directory (stable storage must never be *ahead* of
  the cluster), failed-over homes are reclaimed, and stale holder
  records are reconciled — families that terminated during the window
  are discarded rather than resurrected.  (A resurrected ghost
  retainer blocks foreign families forever; ``repro.check.mutations``
  seeds exactly that bug to prove the ``invariant.liveness`` checker
  catches it.)
"""

from typing import TYPE_CHECKING, Dict, Optional

from repro.util.backoff import backoff_delay
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId, ObjectId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.injector import FaultInjector

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Drives failover and rejoin for one cluster."""

    def __init__(self, env, injector: "FaultInjector", directory, cache,
                 wal, nodes, tracer):
        self.env = env
        self.injector = injector
        self.directory = directory
        self.cache = cache
        self.wal = wal
        self.nodes = list(nodes)
        self.tracer = tracer
        #: Failover moves awaiting reconciliation: object id -> the
        #: original (crashed) home.  Adaptive migrations never appear
        #: here, so rejoin reclaims exactly the failover moves.
        self._failed_over: Dict[ObjectId, NodeId] = {}

    # -- determinism core --------------------------------------------------

    def successor_of(self, node_index: int, now: float) -> Optional[NodeId]:
        """Next live node in shard order after ``node_index``.

        Pure function of the static crash windows and ``now``; returns
        ``None`` when every other node is down too.
        """
        count = len(self.nodes)
        for step in range(1, count):
            candidate = self.nodes[(node_index + step) % count]
            if not self.injector.is_down(candidate, now):
                return candidate
        return None

    # -- failover ----------------------------------------------------------

    def failover(self, crash):
        """Simulation process: detect a dead home, re-home its entries.

        Scheduled by the crash controller at the crash instant; waits
        the detection timeout (one step of the unified backoff curve),
        confirms the node is still down, then moves every entry homed
        there to the deterministic successor.
        """
        detect = self.injector.failover_detect_s()
        if detect <= 0:
            return
        yield self.env.timeout(backoff_delay(detect, 0))
        now = self.env.now
        if not self.injector.is_down(self.nodes[crash.node_index], now):
            return  # recovered before detection fired: no failover
        successor = self.successor_of(crash.node_index, now)
        if successor is None:
            return  # no live successor; entries stay stranded
        for object_id, entry in sorted(
            self.directory.entries().items(),
            key=lambda item: item[0].value,
        ):
            if entry.home_node.value != crash.node_index:
                continue
            old_home = self.directory.move_home(object_id, successor)
            self._failed_over[object_id] = old_home
            # Only the successor's record changes: the crashed node's
            # stable storage is unreachable, so its (now stale) home
            # and holder records stay put until its own rejoin
            # reconciles them.
            self.wal.record_home(successor.value, object_id)
            # The old home's cached holder lists died with it and the
            # entry's routing changed: no site's cache is authoritative.
            self.cache.on_freed(object_id)
            self.injector.stats.failovers += 1
            self.tracer.gdo_failover(object_id, old_home, successor)

    # -- rejoin ------------------------------------------------------------

    def rejoin(self, crash) -> None:
        """Replay the node's durable record and re-integrate it."""
        node_index = crash.node_index
        me = self.nodes[node_index]
        record = self.wal.node(node_index)
        # 1. Page-version replay: stable storage survived, so every
        # committed version the node recorded must still be known to
        # the cluster (a *newer* directory version just means the page
        # moved on while the node was down — that is fine).
        replayed = 0
        for (object_id, page), version in sorted(
            record.pages.items(),
            key=lambda item: (item[0][0].value, item[0][1]),
        ):
            entry = self.directory.entry(object_id)
            if entry.latest_version(page) < version:
                raise ProtocolError(
                    f"rejoin N{node_index}: durable record has "
                    f"{object_id!r} page {page} at v{version} but the "
                    f"directory only knows v{entry.latest_version(page)} "
                    f"— stable storage was lost"
                )
            replayed += 1
        self.injector.stats.rejoin_replayed_records += replayed
        # 2. Reclaim the homes failover moved away.  The successor's
        # serving window ends here; stale-home forwarding covers any
        # request still in flight toward it.
        reclaimed = 0
        mine = sorted(
            (object_id for object_id, orig in self._failed_over.items()
             if orig.value == node_index),
            key=lambda object_id: object_id.value,
        )
        for object_id in mine:
            old_home = self.directory.move_home(object_id, me)
            self.wal.record_home_moved(
                old_home.value, node_index, object_id)
            self.cache.on_freed(object_id)
            del self._failed_over[object_id]
            reclaimed += 1
        self.injector.stats.rejoin_reclaimed_homes += reclaimed
        # 3. Holder reconciliation: a recorded holder that is no longer
        # in the live entry terminated (crash abort, commit, release)
        # during the window — it is a ghost and must be discarded, not
        # resurrected.
        discarded = 0
        for object_id, snapshot in sorted(
            record.holders.items(),
            key=lambda item: item[0].value,
        ):
            entry = self.directory.entry(object_id)
            for txn, mode in snapshot:
                if txn.id in entry.holders or txn.id in entry.retainers:
                    continue  # still live: nothing to reconcile
                discarded += 1
        record.holders.clear()
        self.injector.stats.rejoin_discarded_holders += discarded
        self.tracer.node_rejoin(node_index, replayed, reclaimed, discarded)
