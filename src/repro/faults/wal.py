"""Per-node durable write-ahead records for crash recovery.

The crash model has always been fail-stop *with stable storage*; this
module gives that stable storage a concrete shape.  Each node keeps a
:class:`NodeWal` — an append-free last-writer-wins record of

* **committed page versions** the node owns (written by the executor
  at every root commit),
* **GDO entries homed here** (written at registration and on every
  home move, adaptive or failover),
* **holder lists** of those entries (written by the lock manager on
  every global grant/release that changes an entry it homes),

and the :class:`~repro.faults.recovery.RecoveryManager` replays the
record when the node rejoins: page versions are cross-checked against
the live directory, failed-over homes are reclaimed, and stale holder
records are reconciled against the live entry state (families that
died or released during the window must *not* be resurrected — the
``skip-rejoin-invalidation`` mutation in ``repro.check.mutations``
deliberately breaks exactly this step so the invariant checkers can
prove they would catch it).

The record is in-memory: the simulation has no real disks, and what
matters for the protocol argument is the *information flow* — recovery
may consult only what was explicitly recorded before the crash instant,
never live volatile state of other nodes.  :data:`NULL_WAL` keeps
fault-free runs byte-identical to a build without this module.
"""

from typing import Dict, List, Tuple

__all__ = ["NodeWal", "WalSet", "NullWalSet", "NULL_WAL"]


class NodeWal:
    """The durable record of one node."""

    def __init__(self, node_index: int):
        self.node_index = node_index
        #: (object id, page index) -> committed version owned here.
        self.pages: Dict[Tuple[object, int], int] = {}
        #: object ids of GDO entries homed at this node.
        self.homes: set = set()
        #: object id -> holder-list snapshot [(txn, mode), ...] of an
        #: entry homed here, as of the last global grant/release.
        self.holders: Dict[object, List[Tuple[object, object]]] = {}

    def record_count(self) -> int:
        return len(self.pages) + len(self.homes) + len(self.holders)


class WalSet:
    """All nodes' durable records, keyed by node index."""

    enabled = True

    def __init__(self, num_nodes: int):
        self._nodes = [NodeWal(index) for index in range(num_nodes)]

    def node(self, node_index: int) -> NodeWal:
        return self._nodes[node_index]

    # -- write paths (called from the executor / lock manager / cluster) --

    def record_page(self, node_index: int, object_id, page: int,
                    version: int) -> None:
        self._nodes[node_index].pages[(object_id, page)] = version

    def record_home(self, node_index: int, object_id) -> None:
        self._nodes[node_index].homes.add(object_id)

    def record_home_moved(self, old_index: int, new_index: int,
                          object_id) -> None:
        wal = self._nodes[old_index]
        wal.homes.discard(object_id)
        wal.holders.pop(object_id, None)
        self._nodes[new_index].homes.add(object_id)

    def record_holders(self, node_index: int, object_id, entry) -> None:
        """Snapshot an entry's holder/retainer table.

        Stores live transaction references on purpose: replay must be
        able to point back at the exact transactions named by the
        record, because reconciliation's job is to decide which of
        them are ghosts.
        """
        snapshot: List[Tuple[object, object]] = [
            (entry._holder_txns[txn_id], mode)
            for txn_id, mode in entry.holders.items()
        ]
        snapshot.extend(
            (entry._retainer_txns[txn_id], mode)
            for txn_id, mode in entry.retainers.items()
        )
        self._nodes[node_index].holders[object_id] = snapshot


class NullWalSet:
    """WAL disabled: every write is a no-op and nothing is recorded.

    The default when the plan schedules no crashes — recovery never
    runs, so recording would be pure overhead on the commit path.
    """

    enabled = False

    def record_page(self, node_index, object_id, page, version) -> None:
        pass

    def record_home(self, node_index, object_id) -> None:
        pass

    def record_home_moved(self, old_index, new_index, object_id) -> None:
        pass

    def record_holders(self, node_index, object_id, entry) -> None:
        pass


#: Shared disabled record — the default everywhere one is optional.
NULL_WAL = NullWalSet()
