"""Waits-for-graph deadlock detection over transaction families.

Two-phase locking across competing families can deadlock (family A
holds O1 and waits for O2; family B holds O2 and waits for O1).  The
paper does not address this; we add the standard database solution:
maintain a waits-for graph at family granularity, check for a cycle on
every new wait edge, and abort the *youngest* blocked family in the
cycle (the one whose root has the highest serial — it has done the
least work).

Nodes of the graph are root serials.  Edges are derived per directory
entry and keyed by *conflict*, not by mere co-presence: each waiting
family's edge set is exactly the holder/retainer families whose modes
its head request conflicts with
(:meth:`repro.gdo.entry.DirectoryEntry.waits_for_edges`), so two
semantically commuting holders never contribute a spurious cycle.
Edges are refreshed at every global grant, release and withdrawal, so
ownership handoffs leave no stale edges; the two purely local pump
sites (pre-commit, non-freeing sub-abort) do not refresh, so a waiter
they admit keeps its recorded edge until the entry's next refresh.

Detection is incremental.  The lock manager leaves no cycle reachable
from a blocked family, so a new one needs an *added* edge and is
reachable from that edge's source: :meth:`DeadlockDetector.update_entry`
marks the families that gained a blocker, and only they are searched
from (:meth:`DeadlockDetector.cycle_appeared`).  Removing an edge cannot
create a cycle, so no-cycle certificates outlive removals.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import (
    Container, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set,
)

from repro.util.errors import ProtocolError
from repro.util.ids import ObjectId

_NO_WAITS: Dict[int, FrozenSet[int]] = {}
_NOBODY: FrozenSet[int] = frozenset()


class DeadlockDetector:
    """Family-granularity waits-for graph with cycle search."""

    def __init__(self) -> None:
        #: Where the work is counted: any object with integer
        #: ``cycle_searches`` and ``edge_refreshes`` (the lock manager
        #: puts its ``LockStats`` here).
        self.stats = SimpleNamespace(cycle_searches=0, edge_refreshes=0)
        # entry -> {waiting family root -> blocking family roots}
        self._entry_waits: Dict[ObjectId, Dict[int, FrozenSet[int]]] = {}
        # waiter -> {blocker -> number of entries recording that edge}.
        # A family is normally queued on one entry; the count keeps
        # the union right when a stale edge on a second entry (pumped
        # without a refresh) overlaps it.
        self._edge_counts: Dict[int, Dict[int, int]] = {}
        # The live adjacency: waiter -> its blockers in sorted order
        # (the DFS visits neighbors in that order for determinism).
        self._targets: Dict[int, List[int]] = {}
        # Families proven cycle-free: a DFS that backs out of a node
        # has seen everything reachable from it.  Sound until an edge
        # is *added* anywhere.
        self._cycle_free: Set[int] = set()
        # Families a new cycle could be reachable from.
        self._marked: Set[int] = set()

    def update_entry(self, object_id: ObjectId,
                     edges: Mapping[int, FrozenSet[int]]) -> None:
        """Refresh the wait edges contributed by one directory entry.

        ``edges`` maps each waiting family root to the roots actually
        blocking it on this entry (conflict-keyed, self-edges pruned
        here).  Waiters with no blockers contribute nothing; an
        unchanged map is a no-op."""
        old = self._entry_waits.get(object_id, _NO_WAITS)
        new: Dict[int, FrozenSet[int]] = {}
        for waiter, blocking in edges.items():
            blocking = frozenset(blocking) - {waiter}
            if blocking:
                new[waiter] = blocking
        if new == old:
            return
        self.stats.edge_refreshes += 1
        if new:
            self._entry_waits[object_id] = new
        else:
            del self._entry_waits[object_id]
        edge_added = False
        for waiter in old.keys() | new.keys():
            was, now = old.get(waiter, _NOBODY), new.get(waiter, _NOBODY)
            if was == now:
                continue
            counts = self._edge_counts.setdefault(waiter, {})
            for blocker in was - now:
                counts[blocker] -= 1
                if not counts[blocker]:
                    del counts[blocker]
            for blocker in now - was:
                counts[blocker] = counts.get(blocker, 0) + 1
                if counts[blocker] == 1:
                    edge_added = True
                    self._marked.add(waiter)
            if counts:
                self._targets[waiter] = sorted(counts)
            else:
                del self._edge_counts[waiter], self._targets[waiter]
        if edge_added:
            self._cycle_free.clear()

    def drop_family(self, root: int) -> None:
        """Remove one family from every edge (crash-aborted families).

        Per-entry refreshes already cover entries the crashed family
        touched; this is the safety net guaranteeing no stale edge can
        keep the dead family in a cycle and no survivor can be chosen
        as a victim of a ghost.
        """
        for object_id in list(self._entry_waits):
            edges = self._entry_waits[object_id]
            if root not in edges and not any(
                root in blocking for blocking in edges.values()
            ):
                continue
            self.update_entry(object_id, {
                waiter: blocking - {root}
                for waiter, blocking in edges.items()
                if waiter != root
            })

    def has_entry(self, object_id: ObjectId) -> bool:
        """Does this entry currently contribute any edge?"""
        return object_id in self._entry_waits

    def edges(self) -> Dict[int, Set[int]]:
        """Snapshot of the adjacency: family -> families it waits for."""
        return {waiter: set(targets)
                for waiter, targets in self._targets.items()}

    def mark(self, root: int) -> None:
        """Search from ``root`` at the next check even if it gains no
        edge: a family that blocks again may still own a stale one."""
        self._marked.add(root)

    def cycle_appeared(self) -> bool:
        """Is a cycle reachable from a family marked since the last
        call?  Clears the marks."""
        if not self._marked:
            return False
        marked, self._marked = self._marked, set()
        return self.first_cycle(marked) is not None

    def first_cycle(self, starts: Iterable[int]) -> Optional[List[int]]:
        """:meth:`find_cycle` from each start in turn until one hits."""
        for start in starts:
            # find_cycle's own early exit, spared the call: a sweep
            # passes every blocked family, most of them certified.
            if start in self._targets and start not in self._cycle_free:
                cycle = self.find_cycle(start)
                if cycle is not None:
                    return cycle
        return None

    def find_cycle(self, start: int) -> Optional[List[int]]:
        """Return a cycle reachable from ``start``, or None.

        DFS in sorted-neighbor order (deterministic).  Nodes certified
        cycle-free are pruned: no cycle is reachable from them, and no
        cycle through the *current* path can route via them either (it
        would be a cycle reachable from them — contradiction), so
        pruning cannot change which cycle is found.
        """
        targets = self._targets
        cycle_free = self._cycle_free
        if start not in targets or start in cycle_free:
            return None
        self.stats.cycle_searches += 1
        path = [start]
        on_path = {start}
        pending = [iter(targets[start])]  # per path node: targets to try
        while pending:
            for target in pending[-1]:
                if target in on_path:
                    return path[path.index(target):]
                # A family waiting for nobody ends every path.
                if target in targets and target not in cycle_free:
                    path.append(target)
                    on_path.add(target)
                    pending.append(iter(targets[target]))
                    break
            else:
                # Backing out: nothing reachable from this node cycles.
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                cycle_free.add(node)
        return None

    def pick_victim(self, cycle: List[int], blocked: Container[int]) -> int:
        """Youngest blocked family = highest root serial = least work
        lost.  A running family cannot be preempted mid-method, so only
        the members of ``blocked`` are candidates."""
        candidates = [root for root in cycle if root in blocked]
        if not candidates:
            raise ProtocolError(
                f"deadlock cycle {cycle} with no blocked family"
            )
        return max(candidates)
