"""Waits-for-graph deadlock detection over transaction families.

Two-phase locking across competing families can deadlock (family A
holds O1 and waits for O2; family B holds O2 and waits for O1).  The
paper does not address this; we add the standard database solution:
search the waits-for graph at family granularity for a cycle whenever
a family blocks, and abort the *youngest* blocked family in the cycle
(the one whose root has the highest serial — it has done the least
work).

The graph is not stored.  Nodes are root serials.  A blocked family
waits on one entry, so its out-edges are the roots blocking its one
queued waiter there, read off the entry's holders and retainers
(:meth:`repro.gdo.entry.DirectoryEntry.blockers_of`); a family that is
not blocked, or whose waiter a pump already admitted, waits for nobody.
The functions here take the blocked families as a mapping ``root ->``
:class:`BlockedFamily` (the ``entry`` it waits on and its queued
``waiter``), and
two pieces of per-round state from the caller: ``edges``, the memo that
reads each family's edges at most once per round, and ``cycle_free``,
the families a DFS backed out of.  Nothing reachable from those cycles,
and removing a victim's out-edges keeps that true, so later searches in
the round skip them.

A round (``LockManager._detect_deadlocks``) starts at the family that
just blocked: every cycle runs through it, so a search from it alone
says whether one exists.  Only on a hit does the round search the
blocked families in serial order, for the cycle whose victim dies.  The
victim reaches nothing once its waiter leaves the queue, so it joins
``cycle_free``, and one more search from the blocking family says
whether another cycle is left (none is needed when that family was the
victim).  No search sweeps the blocked families just to prove that none
cycles.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Mapping, Optional, Set

from repro.util.errors import ProtocolError

Edges = Dict[int, List[int]]


class BlockedFamily:
    """The entry a blocked family waits on and its one queued waiter."""

    __slots__ = ("entry", "waiter")

    def __init__(self, entry, waiter):
        self.entry = entry
        self.waiter = waiter


def first_cycle(starts: Iterable[int], blocked: Mapping[int, object],
                edges: Edges, cycle_free: Set[int],
                stats) -> Optional[List[int]]:
    """:func:`find_cycle` from each start in turn until one hits.

    A start certified cycle-free is skipped; every search started is
    counted in ``stats.cycle_searches``."""
    for start in starts:
        if start not in cycle_free:
            stats.cycle_searches += 1
            cycle = find_cycle(start, blocked, edges, cycle_free)
            if cycle is not None:
                return cycle
    return None


def find_cycle(start: int, blocked: Mapping[int, object], edges: Edges,
               cycle_free: Set[int]) -> Optional[List[int]]:
    """Return a cycle reachable from ``start``, or None.

    DFS in sorted-neighbour order (deterministic).  Nodes certified
    cycle-free are pruned: no cycle is reachable from them, and no
    cycle through the *current* path can route via them either (it
    would be a cycle reachable from them — contradiction), so pruning
    cannot change which cycle is found.  Every node backed out of is
    added to ``cycle_free``.
    """
    path: List[int] = []
    on_path: Set[int] = set()
    # Per path node, the targets still to try; the start is the one
    # target of an empty path, so every node is read in one place.
    pending = [iter((start,))]
    while pending:
        for node in pending[-1]:
            if node in on_path:
                return path[path.index(node):]
            if node in cycle_free:
                continue
            targets = edges.get(node)
            if targets is None:
                # The round's first read of this family (inlined: the
                # reads are most of the detector's calls).
                family = blocked.get(node)
                targets = edges[node] = (
                    [] if family is None
                    else family.entry.blockers_of(family.waiter)
                )
            # A family waiting for nobody ends every path.
            if targets:
                path.append(node)
                on_path.add(node)
                pending.append(iter(targets))
                break
        else:
            pending.pop()
            if path:
                # Backing out: nothing reachable from this node cycles.
                node = path.pop()
                on_path.discard(node)
                cycle_free.add(node)
    return None


def pick_victim(cycle: List[int], blocked: Container[int]) -> int:
    """Youngest blocked family = highest root serial = least work lost.
    A running family cannot be preempted mid-method, so only the members
    of ``blocked`` are candidates."""
    candidates = [root for root in cycle if root in blocked]
    if not candidates:
        raise ProtocolError(f"deadlock cycle {cycle} with no blocked family")
    return max(candidates)
