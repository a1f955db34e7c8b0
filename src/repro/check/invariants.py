"""Trace invariant checkers.

Each judge of a trace owns its rules, and each rule has one judge.
The reference model (:mod:`repro.check.reference`) owns the paper's
lock rules: conflict and Moss retention at every grant, recursion,
inheritance and release.  The checkers here are small walks over the
trace's one :class:`~repro.check.events.TraceIndex` (built here when
handed a raw stream), each owning a property no lock table reads:

* :func:`check_page_version_monotonic` — page installs never regress a
  page's version (the GDO page map always points at the most
  up-to-date copy, so a gather shipping an older version than one
  already seen means a stale page map);
* :func:`check_commit_order` — conflicting grant order must agree with
  root commit order (strictness: under strict O2PL the earlier
  conflicting accessor commits first);
* :func:`check_liveness` — every started family eventually commits or
  aborts, *provided the trace's faults all healed*: a crash without a
  recovery or a partition without a heal excuses stuck families
  (progress is not required of a half-broken cluster), which is why
  the checker must be heal-aware rather than simply demanding
  termination.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.check.events import (
    CRASH_ABORT, FAULT, INSTALL, PREFETCH, TXN_END, TXN_START, TraceIndex,
    Violation, object_name,
)


def check_page_version_monotonic(events) -> List[Violation]:
    """Installed page versions never regress (no stale installs).

    Strict O2PL quiesces an object's writers while it is being read or
    shipped, so across the whole cluster the version installed for one
    ``(object, page)`` can only grow: a regression means the page map
    pointed a gather at a stale owner.
    """
    violations: List[Violation] = []
    seen: Dict[Tuple[str, str], int] = {}
    for step in TraceIndex.of(events).steps:
        if step[0] != INSTALL:
            continue
        _, index, ts, obj, versions = step
        for page, version in sorted(versions.items()):
            key = (obj, str(page))
            prior = seen.get(key)
            if prior is not None and version < prior:
                violations.append(Violation(
                    "invariant.page-version", index, ts,
                    f"{obj} page {page}: installed version {version} after "
                    f"version {prior} was already current (stale page map)",
                ))
            else:
                seen[key] = version
    return violations


def check_commit_order(events) -> List[Violation]:
    """Conflicting grant order must agree with root commit order.

    Strict O2PL holds every lock to root commit/abort, so if committed
    family A was granted a conflicting lock on an object before
    committed family B, then A must commit before B.
    """
    trace = TraceIndex.of(events)
    violations: List[Violation] = []
    conflict = trace.conflicts.conflict
    commit_pos: Dict[int, int] = {}
    for step in trace.steps:
        if step[0] == TXN_END:
            _, index, _, txn, outcome = step
            if txn.is_root and outcome == "commit":
                commit_pos[txn.root] = index
    # Per object, the committed families' grants in trace order.
    grants_by_object: Dict[int, List[Tuple[int, int, str, float]]] = {}
    for step in trace.steps:
        if step[0] <= PREFETCH:
            _, index, ts, txn, obj, mode, _ = step
            if txn.root in commit_pos:
                grants_by_object.setdefault(obj, []).append(
                    (index, txn.root, mode, ts)
                )
    for obj, grants in sorted(grants_by_object.items()):
        for position, (index, root, mode, ts) in enumerate(grants):
            for _, earlier_root, earlier_mode, _ in grants[:position]:
                if earlier_root == root:
                    continue
                if not conflict(earlier_mode, mode):
                    continue
                if commit_pos[earlier_root] > commit_pos[root]:
                    violations.append(Violation(
                        "invariant.commit-order", index, ts,
                        f"{object_name(obj)}: family {earlier_root} "
                        f"conflicted before family {root} but committed "
                        f"after it",
                    ))
    return violations


def check_liveness(events) -> List[Violation]:
    """Every started family terminates once all faults heal.

    Families are identified by the TXN_START instant their root
    emits at begin time (spans are only recorded at their *end*, so an
    interrupted family leaves no span — the instant is the only
    start-of-family evidence).  Termination is the root's commit/abort
    span or a CRASH_ABORT.

    Heal-awareness is the whole point: a family stuck behind a node
    that never recovered, or a partition that never healed, is the
    *expected* behaviour of a fail-stop system, not a protocol bug.
    Only when every crash has its recovery and every partition its
    heal does an unterminated family become a violation — that is
    exactly the signature of a ghost holder resurrected from a stale
    durable record (the ``skip-rejoin-invalidation`` mutation).
    """
    violations: List[Violation] = []
    started: Dict[int, Tuple[int, float]] = {}
    terminated: set = set()
    # Fault window (a node, or every partition) -> how many are open.
    open_windows: Dict[object, int] = {}
    for step in TraceIndex.of(events).steps:
        kind = step[0]
        if kind == TXN_START:
            _, index, ts, root = step
            if root is not None and root not in started:
                started[root] = (index, ts)
        elif kind == TXN_END:
            if step[3].is_root:
                terminated.add(step[3].root)
        elif kind == CRASH_ABORT:
            terminated.add(step[3])
        elif kind == FAULT:
            _, _, _, window, delta = step
            open_windows[window] = open_windows.get(window, 0) + delta
    unhealed = any(count > 0 for count in open_windows.values())
    if unhealed:
        return violations  # stuck families are excused mid-outage
    for root, (index, ts) in sorted(started.items()):
        if root in terminated:
            continue
        violations.append(Violation(
            "invariant.liveness", index, ts,
            f"family {root} started but never committed or aborted, "
            f"with every planned fault healed by trace end",
        ))
    return violations


def run_invariants(events) -> List[Violation]:
    """Run every invariant checker; violations in checker order."""
    trace = TraceIndex.of(events)
    violations: List[Violation] = []
    violations.extend(check_page_version_monotonic(trace))
    violations.extend(check_commit_order(trace))
    violations.extend(check_liveness(trace))
    return violations
