"""Trace invariant checkers.

Each checker is a small, independent walk over the trace's one
:class:`~repro.check.events.TraceIndex` (built here when handed a raw
stream); none shares state with the others or with the reference model
(:mod:`repro.check.reference`), so a bug has to fool several disjoint
re-implementations of the paper's rules to slip through:

* :func:`check_single_writer` — at most one family per object when any
  present family holds or retains a WRITE lock (multiple readers /
  single writer at family granularity);
* :func:`check_retained_descendants` — a retained lock admits, in a
  conflicting mode, only the retainer itself and its descendants
  (Moss retention; read retentions still share with foreign readers);
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

from typing import Dict, List, Optional, Tuple

from repro.check.events import (
    CRASH_ABORT, FAULT, INHERIT, INSTALL, PREFETCH, RELEASE, TXN_END,
    TXN_START, TraceIndex, TxnRef, Violation, join_mode_strings, object_name,
)


def _joined(existing: Optional[str], mode: str) -> str:
    """Fold a grant into a tracked mode, keeping semantic identity on
    equal modes (plain runs see exactly the old strongest-mode fold)."""
    return mode if existing is None else join_mode_strings(existing, mode)


def check_single_writer(events) -> List[Violation]:
    """Family-granularity single-writer / multi-reader exclusion."""
    trace = TraceIndex.of(events)
    violations: List[Violation] = []
    conflict = trace.conflicts.conflict
    # Per object: family root -> strongest mode present (held/retained).
    present: Dict[int, Dict[int, str]] = {}
    for step in trace.steps:
        kind = step[0]
        if kind <= PREFETCH:
            _, index, ts, txn, obj, mode, _ = step
            families = present.setdefault(obj, {})
            for other, other_mode in sorted(families.items()):
                if other == txn.root:
                    continue
                if conflict(other_mode, mode):
                    violations.append(Violation(
                        "invariant.single-writer", index, ts,
                        f"{object_name(obj)}: family {txn.root} granted "
                        f"{mode} while family {other} is present with "
                        f"{other_mode}",
                    ))
            families[txn.root] = _joined(families.get(txn.root), mode)
        elif kind == RELEASE or kind == CRASH_ABORT:
            root = step[3]
            objects = (step[4] if kind == RELEASE
                       else trace.footprint(root))
            for obj in objects:
                present.get(obj, {}).pop(root, None)
    return violations


def check_retained_descendants(events) -> List[Violation]:
    """Retained locks admit only compatible strangers (Moss rule 1a).

    A *write* retention admits nobody outside the retainer's
    descendants; a *read* retention still shares with foreign readers.
    The mode qualifier is load-bearing for trace replay: grants are
    recorded at delivery time, so a legally admitted foreign reader
    can appear in the trace just after the read-holding family
    pre-committed its hold into a read retention.  Held modes are
    therefore tracked alongside retentions, so inheritance moves the
    *actual* strongest mode up the tree instead of assuming WRITE.
    """
    trace = TraceIndex.of(events)
    violations: List[Violation] = []
    conflict = trace.conflicts.conflict
    # Per object: transaction -> held / retained mode.
    holds: Dict[int, Dict[TxnRef, str]] = {}
    retains: Dict[int, Dict[TxnRef, str]] = {}

    def drop_family(root, objects):
        for per_object in (holds, retains):
            for obj in objects:
                table = per_object.get(obj, {})
                for ref in [r for r in table if r.root == root]:
                    del table[ref]

    for step in trace.steps:
        kind = step[0]
        if kind <= PREFETCH:
            _, index, ts, txn, obj, grant_mode, ancestors = step
            for retainer, retained_mode in sorted(
                retains.get(obj, {}).items()
            ):
                if retainer == txn or retainer.serial in ancestors:
                    continue
                if not conflict(retained_mode, grant_mode):
                    continue
                violations.append(Violation(
                    "invariant.retained-descendants", index, ts,
                    f"{object_name(obj)}: {txn!r} admitted ({grant_mode}) "
                    f"while {retainer!r} retains the lock "
                    f"({retained_mode}) and is not an ancestor",
                ))
            table = (retains if kind == PREFETCH else holds).setdefault(
                obj, {})
            table[txn] = _joined(table.get(txn), grant_mode)
        elif kind == INHERIT:
            _, _, _, txn, parent, objects = step
            for obj in objects:
                held = holds.setdefault(obj, {}).pop(txn, None)
                table = retains.setdefault(obj, {})
                retained = table.pop(txn, None)
                moved = [m for m in (held, retained) if m is not None]
                if moved:
                    mode = moved[0]
                    for extra in moved[1:]:
                        mode = join_mode_strings(mode, extra)
                else:
                    mode = "R"
                table[parent] = _joined(table.get(parent), mode)
        elif kind == RELEASE:
            drop_family(step[3], step[4])
        elif kind == TXN_END:
            _, _, _, txn, outcome = step
            if not txn.is_root and outcome == "abort":
                for obj in trace.footprint(txn.root):
                    holds.get(obj, {}).pop(txn, None)
                    retains.get(obj, {}).pop(txn, None)
            elif txn.is_root:
                drop_family(txn.root, trace.footprint(txn.root))
        elif kind == CRASH_ABORT:
            drop_family(step[3], trace.footprint(step[3]))
    return violations


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
    violations.extend(check_single_writer(trace))
    violations.extend(check_retained_descendants(trace))
    violations.extend(check_page_version_monotonic(trace))
    violations.extend(check_commit_order(trace))
    violations.extend(check_liveness(trace))
    return violations
