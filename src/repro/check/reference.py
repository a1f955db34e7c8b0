"""An executable nested-O2PL reference model.

A pure-python re-implementation of the paper's lock table semantics
(Algorithms 4.1-4.4, Moss-style holding/retention) that *consumes the
trace stream* instead of sharing any code with the production lock
manager (:mod:`repro.txn.locks` / :mod:`repro.gdo.entry`).  Every
grant the implementation recorded is re-judged against independently
coded rules:

* **conflict rule** (rule 1b, §4.1): no other transaction outside the
  requester's ancestor chain may hold the lock in a conflicting mode;
* **retention rule** (rule 1a, Moss): every retainer of a
  *conflicting* mode must be the requester itself or one of its
  ancestors — a write request admits no foreign retainer at all, a
  read request is excluded only by foreign *write* retainers (read
  retentions are still shared).  The mode qualifier matters for trace
  replay: grants are recorded at message-delivery time, so a holder
  family may pre-commit (demoting its read hold to a read retention)
  between the home node's legal R-R grant decision and the grant's
  trace instant.  The implementation's ``decide()`` is stricter than
  this (it queues foreign families behind any retention); the model
  checks the paper's necessary condition, which a stricter
  implementation can never violate;
* **recursion preclusion** (§3.4): an ancestor *holding* (not merely
  retaining) the lock means the family would deadlock with itself,
  whatever the modes;
* **inheritance** (Algorithm 4.3): a pre-committing sub-transaction
  must move every lock it holds or retains to its parent, which
  retains them; a sub that reaches commit while the model still sees
  it holding locks has skipped retention;
* **release hygiene** (Algorithm 4.4): when a family's root ends, the
  family must be gone from every lock table entry.

Because the two implementations share nothing but the trace format,
agreement is strong evidence the production lock manager implements
the paper's rules — and any divergence is localized to one event.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.check.events import (
    CRASH_ABORT, INHERIT, PREFETCH, RELEASE, TXN_END, WAIT, TraceIndex, TxnRef,
    Violation, join_mode_strings, object_name,
)


class ReferenceModel:
    """Replays a trace stream against the paper's locking rules."""

    def __init__(self):
        # Per object: transaction -> held / retained mode.
        self._holds: Dict[int, Dict[TxnRef, str]] = {}
        self._retains: Dict[int, Dict[TxnRef, str]] = {}
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, events) -> List[Violation]:
        """Consume a trace stream (or its :class:`TraceIndex`); returns
        the violations found."""
        trace = TraceIndex.of(events)
        # The conflict relation of the stream's honest commutativity
        # tables; plain single-writer where they register nothing.
        self._conflicts = trace.conflicts
        self._footprint = trace.footprint
        for step in trace.steps:
            kind = step[0]
            if kind <= WAIT:
                self._on_grant(*step[1:])
            elif kind == PREFETCH:
                self._on_prefetch(*step[1:])
            elif kind == INHERIT:
                self._on_inherit(*step[1:])
            elif kind == RELEASE:
                # Global release of a family on the listed objects.
                # Removing a family that is already gone is a no-op by
                # design: after a crash, the directory reclaimed the
                # entries before the root's own abort release ran.
                self._drop_family(step[3], step[4])
            elif kind == TXN_END:
                self._on_txn_end(*step[1:])
            elif kind == CRASH_ABORT:
                self._drop_family(step[3], self._footprint(step[3]))
        return self.violations

    # ------------------------------------------------------------------
    # Grant judgement (the heart of the model)
    # ------------------------------------------------------------------

    def _on_grant(self, index: int, ts: float, txn: TxnRef, obj: int,
                  mode: str, ancestors: FrozenSet[int]) -> None:
        holds = self._holds.setdefault(obj, {})
        retains = self._retains.setdefault(obj, {})
        held = holds.get(txn)
        if held is not None:
            # Re-entrant: a grant the held mode already covers is free
            # (equal modes keep their semantic identity; W covers R).
            joined = join_mode_strings(held, mode)
            if joined == held:
                return
            # Upgrade: legal only while no other holder, and no
            # retainer outside the requester's lineage (rule 1a),
            # conflicts with the joined mode (plain case: sole holder).
            others = [
                h for h, m in holds.items()
                if h != txn and self._conflicts.conflict(joined, m)
            ] + [
                r for r, m in retains.items()
                if r != txn and r.serial not in ancestors
                and self._conflicts.conflict(m, joined)
            ]
            if others:
                self.violations.append(Violation(
                    "reference.upgrade", index, ts,
                    f"{txn!r} upgraded {object_name(obj)} {held}->{joined} "
                    f"while {sorted(map(repr, others))} still hold or "
                    f"retain it in conflicting modes",
                ))
            holds[txn] = joined
            return
        for holder, holder_mode in sorted(holds.items()):
            if holder == txn:
                continue
            if holder.serial in ancestors:
                # §3.4: an ancestor holds the lock the sub now takes —
                # whatever the modes (commutativity included), the
                # family would deadlock with itself.
                self.violations.append(Violation(
                    "reference.recursion", index, ts,
                    f"{txn!r} granted {object_name(obj)} ({mode}) while "
                    f"ancestor {holder!r} holds it ({holder_mode}) — "
                    f"§3.4 precludes recursive invocation",
                ))
            elif self._conflicts.conflict(holder_mode, mode):
                self.violations.append(Violation(
                    "reference.conflict", index, ts,
                    f"{txn!r} granted {object_name(obj)} ({mode}) while "
                    f"{holder!r} holds it in conflicting mode "
                    f"({holder_mode})",
                ))
        for retainer, retained_mode in sorted(retains.items()):
            if retainer == txn or retainer.serial in ancestors:
                continue  # Moss: the retainer and its descendants may enter
            if not self._conflicts.conflict(retained_mode, mode):
                # Read retention does not exclude foreign readers, and
                # a retained semantic mode does not exclude commuting
                # foreign invocations.
                continue
            self.violations.append(Violation(
                "reference.retention", index, ts,
                f"{txn!r} granted {object_name(obj)} ({mode}) while "
                f"{retainer!r} retains it ({retained_mode}) and is not "
                f"an ancestor of the requester",
            ))
        holds[txn] = mode

    def _on_prefetch(self, index: int, ts: float, txn: TxnRef, obj: int,
                     mode: str, ancestors: FrozenSet[int]) -> None:
        # A granted prefetch is a grant immediately demoted to retained
        # (LockManager.acquire with prefetch=True): judge it like any
        # grant, then record the retention instead of a hold.
        self._on_grant(index, ts, txn, obj, mode, ancestors)
        retains = self._retains[obj]
        self._holds[obj].pop(txn, None)
        existing = retains.get(txn)
        retains[txn] = mode if existing is None else join_mode_strings(
            existing, mode
        )

    # ------------------------------------------------------------------
    # Inheritance and release
    # ------------------------------------------------------------------

    def _on_inherit(self, index: int, ts: float, txn: TxnRef,
                    parent: TxnRef, objects: Tuple[int, ...]) -> None:
        for obj in objects:
            holds = self._holds.setdefault(obj, {})
            retains = self._retains.setdefault(obj, {})
            moved: List[str] = []
            held = holds.pop(txn, None)
            if held is not None:
                moved.append(held)
            retained = retains.pop(txn, None)
            if retained is not None:
                moved.append(retained)
            if not moved:
                self.violations.append(Violation(
                    "reference.inherit", index, ts,
                    f"{parent!r} inherited {object_name(obj)} from "
                    f"{txn!r}, which neither holds nor retains it",
                ))
                continue
            mode = moved[0]
            for extra in moved[1:]:
                mode = join_mode_strings(mode, extra)
            # The parent *retains* the inherited lock (Algorithm 4.3);
            # a lock it also holds in its own right stays held.  Equal
            # semantic modes keep their tag through retention — that is
            # what lets commuting foreign invocations keep flowing.
            existing = retains.get(parent)
            retains[parent] = mode if existing is None else (
                join_mode_strings(existing, mode)
            )

    def _on_txn_end(self, index: int, ts: float, txn: TxnRef,
                    outcome: Optional[str]) -> None:
        footprint = self._footprint(txn.root)
        if txn.is_root:
            # Algorithm 4.4: by the time the root's span closes, its
            # release processing has run — the family must be gone.
            leaked = sorted(
                object_name(obj)
                for obj in footprint
                for holder in self._holds.get(obj, ())
                if holder.root == txn.root
            ) + sorted(
                object_name(obj)
                for obj in footprint
                for retainer in self._retains.get(obj, ())
                if retainer.root == txn.root
            )
            if leaked:
                self.violations.append(Violation(
                    "reference.release", index, ts,
                    f"family of {txn!r} ended ({outcome}) still "
                    f"holding/retaining {leaked}",
                ))
            self._drop_family(txn.root, footprint)
            return
        if outcome == "abort":
            # Sub abort (Algorithm 4.3 last case): the sub's own locks
            # vanish; ancestor retention is untouched.
            self._drop_txn(txn, footprint)
            return
        if outcome == "commit":
            # Pre-commit ran before this span closed: a sub must have
            # moved everything to its parent (an INHERIT step).
            stuck = sorted(
                object_name(obj)
                for obj in footprint
                if txn in self._holds.get(obj, ())
            ) + sorted(
                object_name(obj)
                for obj in footprint
                if txn in self._retains.get(obj, ())
            )
            if stuck:
                self.violations.append(Violation(
                    "reference.inherit", index, ts,
                    f"sub-transaction {txn!r} committed without "
                    f"releasing {stuck} to its parent "
                    f"(lock retention skipped?)",
                ))
                self._drop_txn(txn, footprint)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _drop_family(self, root: Optional[int], objects) -> None:
        for obj in objects:
            for table in (self._holds.get(obj, {}),
                          self._retains.get(obj, {})):
                for ref in [ref for ref in table if ref.root == root]:
                    del table[ref]

    def _drop_txn(self, txn: TxnRef, objects) -> None:
        for obj in objects:
            self._holds.get(obj, {}).pop(txn, None)
            self._retains.get(obj, {}).pop(txn, None)

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------

    def holders(self, obj: int) -> Dict[TxnRef, str]:
        return dict(self._holds.get(obj, {}))

    def retainers(self, obj: int) -> Dict[TxnRef, str]:
        return dict(self._retains.get(obj, {}))


def check_reference_model(events) -> List[Violation]:
    """Run the nested-O2PL reference model over a trace stream."""
    return ReferenceModel().run(events)
