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

from typing import Dict, List, Optional, Tuple

from repro.check.events import (
    SemanticConflicts,
    Violation,
    TxnRef,
    event_dicts,
    join_mode_strings,
    lineage_of,
    parse_object,
    parse_txn,
)


class ReferenceModel:
    """Replays a trace stream against the paper's locking rules."""

    def __init__(self):
        # Per object: transaction -> held / retained mode.
        self._holds: Dict[int, Dict[TxnRef, str]] = {}
        self._retains: Dict[int, Dict[TxnRef, str]] = {}
        # Conflict relation; plain single-writer until the stream's
        # honest lock.commtable artifacts register commuting pairs.
        self._conflicts = SemanticConflicts()
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, events) -> List[Violation]:
        """Consume a trace stream; returns the violations found."""
        for index, event in enumerate(event_dicts(events)):
            self._apply(index, event)
        return self.violations

    def _apply(self, index: int, event: Dict) -> None:
        name = event.get("name", "")
        category = event.get("category", "")
        args = event.get("args", {})
        ts = event.get("ts", 0.0)
        if category == "lock":
            if name.startswith("lock.grant "):
                self._on_grant(index, ts, args, args.get("mode"))
            elif name.startswith("lock.wait ") and args.get("granted"):
                self._on_grant(index, ts, args, args.get("mode"))
            elif name.startswith("lock.prefetch ") and (
                args.get("outcome") == "granted"
            ):
                self._on_prefetch(index, ts, args)
            elif name == "lock.commtable":
                self._conflicts.add_table(args.get("table", {}))
            elif name == "lock.inherit":
                self._on_inherit(index, ts, args)
            elif name == "lock.release":
                self._on_release(args.get("root"), args.get("objects", ()))
        elif category == "txn" and event.get("phase") == "X":
            self._on_txn_end(index, ts, args)
        elif name.startswith("fault.crash_abort"):
            self._purge_family(args.get("root"))

    # ------------------------------------------------------------------
    # Grant judgement (the heart of the model)
    # ------------------------------------------------------------------

    def _on_grant(self, index: int, ts: float, args: Dict,
                  mode: Optional[str]) -> None:
        txn = parse_txn(args["txn"])
        obj = parse_object(args["object"])
        ancestors = set(lineage_of(args))
        holds = self._holds.setdefault(obj, {})
        retains = self._retains.setdefault(obj, {})
        mode = mode or "W"
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
                    f"{txn!r} upgraded {self._oname(obj)} {held}->{joined} "
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
                    f"{txn!r} granted {self._oname(obj)} ({mode}) while "
                    f"ancestor {holder!r} holds it ({holder_mode}) — "
                    f"§3.4 precludes recursive invocation",
                ))
            elif self._conflicts.conflict(holder_mode, mode):
                self.violations.append(Violation(
                    "reference.conflict", index, ts,
                    f"{txn!r} granted {self._oname(obj)} ({mode}) while "
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
                f"{txn!r} granted {self._oname(obj)} ({mode}) while "
                f"{retainer!r} retains it ({retained_mode}) and is not "
                f"an ancestor of the requester",
            ))
        holds[txn] = mode

    def _on_prefetch(self, index: int, ts: float, args: Dict) -> None:
        # A granted prefetch is a grant immediately demoted to retained
        # (repro.txn.locks.try_prefetch): judge it like any grant, then
        # record the retention instead of a hold.
        txn = parse_txn(args["txn"])
        obj = parse_object(args["object"])
        mode = args.get("mode") or "W"
        self._on_grant(index, ts, args, mode)
        holds = self._holds.setdefault(obj, {})
        retains = self._retains.setdefault(obj, {})
        holds.pop(txn, None)
        existing = retains.get(txn)
        retains[txn] = mode if existing is None else join_mode_strings(
            existing, mode
        )

    # ------------------------------------------------------------------
    # Inheritance and release
    # ------------------------------------------------------------------

    def _on_inherit(self, index: int, ts: float, args: Dict) -> None:
        txn = parse_txn(args["txn"])
        parent = parse_txn(args["parent"])
        for name in args.get("objects", ()):
            obj = parse_object(name)
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
                    f"{parent!r} inherited {self._oname(obj)} from "
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

    def _on_release(self, root: Optional[int], objects) -> None:
        # Global release of a family on the listed objects.  Removing a
        # family that is already gone is a no-op by design: after a
        # crash, the directory reclaimed the entries before the root's
        # own abort release ran.
        if root is None:
            return
        for name in objects:
            obj = parse_object(name)
            self._drop_family(self._holds.get(obj, {}), root)
            self._drop_family(self._retains.get(obj, {}), root)

    def _on_txn_end(self, index: int, ts: float, args: Dict) -> None:
        txn = parse_txn(args["txn"])
        outcome = args.get("outcome")
        if txn.is_root:
            # Algorithm 4.4: by the time the root's span closes, its
            # release processing has run — the family must be gone.
            leaked = sorted(
                self._oname(obj)
                for obj, table in self._holds.items()
                for holder in table
                if holder.root == txn.root
            ) + sorted(
                self._oname(obj)
                for obj, table in self._retains.items()
                for retainer in table
                if retainer.root == txn.root
            )
            if leaked:
                self.violations.append(Violation(
                    "reference.release", index, ts,
                    f"family of {txn!r} ended ({outcome}) still "
                    f"holding/retaining {leaked}",
                ))
            self._purge_family(txn.root)
            return
        if outcome == "abort":
            # Sub abort (Algorithm 4.3 last case): the sub's own locks
            # vanish; ancestor retention is untouched.
            for table in self._holds.values():
                table.pop(txn, None)
            for table in self._retains.values():
                table.pop(txn, None)
            return
        if outcome == "commit":
            # Pre-commit ran before this span closed: a sub must have
            # moved everything to its parent (lock.inherit).
            stuck = sorted(
                self._oname(obj)
                for obj, table in self._holds.items()
                if txn in table
            ) + sorted(
                self._oname(obj)
                for obj, table in self._retains.items()
                if txn in table
            )
            if stuck:
                self.violations.append(Violation(
                    "reference.inherit", index, ts,
                    f"sub-transaction {txn!r} committed without "
                    f"releasing {stuck} to its parent "
                    f"(lock retention skipped?)",
                ))
                for table in self._holds.values():
                    table.pop(txn, None)
                for table in self._retains.values():
                    table.pop(txn, None)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _oname(obj: int) -> str:
        return f"O{obj}"

    @staticmethod
    def _drop_family(table: Dict[TxnRef, str], root: int) -> None:
        for ref in [ref for ref in table if ref.root == root]:
            del table[ref]

    def _purge_family(self, root: Optional[int]) -> None:
        if root is None:
            return
        for table in self._holds.values():
            self._drop_family(table, root)
        for table in self._retains.values():
            self._drop_family(table, root)

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
