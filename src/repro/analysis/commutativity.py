"""Per-class method commutativity tables (ROADMAP item 3).

Following *Automating Fine Concurrency Control in Object-Oriented
Databases* (Malta & Martinez), commutativity of two method invocations
on the same object is decided from their compile-time access sets:

* two updates commute iff every attribute both write is a *blind
  increment* in both (``+=``/``-=`` only, never observed — see
  :mod:`repro.analysis.ast_analysis`) and all their other accesses are
  page-disjoint;
* a read/write pair commutes iff the reader's page set is disjoint
  from everything the writer touches (a reader of an incremented slot
  observes intermediate sums, so increment pages count as touched).

The decision is page-granular because locks protect page transfers:
two methods whose *attributes* differ but share a page still move the
same bytes, so they must not run concurrently unless the shared page
carries only blind increments on both sides.

Trust tiers — the conservative R/W fallback of footnote 4:

1. **Analyzed exactly, no overrides** (``access == analyzed`` and the
   AST analysis completed): full rules, including increments.
2. **Declared overrides** (``@method(reads=..., writes=...)`` narrowed
   the sets): the declaration is trusted for page-disjointness only;
   increment commutativity needs the body, which the override bypassed.
3. **Inconclusive analysis** (dynamic attribute access, unavailable
   source) with no overrides: the method gets **no** semantic mode and
   falls back to the plain R/W lattice.

Tables are deterministic: construction iterates methods in sorted name
order and the artifact form (:meth:`CommutativityTable.to_trace`) is
fully sorted, so repeated builds over the same schema are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.analysis.invocations import invocation_names

#: Trust tiers recorded per method (see module docstring).
TRUST_ANALYZED = "analyzed"
TRUST_DECLARED = "declared"
TRUST_FALLBACK = "fallback"


@dataclass(frozen=True)
class MethodSummary:
    """One method's commutativity-relevant footprint on its object."""

    name: str
    base: str  # "R" or "W" — the plain lattice the mode degrades to
    trust: str  # TRUST_ANALYZED / TRUST_DECLARED / TRUST_FALLBACK
    #: Pages the method observes (reads) or plainly writes; any overlap
    #: with another method's written pages is a conflict.
    observed_pages: FrozenSet[int]
    #: Pages written other than via blind increments.
    plain_write_pages: FrozenSet[int]
    #: Attributes updated only as blind increments (numeric scalars).
    increment_attrs: FrozenSet[str]
    increment_pages: FrozenSet[int]
    #: Sub-transaction invocations the method may make (artifact only).
    invokes: Tuple[str, ...] = ()

    @property
    def semantic(self) -> bool:
        """Eligible for a semantic lock mode (not the R/W fallback)."""
        return self.trust != TRUST_FALLBACK

    @property
    def written_pages(self) -> FrozenSet[int]:
        return self.plain_write_pages | self.increment_pages


def _pair_commutes(a: MethodSummary, b: MethodSummary) -> bool:
    if not (a.semantic and b.semantic):
        return False
    # Neither may observe (or plainly write) anything the other writes;
    # the only overlap this leaves is increment-page vs increment-page,
    # which merges commutatively.
    if a.observed_pages & b.written_pages:
        return False
    if b.observed_pages & a.written_pages:
        return False
    return True


class CommutativityTable:
    """Symmetric commutes-with relation over one class's methods."""

    def __init__(self, class_name: str,
                 methods: Dict[str, MethodSummary]) -> None:
        self.class_name = class_name
        self.methods = methods
        self._commutes: Dict[Tuple[str, str], bool] = {}
        names = sorted(methods)
        for left in names:
            for right in names:
                self._commutes[(left, right)] = _pair_commutes(
                    methods[left], methods[right]
                )

    def commutes(self, left: str, right: str) -> bool:
        """Do invocations of ``left`` and ``right`` commute?

        Unknown method names never commute (conservative)."""
        return self._commutes.get((left, right), False)

    def summary(self, name: str) -> MethodSummary:
        return self.methods[name]

    def commuting_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """Sorted (left, right) pairs with left <= right that commute."""
        return tuple(
            (left, right)
            for (left, right), ok in sorted(self._commutes.items())
            if ok and left <= right
        )

    def to_trace(self) -> dict:
        """Serializable artifact for the ``lock.commtable`` trace event.

        The post-hoc checkers rebuild their conflict relation from
        exactly this payload, so it must carry everything they judge
        by: per-method base mode and eligibility, plus the honest
        commuting pairs."""
        return {
            "class": self.class_name,
            "methods": {
                name: {
                    "base": summary.base,
                    "semantic": summary.semantic,
                    "trust": summary.trust,
                    "increments": sorted(summary.increment_attrs),
                    "invokes": list(summary.invokes),
                }
                for name, summary in sorted(self.methods.items())
            },
            "commutes": [list(pair) for pair in self.commuting_pairs()],
        }

    def __repr__(self) -> str:
        pairs = len(self.commuting_pairs())
        return (f"<CommutativityTable {self.class_name} "
                f"{len(self.methods)} methods, {pairs} commuting pairs>")


def _increment_eligible(layout, attr: str) -> bool:
    """Blind increments merge only on scalar numeric attributes."""
    spec = layout.attribute(attr)
    if spec.is_array:
        return False
    default = spec.default
    return isinstance(default, (int, float)) and not isinstance(default, bool)


def build_commutativity(schema, layout) -> CommutativityTable:
    """Build the commutativity table for one class."""
    summaries: Dict[str, MethodSummary] = {}
    for name in sorted(schema.methods):
        spec = schema.method_spec(name)
        access, analyzed = spec.access, spec.analyzed
        base = "W" if spec.is_update else "R"
        declared = (access.reads != analyzed.reads
                    or access.writes != analyzed.writes)
        if declared:
            trust = TRUST_DECLARED
        elif analyzed.exact:
            trust = TRUST_ANALYZED
        else:
            trust = TRUST_FALLBACK
        increments: FrozenSet[str] = frozenset()
        if trust == TRUST_ANALYZED:
            increments = frozenset(
                attr for attr in analyzed.increments
                if attr in access.writes and _increment_eligible(layout, attr)
            )
        plain_writes = frozenset(access.writes) - increments
        observed = (frozenset(access.reads) - increments) | plain_writes
        summaries[name] = MethodSummary(
            name=name,
            base=base,
            trust=trust,
            observed_pages=frozenset(layout.pages_for_attributes(observed)),
            plain_write_pages=frozenset(
                layout.pages_for_attributes(plain_writes)
            ),
            increment_attrs=increments,
            increment_pages=frozenset(
                layout.pages_for_attributes(increments)
            ),
            invokes=invocation_names(spec.invoked_methods),
        )
    return CommutativityTable(schema.name, summaries)
