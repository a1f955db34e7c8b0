"""Mapping analyzed attribute sets to predicted page sets.

This is LOTEC's key input: at global lock acquisition the acquiring
site asks "of the pages that are stale here, which will this method
actually need?" and transfers only those (§4.1).  The prediction must
be conservative for *writes* (a page that will be dirtied must be
current before the write) while read under-prediction is tolerable —
it is repaired by the demand-fetch path at some extra message cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.analysis.ast_analysis import ALL_ATTRIBUTES, AccessSets
from repro.memory.layout import ObjectLayout


@dataclass(frozen=True)
class AccessPrediction:
    """Predicted page footprint of one method on one layout."""

    __slots__ = ("read_pages", "write_pages")
    read_pages: FrozenSet[int]
    write_pages: FrozenSet[int]

    @property
    def pages(self) -> FrozenSet[int]:
        """All pages the method is predicted to touch."""
        return self.read_pages | self.write_pages

    @property
    def is_update(self) -> bool:
        """True when the method may write (drives W vs R lock mode)."""
        return bool(self.write_pages)


def predict(access: AccessSets, layout: ObjectLayout) -> AccessPrediction:
    """Turn attribute access sets into page sets for one object layout.

    A compile-time fact of *(method, layout)*: computed once, memoised
    on the layout under the two sets it depends on, then looked up."""
    key = (access.reads, access.writes)
    prediction = layout.predictions.get(key)
    if prediction is None:
        pages = [layout.all_pages() if names is ALL_ATTRIBUTES
                 else layout.pages_for_attributes(names) for names in key]
        prediction = layout.predictions[key] = AccessPrediction(*pages)
    return prediction


@dataclass
class PredictionStats:
    """Run-time accounting of how good the predictions were.

    ``demand_fetches`` counts pages that had to be pulled on access
    because the prediction missed them (possible when explicit
    annotations narrow the analyzed sets); ``over_predicted_pages``
    counts transferred pages never actually touched — the waste LOTEC
    accepts to stay conservative.
    """

    predicted_pages: int = 0
    transferred_pages: int = 0
    touched_pages: int = 0
    demand_fetches: int = 0
    write_misses: int = 0
    over_predicted_pages: int = 0
    acquisitions: int = 0

    def merge(self, other: "PredictionStats") -> None:
        self.predicted_pages += other.predicted_pages
        self.transferred_pages += other.transferred_pages
        self.touched_pages += other.touched_pages
        self.demand_fetches += other.demand_fetches
        self.write_misses += other.write_misses
        self.over_predicted_pages += other.over_predicted_pages
        self.acquisitions += other.acquisitions

    @property
    def demand_fetch_rate(self) -> float:
        """Demand fetches per global acquisition."""
        if self.acquisitions == 0:
            return 0.0
        return self.demand_fetches / self.acquisitions

    @property
    def waste_rate(self) -> float:
        """Fraction of transferred pages that were never touched."""
        if self.transferred_pages == 0:
            return 0.0
        return self.over_predicted_pages / self.transferred_pages
