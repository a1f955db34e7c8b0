"""LOTEC: Lazy Object Transactional Entry Consistency — the paper's
contribution.

At global acquisition LOTEC moves only the pages that are both
*updated* (stale at the acquiring site) and *predicted needed* by the
acquiring method's compile-time access analysis: "LOTEC need only
transfer those parts of an object (in this system, 'pages') which have
been updated and which are actually required" (§4.1).

Consequences implemented here:

* Pages outside the prediction stay stale; if a later method of the
  same family (or a mispredicted access) touches one, it is pulled on
  demand — "If additional parts turn out to be needed, these can be
  fetched on demand" (§4.3).
* Because only accessed parts migrate, the up-to-date pages of one
  object scatter across the nodes that last wrote them; acquisitions
  gather from several sources (Algorithm 4.5), which is why LOTEC
  sends *more, smaller* messages than OTEC/COTEC while moving fewer
  bytes — the trade-off Figures 6-8 quantify.
* Those scattered gathers complete on the actual ``PAGE_DATA``
  delivery events (see :mod:`repro.core.transfer`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.analysis.prediction import AccessPrediction
from repro.core.protocol import ConsistencyProtocol, _DemandFetchMixin
from repro.objects.registry import ObjectMeta


class LOTEC(_DemandFetchMixin, ConsistencyProtocol):
    name = "lotec"

    def select_pages(self, meta: ObjectMeta, page_map,
                     local_versions: Dict[int, int],
                     prediction: AccessPrediction) -> Set[int]:
        return self.stale_pages(page_map, local_versions) & set(prediction.pages)

    def on_stale_access(self, txn, meta: ObjectMeta, page_map,
                        pages: Iterable[int], is_write: bool) -> float:
        return self._demand_fetch(txn, meta, page_map, pages, is_write)
