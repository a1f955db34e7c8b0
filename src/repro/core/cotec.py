"""COTEC: Conservative Object Transactional Entry Consistency.

"COTEC transfers all of an object's pages to the acquiring site after
a successful lock acquisition and provides a baseline for performance
measurement" (§5).  COTEC keeps no per-page version knowledge: it
ships every page whose latest copy is on some other node, whether or
not the acquiring site's copy happens to be current — full object
shipping, the behaviour of a naive distributed object system.

COTEC objects usually live whole at one owner, so its gathers are
single-source: one wire pair per acquisition, complete when the real
``PAGE_DATA`` delivery lands.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.prediction import AccessPrediction
from repro.core.protocol import ConsistencyProtocol
from repro.objects.registry import ObjectMeta


class COTEC(ConsistencyProtocol):
    name = "cotec"

    def select_pages(self, meta: ObjectMeta, page_map,
                     local_versions: Dict[int, int],
                     prediction: AccessPrediction) -> Set[int]:
        # Every page; gather_pages drops the ones already owned here.
        # COTEC ships a page even when the local copy is up to date
        # (it tracks object location, not page versions) — except, of
        # course, pages whose authoritative copy is local.
        return set(page_map)
