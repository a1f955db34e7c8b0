"""The consistency-protocol interface shared by COTEC/OTEC/LOTEC/RC.

A protocol is consulted at exactly three points:

1. **Global lock acquisition** (:meth:`acquire_transfer`): the grant
   message delivered the object's page map; the protocol decides which
   pages to gather to the acquiring site before the method body runs.
2. **Stale access** (:meth:`on_stale_access`): a method touched a page
   whose local copy is out of date.  LOTEC repairs this with a demand
   fetch; for the exhaustive-transfer protocols it is an invariant
   violation.
3. **Root commit** (:meth:`on_root_commit`): after the page map has
   been updated and locks released.  Release Consistency pushes
   updates to the other caching sites here; the lazy protocols do
   nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.analysis.prediction import AccessPrediction, PredictionStats
from repro.core.transfer import PAGE_GRAIN, demand_fetch, gather_pages
from repro.net.transport import Transport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectMeta
from repro.obs.tracer import NULL_TRACER
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId


class ConsistencyProtocol:
    """Base class wiring the shared gather machinery; subclasses choose
    the page-selection policy via :meth:`select_pages`."""

    name = "abstract"

    def __init__(self, env, network: Transport, sizes: SizeModel,
                 stores: Dict[NodeId, object], grain: str = PAGE_GRAIN,
                 tracer=None):
        self.env = env
        self.network = network
        self.sizes = sizes
        self.stores = stores
        self.grain = grain
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.prediction_stats = PredictionStats()

    # -- policy hook --------------------------------------------------------

    def select_pages(self, meta: ObjectMeta, page_map,
                     local_versions: Dict[int, int],
                     prediction: AccessPrediction) -> Set[int]:
        """Pages to move to the acquiring site; overridden per protocol."""
        raise NotImplementedError

    @staticmethod
    def stale_pages(page_map, local_versions: Dict[int, int]) -> Set[int]:
        """Pages whose local copy is older than the map's latest."""
        return {
            page
            for page, entry in page_map.items()
            if local_versions.get(page, 0) < entry.version
        }

    # -- acquisition --------------------------------------------------------

    def acquire_transfer(self, txn, meta: ObjectMeta, page_map,
                         prediction: AccessPrediction):
        """Simulation process run right after a global lock grant;
        returns the pages shipped.  Algorithm 4.5 gathers only "IF the
        most up-to-date page is not resident here"."""
        node = txn.node
        # The live tags, not a copy: selection is synchronous, done
        # before the gather yields.
        local_versions = self.stores[node].register_object(
            meta.object_id, meta.layout).page_versions
        wanted = self.select_pages(meta, page_map, local_versions, prediction)
        stats = self.prediction_stats
        stats.acquisitions += 1
        stats.predicted_pages += len(prediction.pages)
        shipped = []
        for page in wanted:
            if page_map[page].owner != node:
                shipped = yield from gather_pages(
                    self.env, self.network, self.sizes, self.stores,
                    node, meta, page_map, wanted, grain=self.grain,
                    cause="acquire",
                )
                break
        stats.transferred_pages += len(shipped)
        if self.tracer.enabled:  # the page lists are sorted for the trace
            self.tracer.prediction(
                node, meta.object_id, sorted(prediction.pages),
                sorted(wanted), sorted(shipped),
            )
        return shipped

    # -- stale access -------------------------------------------------------

    def on_stale_access(self, txn, meta: ObjectMeta, page_map,
                        pages: Iterable[int], is_write: bool) -> float:
        """Handle an access to stale pages; returns deferred delay.

        Default: exhaustive-transfer protocols must never see one.
        """
        raise ProtocolError(
            f"{self.name}: transaction {txn.id!r} accessed stale pages "
            f"{sorted(pages)} of {meta.object_id!r} at {txn.node!r} — the "
            f"acquisition transfer should have made them current"
        )

    # -- commit --------------------------------------------------------------

    def on_root_commit(self, root, dirty: Dict, metas) -> None:
        """Hook after root commit; lazy protocols do nothing.

        Non-generator on purpose: eager pushes are fire-and-forget
        (charged immediately, delivered asynchronously).
        """

    def snapshot(self) -> Dict[str, object]:
        stats = self.prediction_stats
        return {
            "protocol": self.name,
            "acquisitions": stats.acquisitions,
            "predicted_pages": stats.predicted_pages,
            "transferred_pages": stats.transferred_pages,
            "demand_fetches": stats.demand_fetches,
            "write_misses": stats.write_misses,
            "over_predicted_pages": stats.over_predicted_pages,
        }


class _DemandFetchMixin:
    """Shared demand-fetch repair used by LOTEC (and RC's cold start)."""

    def _demand_fetch(self, txn, meta: ObjectMeta, page_map,
                      pages: Iterable[int], is_write: bool) -> float:
        delay, shipped = demand_fetch(
            self.network, self.sizes, self.stores,
            txn.node, meta, page_map, pages, grain=self.grain,
            is_write=is_write,
        )
        self.prediction_stats.demand_fetches += len(shipped)
        if is_write:
            self.prediction_stats.write_misses += len(shipped)
        return delay
