"""Algorithm 4.5: TransferOfUpdatedPages.

"FOREACH object page DO: IF the most up-to-date page is not resident
here THEN add the page to a list of pages to obtain from the site at
which it is stored.  FOREACH site from which page(s) must be obtained
DO: copy the set of pages provided in the site's list from the
specified site to the acquiring site."

Under LOTEC the up-to-date parts of one object may be scattered over
several nodes, so one acquisition can gather from multiple sources;
requests to distinct sources proceed concurrently (one request/response
pair per source).  Page data may be shipped at page grain (whole
pages) or object grain (only the object's bytes on each page — the
Distributed Shared Data mode of §4.2, which is how LOTEC sidesteps
false sharing without twins or diffs).

Two refinements on top of the paper's algorithm:

* **Event-driven completion.**  A gather waits on the *actual*
  delivery events of its ``PAGE_DATA`` responses (chained through
  :meth:`~repro.net.transport.Transport.send`), never on an estimated
  round-trip timer.  With fault injection active, retransmissions and
  jitter therefore delay page installation for free — pages cannot be
  installed at a phantom time before their bytes have arrived.
* **Per-owner coalescing** (:func:`gather_many`).  When one
  acquisition wants pages of several objects whose up-to-date versions
  live at the same owner node, the requests are batched into a single
  multi-object ``PAGE_REQUEST``/``PAGE_DATA`` pair carrying a
  :class:`~repro.net.message.ManifestEntry` per object — the software
  startup cost and protocol header are paid once per owner instead of
  once per object.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.net.message import ManifestEntry, Message, MessageCategory
from repro.net.transport import Transport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectMeta
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId, ObjectId

PAGE_GRAIN = "page"
OBJECT_GRAIN = "object"


@dataclass(frozen=True)
class GatherTarget:
    """One object's wanted pages inside a (possibly multi-object) gather."""

    meta: ObjectMeta
    page_map: Mapping
    pages: Tuple[int, ...]


def _data_size(sizes: SizeModel, meta: ObjectMeta, pages: List[int],
               grain: str) -> int:
    if grain == PAGE_GRAIN:
        return sizes.page_data(len(pages))
    if grain == OBJECT_GRAIN:
        return sizes.object_data(
            sum(meta.layout.object_bytes_on_page(page) for page in pages)
        )
    raise ConfigurationError(f"unknown transfer grain {grain!r}")


def _entry_data_size(sizes: SizeModel, meta: ObjectMeta, pages: List[int],
                     grain: str) -> int:
    """One object's payload share of a batched PAGE_DATA message."""
    if grain == PAGE_GRAIN:
        return sizes.data_entry(len(pages))
    if grain == OBJECT_GRAIN:
        return sizes.object_data_entry(
            sum(meta.layout.object_bytes_on_page(page) for page in pages)
        )
    raise ConfigurationError(f"unknown transfer grain {grain!r}")


def _plan_sources(page_map, pages: Iterable[int]) -> Dict[NodeId, List[int]]:
    """Group wanted pages by the node owning their latest version."""
    by_owner: Dict[NodeId, List[int]] = defaultdict(list)
    for page in sorted(set(pages)):
        by_owner[page_map[page].owner].append(page)
    return by_owner


def _send_round_trip(env, network: Transport, request: Message,
                     response: Message):
    """Event firing when the *real* response delivery lands.

    The response departs when the request's delivery event fires and
    the returned event fires when the response's delivery event fires —
    both straight from :meth:`Transport.send`, so injected drops,
    retransmit turnarounds, and jitter on either leg push the
    completion instant out by exactly the time they consumed.
    """
    done = env.event(name="gather-roundtrip")

    def relay(_event, resp=response):
        network.send(resp).add_callback(
            lambda event: done.succeed(event.value)
        )

    network.send(request).add_callback(relay)
    return done


def gather_many(env, network: Transport, sizes: SizeModel, stores,
                node: NodeId, targets: Sequence[GatherTarget],
                grain: str = PAGE_GRAIN, cause: str = "acquire",
                batch: bool = True) -> Dict[ObjectId, List[int]]:
    """Simulation process: gather several objects' pages to ``node``.

    Returns ``{object id: pages actually shipped}``.  Pages whose owner
    is the acquiring node need no shipment.  All owner round trips run
    concurrently; installation happens when the last response delivery
    event fires — never before the bytes have actually arrived.

    With ``batch`` enabled, entries bound for the same owner coalesce
    into one multi-object ``PAGE_REQUEST``/``PAGE_DATA`` pair (paying
    the protocol header and software startup cost once); otherwise —
    and always for single-object-per-owner gathers — the wire format
    is byte-identical to the classic per-object pair.
    """
    tracer = network.tracer
    tracing = tracer.enabled  # trace arguments are built only when on
    shipped: Dict[ObjectId, List[int]] = {
        target.meta.object_id: [] for target in targets
    }
    owner_lists: Dict[NodeId, List[Tuple[ObjectMeta, List[int]]]] = {}
    for target in targets:
        by_owner = _plan_sources(target.page_map, target.pages)
        by_owner.pop(node, None)
        for owner, pages in sorted(by_owner.items()):
            owner_lists.setdefault(owner, []).append((target.meta, pages))
    if not owner_lists:
        return shipped

    # One gather span per object that needs remote pages.
    requested: Dict[ObjectId, List[int]] = {}
    if tracing:
        for entries in owner_lists.values():
            for meta, pages in entries:
                requested.setdefault(meta.object_id, []).extend(pages)
    tokens = {
        object_id: tracer.transfer_begin(node, object_id, cause,
                                         sorted(pages))
        for object_id, pages in requested.items()
    }

    deliveries = []
    responses_by_object: Dict[ObjectId, List[Message]] = defaultdict(list)
    data_bytes: Dict[ObjectId, int] = defaultdict(int)
    for owner, entries in sorted(owner_lists.items()):
        entries.sort(key=lambda pair: pair[0].object_id)
        if batch and len(entries) > 1:
            request_manifest = tuple(
                ManifestEntry(meta.object_id, tuple(pages),
                              sizes.request_entry(len(pages)))
                for meta, pages in entries
            )
            data_manifest = tuple(
                ManifestEntry(meta.object_id, tuple(pages),
                              _entry_data_size(sizes, meta, pages, grain))
                for meta, pages in entries
            )
            request = Message(
                src=node, dst=owner,
                category=MessageCategory.PAGE_REQUEST,
                size_bytes=sizes.header_bytes + sum(
                    entry.size_bytes for entry in request_manifest
                ),
                manifest=request_manifest,
            )
            response = Message(
                src=owner, dst=node,
                category=MessageCategory.PAGE_DATA,
                size_bytes=sizes.header_bytes + sum(
                    entry.size_bytes for entry in data_manifest
                ),
                manifest=data_manifest,
            )
            # Unbatched, these entries would have cost one
            # request/response pair *each*.
            saved = 2 * (len(entries) - 1)
            tracer.transfer_batch(
                node, owner, [meta.object_id for meta, _ in entries],
                request.size_bytes, response.size_bytes, saved,
            )
            pairs = [(request, response)]
        else:
            pairs = []
            for meta, pages in entries:
                pairs.append((
                    Message(
                        src=node, dst=owner,
                        category=MessageCategory.PAGE_REQUEST,
                        size_bytes=sizes.page_request(len(pages)),
                        object_id=meta.object_id,
                    ),
                    Message(
                        src=owner, dst=node,
                        category=MessageCategory.PAGE_DATA,
                        size_bytes=_data_size(sizes, meta, pages, grain),
                        object_id=meta.object_id,
                    ),
                ))
        for request, response in pairs:
            deliveries.append(_send_round_trip(env, network, request,
                                               response))
            if tracing:
                for object_id, share in response.attributions():
                    responses_by_object[object_id].append(response)
                    data_bytes[object_id] += share
        for meta, pages in entries:
            shipped[meta.object_id].extend(pages)

    yield env.all_of(deliveries)

    installed_versions: Dict[ObjectId, Dict[int, int]] = defaultdict(dict)
    for owner, entries in sorted(owner_lists.items()):
        for meta, pages in entries:
            copies = stores[owner].extract_pages(meta.object_id, pages)
            stores[node].install_pages(meta.object_id, copies)
            if tracing:
                for copy in copies:
                    installed_versions[meta.object_id][copy.page] = copy.version
    for object_id in requested:
        tracer.transfer_install(
            node, object_id, sorted(shipped[object_id]), cause,
            sorted(response.deliver_time
                   for response in responses_by_object[object_id]),
            versions=installed_versions[object_id],
        )
        tracer.transfer_end(tokens[object_id], cause, shipped[object_id],
                            data_bytes[object_id])
    return shipped


def gather_pages(env, network: Transport, sizes: SizeModel, stores,
                 node: NodeId, meta: ObjectMeta, page_map,
                 pages: Iterable[int], grain: str = PAGE_GRAIN,
                 cause: str = "acquire"):
    """Simulation process: gather one object's ``pages`` to ``node``;
    returns the list of pages actually shipped over the network.

    Single-object front end to :func:`gather_many` — one wire
    request/response pair per source owner, completion driven by the
    real response delivery events.
    """
    shipped = yield from gather_many(
        env, network, sizes, stores, node,
        [GatherTarget(meta=meta, page_map=page_map,
                      pages=tuple(sorted(set(pages))))],
        grain=grain, cause=cause, batch=False,
    )
    return shipped[meta.object_id]


def demand_fetch(network: Transport, sizes: SizeModel, stores,
                 node: NodeId, meta: ObjectMeta, page_map,
                 pages: Iterable[int], grain: str = PAGE_GRAIN,
                 is_write: bool = False) -> Tuple[float, List[int]]:
    """Synchronous gather used from inside running method bodies.

    Moves the data immediately (safe: the object's lock is held, so the
    sources are quiescent) and returns ``(deferred delay, shipped
    pages)`` — the delay is charged to the transaction at its next
    suspension point.  ``is_write`` only annotates the trace event.
    """
    by_owner = _plan_sources(page_map, pages)
    by_owner.pop(node, None)
    delay = 0.0
    shipped: List[int] = []
    data_bytes = 0
    versions: Dict[int, int] = {}
    for owner, owner_pages in sorted(by_owner.items()):
        request = Message(
            src=node, dst=owner,
            category=MessageCategory.PAGE_REQUEST,
            size_bytes=sizes.page_request(len(owner_pages)),
            object_id=meta.object_id,
        )
        response = Message(
            src=owner, dst=node,
            category=MessageCategory.PAGE_DATA,
            size_bytes=_data_size(sizes, meta, owner_pages, grain),
            object_id=meta.object_id,
        )
        delay += network.charge(request)
        delay += network.charge(response)
        data_bytes += response.size_bytes
        copies = stores[owner].extract_pages(meta.object_id, owner_pages)
        stores[node].install_pages(meta.object_id, copies)
        if network.tracer.enabled:
            for copy in copies:
                versions[copy.page] = copy.version
        shipped.extend(owner_pages)
    if shipped and network.tracer.enabled:
        network.tracer.demand_fetch(
            node, meta.object_id, sorted(set(pages)), shipped, data_bytes,
            is_write, delay, versions=versions,
        )
    return delay, shipped
