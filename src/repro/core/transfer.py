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

**Event-driven completion.**  A gather waits on the *actual* delivery
events of its ``PAGE_DATA`` responses (chained through
:meth:`~repro.net.transport.Transport.send`), never on an estimated
round-trip timer.  With fault injection active, retransmissions and
jitter therefore delay page installation for free — pages cannot be
installed at a phantom time before their bytes have arrived.

There is one gather path: one object, one request/response pair per
owner.  The paper's network is switched point-to-point links that are
never shared, so pairs for different objects move in parallel;
coalescing them into one message per owner would serialise their bytes
on one link (DESIGN §9).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.net.message import Message, MessageCategory
from repro.net.transport import Transport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectMeta
from repro.sim import Event
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId

PAGE_GRAIN = "page"
OBJECT_GRAIN = "object"


def _data_size(sizes: SizeModel, meta: ObjectMeta, pages: List[int],
               grain: str) -> int:
    if grain == PAGE_GRAIN:
        return sizes.page_data(len(pages))
    if grain == OBJECT_GRAIN:
        return sizes.object_data(
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
    the returned event fires, with the response's delivery as its
    value, when that delivery fires — both straight from
    :meth:`Transport.send`, so injected drops, retransmit turnarounds,
    and jitter on either leg push the completion instant out by
    exactly the time they consumed.
    """
    done = Event(env, name="gather-roundtrip")
    succeed = done.succeed

    def relay(_event):
        # ``network.send(response).add_callback(succeed)``, in place.
        delivery = network.send(response)
        callbacks = delivery.callbacks
        if callbacks is None:
            succeed(delivery)
        elif callbacks:
            callbacks.append(succeed)
        else:
            delivery.callbacks = [succeed]

    # ``network.send(request).add_callback(relay)``, in place.
    delivery = network.send(request)
    callbacks = delivery.callbacks
    if callbacks is None:
        relay(delivery)
    elif callbacks:
        callbacks.append(relay)
    else:
        delivery.callbacks = [relay]
    return done


def gather_pages(env, network: Transport, sizes: SizeModel, stores,
                 node: NodeId, meta: ObjectMeta, page_map,
                 pages: Iterable[int], grain: str = PAGE_GRAIN,
                 cause: str = "acquire"):
    """Simulation process: gather one object's ``pages`` to ``node``;
    returns the list of pages actually shipped over the network.

    Pages whose owner is the acquiring node need no shipment.  Every
    other owner gets one request/response pair, all running
    concurrently; installation happens when the last response delivery
    event fires — never before the bytes have actually arrived.
    """
    by_owner = _plan_sources(page_map, pages)
    by_owner.pop(node, None)
    if not by_owner:
        return []
    object_id = meta.object_id
    owners = sorted(by_owner.items())
    shipped = [page for _owner, owner_pages in owners for page in owner_pages]
    tracer = network.tracer
    tracing = tracer.enabled  # trace arguments are built only when on
    if tracing:
        token = tracer.transfer_begin(node, object_id, cause, sorted(shipped))

    deliveries = []
    responses = []
    for owner, owner_pages in owners:
        request = Message(
            src=node, dst=owner,
            category=MessageCategory.PAGE_REQUEST,
            size_bytes=sizes.page_request(len(owner_pages)),
            object_id=object_id,
        )
        response = Message(
            src=owner, dst=node,
            category=MessageCategory.PAGE_DATA,
            size_bytes=_data_size(sizes, meta, owner_pages, grain),
            object_id=object_id,
        )
        deliveries.append(_send_round_trip(env, network, request, response))
        responses.append(response)

    yield env.all_of(deliveries)

    versions: Dict[int, int] = {}
    for owner, owner_pages in owners:
        versions.update(stores[owner].ship_pages(object_id, owner_pages,
                                                 stores[node]))
    if tracing:
        tracer.transfer_install(
            node, object_id, sorted(shipped), cause,
            sorted(response.deliver_time for response in responses),
            versions=versions,
        )
        tracer.transfer_end(
            token, cause, shipped,
            sum(response.size_bytes for response in responses),
        )
    return shipped


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
        versions.update(stores[owner].ship_pages(meta.object_id, owner_pages,
                                                 stores[node]))
        shipped.extend(owner_pages)
    if shipped and network.tracer.enabled:
        network.tracer.demand_fetch(
            node, meta.object_id, sorted(set(pages)), shipped, data_bytes,
            is_write, delay, versions=versions,
        )
    return delay, shipped
