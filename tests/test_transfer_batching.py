"""Per-owner request coalescing: one multi-object gather pays the
software startup cost once per owner, and batching changes message
counts and timing only — never which pages move or what they hold."""

import pytest

from repro.analysis.prediction import AccessPrediction
from repro.core import make_protocol
from repro.core.transfer import GatherTarget, gather_many
from repro.gdo.entry import PageMapEntry
from repro.memory.layout import AttributeSpec, ObjectLayout
from repro.memory.store import NodeStore
from repro.net.message import MessageCategory
from repro.net.network import NetworkConfig, SimTransport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectMeta
from repro.objects.schema import ClassSchema
from repro.obs.tracer import Tracer
from repro.sim import Environment
from repro.util.ids import NodeId, ObjectId

from conftest import Counter, Orchestrator, make_cluster

N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)

LAYOUT = ObjectLayout(
    [AttributeSpec("a", 90), AttributeSpec("b", 90), AttributeSpec("c", 90)],
    page_size=100,
)


def _meta(object_id, home):
    schema = ClassSchema("T", LAYOUT.attributes, methods={"m": None})
    return ObjectMeta(object_id=object_id, schema=schema, layout=LAYOUT,
                      home_node=home, creator_node=home)


def page_map(owners, versions):
    return {
        page: PageMapEntry(owner=owner, version=version)
        for page, (owner, version) in enumerate(zip(owners, versions))
    }


class TestGatherManyBatching:
    """Unit-level: two whole objects owned by one node, gathered to N0."""

    def make_world(self):
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        network = SimTransport(env, NetworkConfig(bandwidth_bps=100e6,
                                                  software_cost_s=1e-5),
                               tracer=tracer)
        sizes = SizeModel(page_bytes=100)
        stores = {node: NodeStore(node) for node in (N0, N1)}
        metas = []
        for raw in (1, 2):
            object_id = ObjectId(raw)
            stores[N1].create_object(object_id, LAYOUT)
            stores[N0].register_object(object_id, LAYOUT)
            metas.append(_meta(object_id, N1))
        return env, network, sizes, stores, metas

    def gather(self, env, network, sizes, stores, metas, batch):
        targets = [
            GatherTarget(meta=meta,
                         page_map=page_map([N1, N1, N1], [1, 1, 1]),
                         pages=(0, 1, 2))
            for meta in metas
        ]

        def proc():
            shipped = yield from gather_many(
                env, network, sizes, stores, N0, targets, batch=batch,
            )
            return shipped

        return env.run_process(proc())

    def test_common_owner_coalesces_to_one_wire_pair(self):
        env, network, sizes, stores, metas = self.make_world()
        shipped = self.gather(env, network, sizes, stores, metas, batch=True)
        assert shipped == {ObjectId(1): [0, 1, 2], ObjectId(2): [0, 1, 2]}
        stats = network.stats
        assert stats.total_messages == 2
        assert stats.by_category_messages[MessageCategory.PAGE_REQUEST] == 1
        assert stats.by_category_messages[MessageCategory.PAGE_DATA] == 1
        # Batched sizing: one header plus a per-object manifest entry,
        # instead of one full header per object.
        assert stats.by_category_bytes[MessageCategory.PAGE_REQUEST] == \
            sizes.header_bytes + 2 * sizes.request_entry(3)
        assert stats.by_category_bytes[MessageCategory.PAGE_DATA] == \
            sizes.header_bytes + 2 * sizes.data_entry(3)
        # The two messages saved (one request + one response) land in
        # the batching counter, and the batch is a trace event.
        counters = network.tracer.metrics.snapshot()["counters"]
        assert sum(
            counters["transfer.messages_saved_by_batching"].values()
        ) == 2
        batches = [event for event in network.tracer.events
                   if event.name == "transfer.batch"]
        assert len(batches) == 1
        assert batches[0].args["objects"] == ["O1", "O2"]
        assert batches[0].args["saved_messages"] == 2

    def test_unbatched_pays_one_pair_per_object(self):
        env, network, sizes, stores, metas = self.make_world()
        shipped = self.gather(env, network, sizes, stores, metas, batch=False)
        assert shipped == {ObjectId(1): [0, 1, 2], ObjectId(2): [0, 1, 2]}
        stats = network.stats
        assert stats.total_messages == 4
        assert stats.by_category_messages[MessageCategory.PAGE_REQUEST] == 2
        # Legacy wire format, byte-identical to the classic pair.
        assert stats.by_category_bytes[MessageCategory.PAGE_REQUEST] == \
            2 * sizes.page_request(3)
        assert stats.by_category_bytes[MessageCategory.PAGE_DATA] == \
            2 * sizes.page_data(3)

    def test_per_object_attribution_covers_batched_bytes(self):
        env, network, sizes, stores, metas = self.make_world()
        self.gather(env, network, sizes, stores, metas, batch=True)
        stats = network.stats
        attributed = sum(stats.object_bytes(meta.object_id)
                         for meta in metas)
        assert attributed == stats.total_bytes

    def test_both_modes_install_identical_pages(self):
        batched = self.make_world()
        unbatched = self.make_world()
        self.gather(*batched, batch=True)
        self.gather(*unbatched, batch=False)
        for world in (batched, unbatched):
            stores = world[3]
            for raw in (1, 2):
                assert stores[N0].resident_pages(ObjectId(raw)) == \
                    stores[N1].resident_pages(ObjectId(raw))


class TestClusterBatching:
    """A multi-object prefetch whose targets share an owner must emit
    exactly one PAGE_REQUEST/PAGE_DATA pair (the acceptance bar)."""

    def run_fanout(self, batch):
        cluster = make_cluster(protocol="lotec", seed=3, trace=True,
                               prefetch="locks+pages",
                               batch_transfers=batch)
        counters = [cluster.create(Counter, node=cluster.nodes[1])
                    for _ in range(2)]
        orchestrator = cluster.create(Orchestrator, node=cluster.nodes[0])
        cluster.call(orchestrator, "fanout", tuple(counters), 1,
                     node=cluster.nodes[0])
        for counter in counters:
            assert cluster.read_attr(counter, "value") == 1
        return cluster

    def test_common_owner_prefetch_emits_exactly_one_pair(self):
        cluster = self.run_fanout(batch=True)
        by_category = cluster.network.stats.by_category_messages
        assert by_category[MessageCategory.PAGE_REQUEST] == 1
        assert by_category[MessageCategory.PAGE_DATA] == 1
        counters = cluster.metrics.snapshot()["counters"]
        assert sum(
            counters["transfer.messages_saved_by_batching"].values()
        ) == 2

    def test_unbatched_prefetch_pays_one_pair_per_object(self):
        cluster = self.run_fanout(batch=False)
        by_category = cluster.network.stats.by_category_messages
        assert by_category[MessageCategory.PAGE_REQUEST] == 2
        assert by_category[MessageCategory.PAGE_DATA] == 2
        counters = cluster.metrics.snapshot()["counters"]
        assert "transfer.messages_saved_by_batching" not in counters


class TestBatchingProperty:
    """Batched and unbatched gathers move identical page sets into
    identical stores; only timing and message counts may differ.
    Swept across both transfer grains and all four protocols."""

    OBJECTS = {
        # object id -> (page owners, page-map versions, value of "a")
        1: ((N1, N1, N1), (2, 2, 2), 11),
        2: ((N1, N1, N1), (3, 3, 3), 22),
        3: ((N2, N2, N2), (2, 2, 2), 33),
        4: ((N1, N1, N2), (2, 2, 4), 44),
    }

    def make_world(self):
        env = Environment()
        network = SimTransport(env, NetworkConfig(bandwidth_bps=100e6,
                                                  software_cost_s=1e-5))
        sizes = SizeModel(page_bytes=100)
        stores = {node: NodeStore(node) for node in (N0, N1, N2)}
        metas = {}
        for raw, (owners, versions, value) in self.OBJECTS.items():
            object_id = ObjectId(raw)
            stores[N0].create_object(object_id, LAYOUT)
            for node in (N1, N2):
                stores[node].register_object(object_id, LAYOUT)
            for page, (owner, version) in enumerate(zip(owners, versions)):
                stores[owner].install_pages(
                    object_id, stores[N0].extract_pages(object_id, [page]))
                stores[owner].set_page_version(object_id, page, version)
            # Distinct payload on page 0 at its owner, so content (not
            # just version numbers) must survive the transfer.
            stores[owners[0]].write_slot(object_id, ("a", 0), value)
            metas[raw] = _meta(object_id, owners[0])
        return env, network, sizes, stores, metas

    def run_gather(self, protocol_name, grain, batch):
        env, network, sizes, stores, metas = self.make_world()
        protocol = make_protocol(protocol_name, env=env, network=network,
                                 sizes=sizes, stores=stores)
        prediction = AccessPrediction(
            read_pages=frozenset(LAYOUT.all_pages()), write_pages=frozenset())
        targets = []
        for raw, (owners, versions, _value) in sorted(self.OBJECTS.items()):
            object_id = ObjectId(raw)
            mapping = page_map(owners, versions)
            local = {
                page: stores[N0].page_version(object_id, page)
                for page in stores[N0].resident_pages(object_id)
            }
            wanted = protocol.select_pages(metas[raw], mapping, local,
                                           prediction)
            targets.append(GatherTarget(meta=metas[raw], page_map=mapping,
                                        pages=tuple(sorted(wanted))))

        def proc():
            shipped = yield from gather_many(
                env, network, sizes, stores, N0, targets,
                grain=grain, batch=batch,
            )
            return shipped

        shipped = env.run_process(proc())
        return shipped, network.stats, stores

    @pytest.mark.parametrize("protocol", ["cotec", "otec", "lotec", "rc"])
    @pytest.mark.parametrize("grain", ["page", "object"])
    def test_batched_equals_unbatched_modulo_messages(self, protocol, grain):
        batched, batched_stats, batched_stores = \
            self.run_gather(protocol, grain, batch=True)
        unbatched, unbatched_stats, unbatched_stores = \
            self.run_gather(protocol, grain, batch=False)
        # Identical page sets shipped...
        assert batched == unbatched
        # ...into identical stores: same resident versions everywhere,
        # same payload bytes at the acquiring node.
        for raw, (_owners, _versions, value) in self.OBJECTS.items():
            object_id = ObjectId(raw)
            for node in (N0, N1, N2):
                assert batched_stores[node].resident_pages(object_id) == \
                    unbatched_stores[node].resident_pages(object_id)
            assert batched_stores[N0].read_slot(object_id, ("a", 0)) == \
                unbatched_stores[N0].read_slot(object_id, ("a", 0)) == value
        # Only message counts may differ — and only downward.
        assert batched_stats.by_category_messages[
            MessageCategory.PAGE_REQUEST
        ] <= unbatched_stats.by_category_messages[
            MessageCategory.PAGE_REQUEST
        ]
        assert batched_stats.total_messages <= unbatched_stats.total_messages
