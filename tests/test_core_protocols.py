"""Unit tests for protocol page-selection policies and the transfer
engine (Algorithm 4.5)."""

import pytest

from repro.analysis.prediction import AccessPrediction
from repro.core import COTEC, LOTEC, OTEC, ReleaseConsistency, make_protocol
from repro.core.transfer import demand_fetch, gather_pages
from repro.gdo.entry import PageMapEntry
from repro.memory.layout import AttributeSpec, ObjectLayout
from repro.memory.store import NodeStore
from repro.net.message import MessageCategory
from repro.net.network import NetworkConfig, SimTransport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectMeta
from repro.objects.schema import ClassSchema
from repro.sim import Environment
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId, ObjectId

N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)
OID = ObjectId(0)


def make_world():
    env = Environment()
    network = SimTransport(env, NetworkConfig(bandwidth_bps=100e6,
                                              software_cost_s=1e-5))
    sizes = SizeModel(page_bytes=100)
    layout = ObjectLayout(
        [AttributeSpec("a", 90), AttributeSpec("b", 90),
         AttributeSpec("c", 90)],
        page_size=100,
    )
    stores = {node: NodeStore(node) for node in (N0, N1, N2)}
    stores[N0].create_object(OID, layout)
    for node in (N1, N2):
        stores[node].register_object(OID, layout)
    meta = ObjectMeta(object_id=OID, schema=_schema(layout), layout=layout,
                      home_node=N0, creator_node=N0)
    return env, network, sizes, stores, meta


def _schema(layout):
    # Minimal stand-in; protocols only use object_id/layout from meta.
    return ClassSchema("T", layout.attributes, methods={"m": None})


def page_map(owners, versions):
    return {
        page: PageMapEntry(owner=owner, version=version)
        for page, (owner, version) in enumerate(zip(owners, versions))
    }


def prediction(read_pages=(), write_pages=()):
    return AccessPrediction(read_pages=frozenset(read_pages),
                            write_pages=frozenset(write_pages))


class TestSelectionPolicies:
    def setup_method(self):
        self.env, self.network, self.sizes, self.stores, self.meta = \
            make_world()

    def proto(self, cls):
        return cls(env=self.env, network=self.network, sizes=self.sizes,
                   stores=self.stores)

    def test_cotec_selects_everything(self):
        cotec = self.proto(COTEC)
        pages = cotec.select_pages(
            self.meta, page_map([N0, N1, N0], [1, 1, 1]),
            local_versions={0: 1, 1: 1, 2: 1}, prediction=prediction(),
        )
        assert pages == {0, 1, 2}

    def test_otec_selects_stale_only(self):
        otec = self.proto(OTEC)
        pages = otec.select_pages(
            self.meta, page_map([N0, N1, N0], [2, 1, 3]),
            local_versions={0: 2, 1: 1, 2: 1}, prediction=prediction(),
        )
        assert pages == {2}

    def test_lotec_intersects_with_prediction(self):
        lotec = self.proto(LOTEC)
        pages = lotec.select_pages(
            self.meta, page_map([N0, N1, N0], [2, 2, 2]),
            local_versions={0: 1, 1: 1, 2: 1},
            prediction=prediction(read_pages={0}, write_pages={1}),
        )
        assert pages == {0, 1}

    def test_rc_selects_stale_like_otec(self):
        rc = self.proto(ReleaseConsistency)
        pages = rc.select_pages(
            self.meta, page_map([N0, N1, N0], [1, 5, 1]),
            local_versions={}, prediction=prediction(),
        )
        assert pages == {0, 1, 2}

    def test_exhaustive_protocols_refuse_stale_access(self):
        otec = self.proto(OTEC)

        class FakeTxn:
            id = "T"
            node = N1

        with pytest.raises(ProtocolError, match="stale"):
            otec.on_stale_access(FakeTxn(), self.meta,
                                 page_map([N0], [1]), [0], is_write=False)

    def test_registry_factory(self):
        protocol = make_protocol(
            "lotec", env=self.env, network=self.network,
            sizes=self.sizes, stores=self.stores,
        )
        assert isinstance(protocol, LOTEC)
        with pytest.raises(KeyError):
            make_protocol("nope")


class TestGatherEngine:
    def setup_method(self):
        self.env, self.network, self.sizes, self.stores, self.meta = \
            make_world()

    def test_gather_skips_local_owner(self):
        def proc():
            shipped = yield from gather_pages(
                self.env, self.network, self.sizes, self.stores,
                N0, self.meta, page_map([N0, N0, N0], [1, 1, 1]),
                pages=[0, 1, 2],
            )
            return shipped

        assert self.env.run_process(proc()) == []
        assert self.network.stats.total_messages == 0

    def test_gather_groups_by_owner(self):
        # Make N1 own pages 0,1 and N2 own page 2 at version 2.
        self.stores[N0].ship_pages(OID, [0, 1], self.stores[N1])
        self.stores[N0].ship_pages(OID, [2], self.stores[N2])
        for node, pages in ((N1, (0, 1)), (N2, (2,))):
            for page in pages:
                self.stores[node].set_page_version(OID, page, 2)

        def proc():
            shipped = yield from gather_pages(
                self.env, self.network, self.sizes, self.stores,
                N0, self.meta, page_map([N1, N1, N2], [2, 2, 2]),
                pages=[0, 1, 2],
            )
            return shipped

        shipped = self.env.run_process(proc())
        assert sorted(shipped) == [0, 1, 2]
        # One request + one data message per distinct owner.
        assert self.network.stats.total_messages == 4
        assert self.stores[N0].page_version(OID, 0) == 2
        assert self.stores[N0].page_version(OID, 2) == 2

    def test_gather_charges_page_sized_data(self):
        self.stores[N0].ship_pages(OID, [0], self.stores[N1])
        self.stores[N1].set_page_version(OID, 0, 2)

        def proc():
            yield from gather_pages(
                self.env, self.network, self.sizes, self.stores,
                N0, self.meta, page_map([N1, N0, N0], [2, 1, 1]),
                pages=[0],
            )

        self.env.run_process(proc())
        assert self.network.stats.category_bytes(
            MessageCategory.PAGE_DATA
        ) == self.sizes.page_data(1)

    def test_demand_fetch_moves_data_and_returns_delay(self):
        self.stores[N0].ship_pages(OID, [1], self.stores[N1])
        self.stores[N1].write_slot(OID, ("b", 0), 42)
        self.stores[N1].set_page_version(OID, 1, 2)
        delay, shipped = demand_fetch(
            self.network, self.sizes, self.stores,
            N2, self.meta, page_map([N0, N1, N0], [1, 2, 1]), pages=[1],
        )
        assert shipped == [1]
        assert delay > 0
        assert self.stores[N2].read_slot(OID, ("b", 0)) == 42

    def test_unknown_grain_rejected(self):
        def proc():
            yield from gather_pages(
                self.env, self.network, self.sizes, self.stores,
                N2, self.meta, page_map([N0], [1]), pages=[0],
                grain="nibble",
            )

        with pytest.raises(ConfigurationError, match="grain"):
            self.env.run_process(proc())


class TestGatherPagesProperty:
    """Pages, versions and payload arrive intact whichever protocol
    selected them and at either transfer grain — including object 4,
    whose up-to-date pages live at two owners.  Concurrent gathers of
    objects sharing an owner each pay their own request/response pair."""

    OBJECTS = {
        # object id -> (page owners, page-map versions, payload value)
        1: ((N1, N1, N1), (2, 2, 2), 11),
        2: ((N1, N1, N1), (3, 3, 3), 22),
        3: ((N2, N2, N2), (2, 2, 2), 33),
        4: ((N1, N1, N2), (2, 2, 4), 44),
    }

    def make_world(self):
        env, network, sizes, _stores, meta = make_world()
        layout = meta.layout
        stores = {node: NodeStore(node) for node in (N0, N1, N2)}
        metas = {}
        for raw, (owners, versions, value) in self.OBJECTS.items():
            object_id = ObjectId(raw)
            stores[N0].create_object(object_id, layout)
            for node in (N1, N2):
                stores[node].register_object(object_id, layout)
            for page, (owner, version) in enumerate(zip(owners, versions)):
                stores[N0].ship_pages(object_id, [page], stores[owner])
                stores[owner].set_page_version(object_id, page, version)
            # Distinct payload on the first and last page at their
            # owners, so content (not just versions) must survive.
            stores[owners[0]].write_slot(object_id, ("a", 0), value)
            stores[owners[2]].write_slot(object_id, ("c", 0), value + 1)
            metas[raw] = ObjectMeta(object_id=object_id,
                                    schema=_schema(layout), layout=layout,
                                    home_node=owners[0],
                                    creator_node=owners[0])
        return env, network, sizes, stores, metas

    @pytest.mark.parametrize("protocol", ["cotec", "otec", "lotec", "rc"])
    @pytest.mark.parametrize("grain", ["page", "object"])
    def test_gather_delivers_pages_intact(self, protocol, grain):
        env, network, sizes, stores, metas = self.make_world()
        policy = make_protocol(protocol, env=env, network=network,
                               sizes=sizes, stores=stores)
        everything = prediction(read_pages=range(3))
        gathers = {}
        for raw, (owners, versions, _value) in self.OBJECTS.items():
            mapping = page_map(owners, versions)
            wanted = policy.select_pages(
                metas[raw], mapping,
                stores[N0].resident_pages(ObjectId(raw)), everything,
            )
            gathers[raw] = env.process(gather_pages(
                env, network, sizes, stores, N0, metas[raw], mapping,
                wanted, grain=grain,
            ))
        env.run()
        for raw, (owners, versions, value) in self.OBJECTS.items():
            object_id = ObjectId(raw)
            assert gathers[raw].value == [0, 1, 2]
            assert stores[N0].resident_pages(object_id) == \
                dict(enumerate(versions))
            assert stores[N0].read_slot(object_id, ("a", 0)) == value
            assert stores[N0].read_slot(object_id, ("c", 0)) == value + 1
        # One request/response pair per (object, owner): 1 + 1 + 1 + 2.
        stats = network.stats
        assert stats.by_category_messages[MessageCategory.PAGE_REQUEST] == 5
        assert stats.by_category_messages[MessageCategory.PAGE_DATA] == 5
        assert stats.by_category_bytes[MessageCategory.PAGE_REQUEST] == \
            3 * sizes.page_request(3) + sizes.page_request(2) \
            + sizes.page_request(1)
        assert sum(stats.object_bytes(ObjectId(raw))
                   for raw in self.OBJECTS) == stats.total_bytes
