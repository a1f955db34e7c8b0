"""Event-driven transfer completion — the phantom-time install fix.

A gather used to wait on an *estimated* round-trip timer computed at
send time, so pages were installed at that phantom instant even when
fault injection dropped or delayed the actual wire messages.  Gathers
now chain through the real delivery events of ``Transport.send``:
installation cannot happen before the ``PAGE_DATA`` bytes arrive, and
every retransmit turnaround pushes it out by exactly the time lost.
"""

import pytest

from repro import check_serializability
from repro.core.transfer import gather_pages
from repro.faults import FAULT_PRESETS, FaultInjector, FaultPlan
from repro.gdo.entry import PageMapEntry
from repro.memory.layout import AttributeSpec, ObjectLayout
from repro.memory.store import NodeStore
from repro.net.network import NetworkConfig, SimTransport
from repro.net.sizes import SizeModel
from repro.objects.registry import ObjectMeta
from repro.objects.schema import ClassSchema
from repro.runtime import Cluster, ClusterConfig
from repro.sim import Environment
from repro.util.ids import NodeId, ObjectId
from repro.util.rng import SeededRNG
from repro.workload import SCENARIOS, generate_workload, run_workload

N0, N1, N2 = NodeId(0), NodeId(1), NodeId(2)
OID = ObjectId(0)


def make_world(injector=None):
    """Three-node world with one three-page object created at N1."""
    env = Environment()
    network = SimTransport(env, NetworkConfig(bandwidth_bps=100e6,
                                              software_cost_s=1e-5),
                           injector=injector)
    sizes = SizeModel(page_bytes=100)
    layout = ObjectLayout(
        [AttributeSpec("a", 90), AttributeSpec("b", 90),
         AttributeSpec("c", 90)],
        page_size=100,
    )
    stores = {node: NodeStore(node) for node in (N0, N1, N2)}
    stores[N1].create_object(OID, layout)
    for node in (N0, N2):
        stores[node].register_object(OID, layout)
    schema = ClassSchema("T", layout.attributes, methods={"m": None})
    meta = ObjectMeta(object_id=OID, schema=schema, layout=layout,
                      home_node=N1, creator_node=N1)
    return env, network, sizes, stores, meta


def page_map(owners, versions):
    return {
        page: PageMapEntry(owner=owner, version=version)
        for page, (owner, version) in enumerate(zip(owners, versions))
    }


def one_page_gather(env, network, sizes, stores, meta):
    def proc():
        shipped = yield from gather_pages(
            env, network, sizes, stores, N0, meta,
            page_map([N1, N1, N1], [1, 1, 1]), pages=[0],
        )
        return shipped

    return env.run_process(proc())


class TestEventDrivenCompletion:
    def test_fault_free_gather_completes_at_wire_time(self):
        # Without faults the delivery-event chain must land at exactly
        # the request + response transfer time the old timer estimated.
        env, network, sizes, stores, meta = make_world()
        shipped = one_page_gather(env, network, sizes, stores, meta)
        assert shipped == [0]
        expected = (
            network.config.transfer_time(sizes.page_request(1))
            + network.config.transfer_time(sizes.page_data(1))
        )
        assert env.now == pytest.approx(expected)

    def test_gather_latency_includes_retransmit_turnarounds(self):
        # drop_probability=1.0 with retransmit_limit=2 loses exactly
        # two attempts per leg (the third is past the limit, hence
        # lossless), so the completion time is fully deterministic.
        plan = FaultPlan(drop_probability=1.0, retransmit_limit=2,
                         retransmit_timeout_s=0.001)
        injector = FaultInjector(plan, SeededRNG(1))
        env, network, sizes, stores, meta = make_world(injector)
        shipped = one_page_gather(env, network, sizes, stores, meta)
        assert shipped == [0]
        t_req = network.config.transfer_time(sizes.page_request(1))
        t_resp = network.config.transfer_time(sizes.page_data(1))
        # Escalating backoff: 1x base after attempt 0, 2x after 1.
        leg = lambda t: (t + 0.001) + (t + 0.002) + t  # noqa: E731
        assert env.now == pytest.approx(leg(t_req) + leg(t_resp))
        # Strictly later than the old estimated round trip: the
        # phantom-time install bug would have finished here.
        assert env.now > t_req + t_resp
        assert injector.stats.retransmissions == 4
        # Both wire messages delivered on their third attempt.
        assert dict(network.stats.by_attempts) == {3: 2}

    def test_pages_not_installed_at_the_phantom_instant(self):
        # A probe sampling the acquiring store at the *estimated*
        # round-trip time (where the old timer installed) must still
        # see no resident page; only after the real delivery does the
        # page appear.
        plan = FaultPlan(drop_probability=1.0, retransmit_limit=2,
                         retransmit_timeout_s=0.001)
        env, network, sizes, stores, meta = make_world(
            FaultInjector(plan, SeededRNG(1)))
        phantom = (
            network.config.transfer_time(sizes.page_request(1))
            + network.config.transfer_time(sizes.page_data(1))
        )
        seen = {}

        def probe():
            yield env.timeout(phantom)
            seen["at_phantom_time"] = stores[N0].resident_pages(OID)

        env.process(probe())
        one_page_gather(env, network, sizes, stores, meta)
        assert not seen["at_phantom_time"]
        assert 0 in stores[N0].resident_pages(OID)

    def test_jitter_delays_completion(self):
        plan = FaultPlan(delay_jitter_s=0.002)
        injector = FaultInjector(plan, SeededRNG(7))
        env, network, sizes, stores, meta = make_world(injector)
        one_page_gather(env, network, sizes, stores, meta)
        clean = (
            network.config.transfer_time(sizes.page_request(1))
            + network.config.transfer_time(sizes.page_data(1))
        )
        assert env.now == pytest.approx(clean + injector.stats.delay_injected_s)
        assert injector.stats.delay_injected_s > 0


class TestLossyNetInstallOrdering:
    """Flagship regression: under the lossy-net preset no install may
    precede the delivery instant of the ``PAGE_DATA`` that carried it."""

    def run_lossy(self):
        workload = generate_workload(SCENARIOS["medium-high"].scaled(0.2),
                                     seed=5)
        cluster = Cluster(ClusterConfig(
            num_nodes=4, seed=5, protocol="lotec", trace=True,
            faults=FAULT_PRESETS["lossy-net"],
        ))
        return cluster, run_workload(cluster, workload)

    def test_no_install_precedes_its_delivery_instant(self):
        cluster, run = self.run_lossy()
        assert run.committed > 0
        # The preset really exercised the retransmission machinery, so
        # the ordering below is tested under delayed deliveries, not
        # on a clean channel that happens to have a plan attached.
        assert cluster.fault_stats.messages_dropped > 0
        assert cluster.fault_stats.retransmissions > 0
        installs = [event for event in cluster.trace_events
                    if event.name.startswith("transfer.install")]
        assert installs
        for event in installs:
            delivered_at = event.args["delivered_at"]
            assert delivered_at, event
            # Installation happens when the last delivery event of its
            # gather fires — never before any of its own deliveries.
            assert event.ts >= max(delivered_at) - 1e-12, event
        assert check_serializability(cluster).equivalent

    def test_retransmitted_gathers_deliver_later_than_clean_ones(self):
        # At least one gather's recorded delivery instants must reflect
        # a retransmit turnaround: deliver - send spans the turnarounds
        # for some PAGE_DATA message (attempts > 1).
        cluster, _run = self.run_lossy()
        assert any(attempts > 1
                   for attempts in cluster.network.stats.by_attempts)
