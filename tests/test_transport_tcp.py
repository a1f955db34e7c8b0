"""End-to-end protocol runs over the real TCP transport.

The acceptance bar for the TCP backend: the *same workload* driven
through the full LOTEC stack over real localhost sockets must commit
the same transactions and put the identical multiset of wire messages
(category x src x dst x size) on the network as the simulation
backend — and its wall-clock trace must pass every post-hoc oracle
(invariant checkers, Moss-retention reference model, serializability)
unchanged.

Schedules are driven *sequentially* (one root at a time, run to
completion) for the cross-backend comparison: with concurrent roots
the wall clock may legally reorder lock grants, changing the page
ownership history — still serializable, but not message-identical.
"""

import gc
import os
import threading
import warnings

import pytest

from repro.check import check_reference_model, run_invariants
from repro.net.message import (
    FRAME_PREFIX_BYTES, Message, MessageCategory, decode_frame,
)
from repro.net.network_config import NetworkConfig
from repro.net.tcp import TcpTransport
from repro.obs.export import read_jsonl, read_jsonl_header, write_jsonl
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.verify import check_serializability
from repro.sim.realtime import WallClockEnvironment
from repro.util.errors import ProtocolError
from repro.util.ids import NodeId
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS

from conftest import Counter, tap_sockets

SCENARIO = "medium-high"
SCALE = 0.1
SEED = 11
NODES = 4


def tap_accounting(network):
    """Record every accounted wire copy as (category, src, dst, size)."""
    log = []
    original = network.stats.record

    def record(message, transfer_time, delivered=False):
        log.append((message.category.value, message.src.value,
                    message.dst.value, message.size_bytes))
        original(message, transfer_time, delivered)

    network.stats.record = record
    return log


def run_sequential(transport):
    """Drive the standard workload one root at a time; return
    (committed, accounted multiset, cluster) with the cluster closed."""
    params = SCENARIOS[SCENARIO].scaled(SCALE)
    workload = generate_workload(params, seed=SEED)
    cluster = Cluster(ClusterConfig(
        num_nodes=NODES, protocol="lotec", seed=SEED,
        audit_accesses=False, trace=True,
        transport=transport,
    ))
    accounted = tap_accounting(cluster.network)
    with cluster:
        handles = tuple(
            cluster.create(workload.class_of(index).schema)
            for index in range(workload.num_objects)
        )
        for index, plan in enumerate(workload.plans):
            ticket = cluster.submit(
                handles[plan.obj_index], plan.method_name, plan, handles,
                label=f"root{index}",
            )
            cluster.run()
            ticket.result()
    return cluster.txn_stats.commits, sorted(accounted), cluster


@pytest.fixture(scope="module")
def sequential_runs():
    sim = run_sequential("sim")
    tcp = run_sequential("tcp")
    return sim, tcp


class TestWireEquivalence:
    def test_same_commits_and_wire_multiset(self, sequential_runs):
        (sim_commits, sim_wire, _), (tcp_commits, tcp_wire, _) = (
            sequential_runs
        )
        assert sim_commits == tcp_commits > 0
        assert len(sim_wire) == len(tcp_wire) > 0
        assert sim_wire == tcp_wire

    def test_every_accounted_message_crossed_a_socket(self,
                                                      sequential_runs):
        _, (_, tcp_wire, cluster) = sequential_runs
        assert sorted(cluster.network.delivered_log) == tcp_wire


class TestWireSizeFidelity:
    def test_every_frame_is_its_modeled_size(self):
        # Concurrent roots, default SizeModel: the bytes each message
        # frame occupies on the socket are its accounted size_bytes, so
        # the socket carries exactly NetworkStats.total_bytes.
        from repro.workload.runner import run_workload

        cluster = Cluster(ClusterConfig(
            num_nodes=NODES, protocol="lotec", seed=SEED,
            audit_accesses=False, transport="tcp",
        ))
        network = cluster.network
        accounted = tap_accounting(network)
        streams = {}

        def recv_into(sock, view):
            count = sock.recv_into(view)
            streams.setdefault(sock.fileno(), bytearray()).extend(
                view[:count])
            return count

        tap_sockets(cluster, reading=True, recv_into=recv_into)
        with cluster:
            run = run_workload(cluster, generate_workload(
                SCENARIOS[SCENARIO].scaled(SCALE), seed=SEED))
        # Split what each connection received into its frames.
        framed = []
        for stream in streams.values():
            start = 0
            while start < len(stream):
                end = (start + FRAME_PREFIX_BYTES
                       + int.from_bytes(
                           stream[start:start + FRAME_PREFIX_BYTES], "big"))
                _kind, category, src, dst, _size, _wire = decode_frame(
                    stream, start, end)
                framed.append((category, src, dst, end - start))
                start = end
        assert run.committed > 0
        assert len(framed) == len(accounted) > 0
        assert sorted(framed) == sorted(accounted)
        assert (sum(size for *_, size in framed)
                == network.stats.total_bytes)


class TestTcpTraceOracles:
    """The wall-clock trace feeds the same post-hoc checkers."""

    def test_serializability_holds_over_tcp(self, sequential_runs):
        _, (_, _, cluster) = sequential_runs
        report = check_serializability(cluster)
        assert report.equivalent, report.state_mismatches
        assert not report.result_mismatches

    def test_invariants_and_reference_model_pass(self, sequential_runs):
        _, (_, _, cluster) = sequential_runs
        events = cluster.tracer.events
        assert events
        assert run_invariants(events) == []
        assert check_reference_model(events) == []

    def test_trace_is_wall_clock_and_round_trips(self, sequential_runs,
                                                 tmp_path):
        _, (_, _, cluster) = sequential_runs
        assert cluster.tracer.clock_kind == "wall"
        path = tmp_path / "tcp.jsonl"
        write_jsonl(cluster.tracer.events, path,
                    clock=cluster.tracer.clock_kind)
        assert read_jsonl_header(path) == {"schema": 1, "clock": "wall"}

        # The header is metadata, not an event: the reader skips it and
        # the replayed dicts satisfy the same oracles.
        replayed = read_jsonl(path)
        assert len(replayed) == len(cluster.tracer.events)
        assert run_invariants(replayed) == []
        assert check_reference_model(replayed) == []

    def test_wall_timestamps_are_real_elapsed_seconds(self,
                                                      sequential_runs):
        # Spans are appended at span *end* carrying their begin ts, so
        # the list is not sorted — but every stamp is nonnegative wall
        # seconds, durations are nonnegative, and real time did pass.
        _, (_, _, cluster) = sequential_runs
        events = cluster.tracer.events
        assert all(event.ts >= 0.0 for event in events)
        assert all(event.dur >= 0.0 for event in events)
        assert max(event.ts for event in events) > 0.0


class TestConcurrentTcpRun:
    """Concurrent arrivals over TCP: no message-level identity claim,
    but the protocol oracles must still all hold."""

    def test_full_workload_is_serializable(self):
        from repro.workload.runner import run_workload

        params = SCENARIOS[SCENARIO].scaled(SCALE)
        workload = generate_workload(params, seed=3)
        cluster = Cluster(ClusterConfig(
            num_nodes=NODES, protocol="lotec", seed=3,
            audit_accesses=False, trace=True, transport="tcp",
        ))
        with cluster:
            run = run_workload(cluster, workload)
        assert run.committed > 0
        assert check_serializability(cluster).equivalent
        assert run_invariants(cluster.tracer.events) == []
        assert cluster.network.delivered_log  # frames really crossed


class TestLifecycle:
    def test_send_before_start_is_refused_unbooked(self):
        """A refused send or charge leaves no trace: no wire id, nothing
        accounted, nothing in flight, no socket."""
        network = TcpTransport(WallClockEnvironment(), NetworkConfig(
            bandwidth_bps=100e6, software_cost_s=1e-5))
        message = Message(src=NodeId(0), dst=NodeId(1), size_bytes=64,
                          category=MessageCategory.CONTROL)
        for attempt in (network.send, network.charge):
            with pytest.raises(ProtocolError, match="not started"):
                attempt(message)
        assert message.wire_id is None
        assert network._next_wire_id == 0
        assert network.stats.total_messages == 0
        assert network.inflight == 0
        assert network._links == []
        network.close()


def open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors through /proc")
class TestResourceHygiene:
    """The socket path runs on the caller's thread, and ``close()``
    gives back every socket it took."""

    def test_close_releases_everything(self):
        threads = set(threading.enumerate())
        fds = open_fds()
        n0, n1 = NodeId(0), NodeId(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            cluster = Cluster(ClusterConfig(
                num_nodes=3, protocol="lotec", seed=7, audit_accesses=False,
                transport="tcp",
            ))
            with cluster:
                counter = cluster.create(Counter, node=n0)
                ticket = cluster.submit(counter, "add", 1, node=n1)
                cluster.run()
                assert ticket.result() == 1
                assert set(threading.enumerate()) == threads
            cluster.close()  # a second close does nothing
            network = cluster.network
            with pytest.raises(ProtocolError, match="closed"):
                network.send(Message(src=n0, dst=n1, size_bytes=64,
                                     category=MessageCategory.CONTROL))
            del cluster, network, counter, ticket
            gc.collect()
        assert open_fds() == fds
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []
        assert set(threading.enumerate()) == threads
