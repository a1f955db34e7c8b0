"""Fault behaviour over the real TCP transport: stall detection on a
hung peer, malformed frames and failed sends failing the run at once,
backpressure (partial writes, a peer that never reads), duplicate-frame
discard (including across a partition heal), and cross-backend parity
of the deterministic fault/recovery counters.  Faults are injected on
the sockets themselves (``conftest.tap_sockets``)."""

import errno
import itertools
import socket
import time

import pytest

from repro.faults import CrashEvent, FaultPlan, PartitionEvent
from repro.net.message import (
    FRAME_SCHEMA, MAX_FRAME_BYTES, Message, MessageCategory,
)
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.sim.realtime import WallClockEnvironment
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId

from conftest import Counter, Ledger, tap_sockets

N0, N1, N2, N3 = (NodeId(index) for index in range(4))


def tcp_cluster(faults=None, seed=7):
    return Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=seed, audit_accesses=False,
        transport="tcp", faults=faults,
    ))


class FakeSource:
    """A source with ``count`` items in flight that never arrive."""

    def __init__(self, count):
        self.inflight = count

    def poll(self, timeout):
        time.sleep(timeout)
        return False


class LateSource(FakeSource):
    """One item in flight that lands ``after_s`` seconds from now."""

    def __init__(self, fired, after_s):
        super().__init__(count=1)
        self.fired = fired
        self.due = time.monotonic() + after_s

    def poll(self, timeout):
        wait = self.due - time.monotonic()
        if wait > timeout:
            time.sleep(timeout)
            return False
        time.sleep(max(0.0, wait))
        self.inflight = 0
        self.fired.succeed(None)
        return True


class TestStallTimeout:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WallClockEnvironment(stall_timeout_s=0.0)

    def test_silent_source_raises_instead_of_hanging(self):
        env = WallClockEnvironment(stall_timeout_s=0.05)
        env.attach_source(FakeSource(count=1))
        with pytest.raises(ProtocolError, match="transport stalled"):
            env.run()

    def test_external_delivery_prevents_the_stall(self):
        env = WallClockEnvironment(stall_timeout_s=0.5)
        fired = env.event()
        env.attach_source(LateSource(fired, after_s=0.02))
        started = time.monotonic()
        env.run()  # returns promptly: the arrival beat the stall
        assert fired.triggered
        assert time.monotonic() - started < 0.5

    def test_hung_peer_surfaces_as_protocol_error(self):
        # A peer that accepts frames but never delivers them: the
        # in-flight count stays up while the engine runs dry, and the
        # run must fail loudly instead of blocking forever.
        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 0.2
        with cluster:
            counter = cluster.create(Counter, node=N0)
            tap_sockets(cluster, send=lambda sock, data: len(data))
            cluster.submit(counter, "add", 1, node=N1)
            with pytest.raises(ProtocolError, match="transport stalled"):
                cluster.run()


def nth_frame(nth, replace):
    """A ``send`` tap that writes every frame as it is but the ``nth``,
    which ``replace(sock, frame)`` writes instead; that frame counts as
    taken whole, and so as in flight."""
    sends = itertools.count(1)

    def send(sock, data):
        if next(sends) != nth:
            return sock.send(data)
        replace(sock, bytes(data))
        return len(data)

    return send


def patched(data, offset, value):
    """``data`` with the header byte at ``offset`` set to ``value``."""
    bad = bytearray(data)
    bad[offset] = value
    return bytes(bad)


def stretched(data, extra):
    """``data`` with ``extra`` filler bytes the header's size does not
    account for, the length prefix updated to match."""
    body = bytes(data[4:]) + bytes(extra)
    return len(body).to_bytes(4, "big") + body


class TestMalformedFrames:
    """Bad bytes on a node's inbound connection fail ``Cluster.run()``
    on the engine thread at once, naming the frame problem — not after
    the stall timeout.  Each case rewrites a real message frame (prefix
    at bytes 0-3, then marker, schema, kind, category code)."""

    @pytest.mark.parametrize("corrupt, names", [
        (lambda data: len(b"not json").to_bytes(4, "big") + b"not json",
         "not a message frame"),
        (lambda data: len(b'{"t":"hello"}').to_bytes(4, "big")
         + b'{"t":"hello"}', "not a message frame"),
        (lambda data: (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
         "frame limit"),
        (lambda data: (16).to_bytes(4, "big") + bytes(data[4:20]),
         "truncated message frame"),
        (lambda data: patched(data, 5, FRAME_SCHEMA - 1),
         "message frame schema 1, expected 2"),
        (lambda data: patched(data, 6, 7), "unknown message frame kind 7"),
        (lambda data: patched(data, 7, 200),
         "unknown message category code 200"),
        (lambda data: stretched(data, 8), "disagrees with its header"),
    ], ids=["garbage-body", "control-frame", "over-limit-prefix",
            "truncated-header", "wrong-schema", "unknown-kind",
            "unknown-category", "length-mismatch"])
    def test_bad_frame_fails_the_run_at_once(self, corrupt, names):
        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 5.0
        with cluster:
            counter = cluster.create(Counter, node=N0)
            tap_sockets(cluster, send=nth_frame(
                3, lambda sock, data: sock.send(corrupt(data))))
            cluster.submit(counter, "add", 1, node=N1)
            started = time.monotonic()
            with pytest.raises(ProtocolError, match=names):
                cluster.run()
            assert time.monotonic() - started < 1.0

    def test_peer_closing_mid_frame_is_a_stall(self):
        # Half a frame, then EOF: the stream is over, not corrupt, and
        # the frame it owed surfaces through the stall timeout.
        def truncate(sock, data):
            sock.send(data[:len(data) // 2])
            sock.shutdown(socket.SHUT_WR)

        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 0.2
        with cluster:
            counter = cluster.create(Counter, node=N0)
            tap_sockets(cluster, send=nth_frame(3, truncate))
            cluster.submit(counter, "add", 1, node=N1)
            with pytest.raises(ProtocolError, match="transport stalled"):
                cluster.run()


def reset(sock, data):
    """A ``send`` that fails as on a connection the peer reset."""
    raise ConnectionResetError(errno.ECONNRESET, "Connection reset")


class TestSendErrors:
    def test_send_error_fails_the_run_once(self):
        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 5.0
        with cluster:
            counter = cluster.create(Counter, node=N0)
            tap_sockets(cluster, send=reset)
            cluster.submit(counter, "add", 1, node=N1)
            started = time.monotonic()
            with pytest.raises(ProtocolError,
                               match="TCP send failed: .*Connection reset"):
                cluster.run()
            assert time.monotonic() - started < 1.0


#: Roots run one at a time on a multi-page object homed at N0: lock
#: requests, grants, page transfers and releases between every pair.
LEDGER_ROOTS = ((N1, "bump_alpha", (5,)), (N2, "bump_beta", (7,)),
                (N3, "log_entry", (3, 9)), (N1, "sum_all", ()),
                (N2, "bump_alpha", (1,)), (N0, "sum_all", ()))


def run_ledger(transport, send=None):
    """Drive ``LEDGER_ROOTS``; return the results, the commit order and
    the messages in the order they were accounted, and the cluster."""
    cluster = Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=7, audit_accesses=False,
        transport=transport,
    ))
    accounted = []
    book = cluster.network.stats.record

    def account(message, transfer_time, delivered=False):
        accounted.append((message.category.value, message.src.value,
                          message.dst.value, message.size_bytes))
        book(message, transfer_time, delivered)

    cluster.network.stats.record = account
    results = []
    with cluster:
        ledger = cluster.create(Ledger, node=N0)
        if send is not None:
            tap_sockets(cluster, send=send)
        for node, name, args in LEDGER_ROOTS:
            ticket = cluster.submit(ledger, name, *args, node=node)
            cluster.run()
            results.append(ticket.result())
    order = [(record.node, record.method_name)
             for record in cluster.commit_log]
    return results, order, accounted, cluster


class TestBackpressure:
    """The partial-write path: frames the kernel takes only part of
    wait in the connection's out-buffer and go out on ``EVENT_WRITE``."""

    def test_trickled_frames_land_whole_and_in_order(self):
        # The kernel takes at most 16 bytes per send: every frame longer
        # than that is split across many writes.
        split = []

        def trickle(sock, data):
            split.append(len(data) > 16)
            return sock.send(data[:16])

        results, order, accounted, cluster = run_ledger("tcp", trickle)
        sim_results, sim_order, sim_accounted, _ = run_ledger("sim")
        assert any(split)
        assert results == sim_results
        assert order == sim_order
        assert accounted == sim_accounted
        # One connection per ordered pair: each pair's frames arrive
        # whole, and in the order they were put on the wire.
        delivered = cluster.network.delivered_log
        for pair in {(src, dst) for _, src, dst, _ in accounted}:
            assert ([entry for entry in delivered if entry[1:3] == pair]
                    == [entry for entry in accounted if entry[1:3] == pair])

    def test_frames_behind_a_partial_write_do_not_interleave(self):
        sizes = (4096, 64, 1000)
        messages = [Message(src=N0, dst=N1, size_bytes=size,
                            category=MessageCategory.PAGE_DATA)
                    for size in sizes]
        landed = []
        cluster = tcp_cluster()
        with cluster:
            tap_sockets(cluster, send=lambda sock, data: sock.send(data[:16]))
            for message in messages:
                cluster.network.send(message).add_callback(
                    lambda event: landed.append(event.value))
            cluster.run()
        assert landed == messages
        assert cluster.network.delivered_log == [
            ("page_data", 0, 1, size) for size in sizes]

    def test_peer_that_never_reads_is_a_stall(self):
        # The peer never reads: once the first bytes fill its window the
        # kernel takes nothing more, so a frame waits in the out-buffer
        # for good.  The run ends with the stall error, not a hang, and
        # closing the cluster gives every socket back.
        window = [200]

        def send(sock, data):
            if not window[0]:
                raise BlockingIOError(errno.EAGAIN, "window full")
            taken = sock.send(data[:window[0]])
            window[0] -= taken
            return taken

        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 0.2
        with cluster:
            ledger = cluster.create(Ledger, node=N0)
            tap_sockets(cluster, send=send)
            cluster.submit(ledger, "bump_alpha", 1, node=N1)
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="transport stalled"):
                cluster.run()
            assert time.monotonic() - started < 2.0
            assert any(link.outbuf for link in cluster.network._out.values())
        assert all(link.sock.fileno() == -1
                   for link in cluster.network._links)


class TestDuplicateDiscard:
    def test_duplicate_frames_fire_one_delivery(self):
        plan = FaultPlan(duplicate_probability=1.0)
        cluster = tcp_cluster(faults=plan)
        with cluster:
            counter = cluster.create(Counter, node=N0)
            ticket = cluster.submit(counter, "add", 1, node=N1)
            cluster.run()
            assert ticket.result() == 1
            assert cluster.fault_stats.messages_duplicated > 0
            # Every wire copy crossed a socket and was accounted...
            assert (len(cluster.network.delivered_log)
                    == cluster.network.stats.total_messages)
            # ...but each logical message fired exactly once: the
            # duplicate copies found nothing pending to complete.
            assert cluster.network._pending == {}

    def test_discard_still_holds_across_a_partition_heal(self):
        # The first attempts die against the cut; after the heal a
        # duplicated retransmit crosses, and its second copy must be
        # discarded exactly like on a clean channel.
        plan = FaultPlan(
            duplicate_probability=1.0,
            retransmit_timeout_s=0.05,
            partitions=(PartitionEvent(group_a=(0,), at_s=0.0,
                                       heal_after_s=0.15),),
        )
        cluster = tcp_cluster(faults=plan)
        with cluster:
            counter = cluster.create(Counter, node=N0)
            ticket = cluster.submit(counter, "add", 1, node=N1)
            cluster.run()
            assert ticket.result() == 1
            stats = cluster.fault_stats
            assert stats.partition_dropped > 0
            assert stats.messages_duplicated > 0
            assert cluster.network._pending == {}


#: Wide-margin recovery gauntlet: the only transaction commits in the
#: first milliseconds, then the crash (250 ms), failover (260 ms),
#: rejoin (400 ms), and a partition window (500-550 ms) all pass with
#: nothing in flight — so every fault counter is deterministic and must
#: agree byte-for-byte between the virtual and wall clocks.
PARITY_PLAN = FaultPlan(
    failover_detect_s=0.01,
    crashes=(CrashEvent(node_index=0, at_s=0.25, down_for_s=0.15),),
    partitions=(PartitionEvent(group_a=(0, 1), at_s=0.5,
                               heal_after_s=0.05),),
)


def run_parity_scenario(transport):
    cluster = Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=7, audit_accesses=False,
        transport=transport, faults=PARITY_PLAN,
    ))
    with cluster:
        # Homed at N0 (round-robin by object id), pages at N1: the
        # crash takes out exactly the directory role.
        counter = cluster.create(Counter, node=N1)
        first = cluster.submit(counter, "add", 2, node=N2)
        cluster.run()  # drains the commit and the whole fault schedule
        assert first.result() == 2
        snapshot = cluster.fault_stats.snapshot()
        follow_up = cluster.submit(counter, "add", 3, node=N3)
        cluster.run()
        result = follow_up.result()
    return snapshot, result


class TestCrossBackendFaultParity:
    def test_fault_stats_identical_sim_vs_tcp(self):
        sim_snapshot, sim_result = run_parity_scenario("sim")
        tcp_snapshot, tcp_result = run_parity_scenario("tcp")
        assert sim_result == tcp_result == 5
        assert sim_snapshot == tcp_snapshot
        # The scenario exercised the whole recovery arc, not a no-op.
        assert sim_snapshot["crashes"] == 1
        assert sim_snapshot["recoveries"] == 1
        assert sim_snapshot["failovers"] == 1
        assert sim_snapshot["rejoin_reclaimed_homes"] == 1
