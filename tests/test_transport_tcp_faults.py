"""Fault behaviour over the real TCP transport: stall detection on a
hung peer, malformed frames failing the run at once, duplicate-frame
discard (including across a partition heal), and cross-backend parity
of the deterministic fault/recovery counters."""

import socket
import time

import pytest

from repro.faults import CrashEvent, FaultPlan, PartitionEvent
from repro.net.message import MAX_FRAME_BYTES
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.sim.realtime import WallClockEnvironment
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId

from conftest import Counter

N0, N1, N2, N3 = (NodeId(index) for index in range(4))


def tcp_cluster(faults=None, seed=7):
    return Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=seed, audit_accesses=False,
        transport="tcp", faults=faults,
    ))


class FakeSource:
    """A source with ``count`` items in flight that never arrive."""

    def __init__(self, count):
        self.count = count

    def pending(self):
        return self.count

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
        self.count = 0
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
        try:
            with cluster:
                counter = cluster.create(Counter, node=N0)
                cluster.network._deliver = lambda frame: None
                cluster.submit(counter, "add", 1, node=N1)
                with pytest.raises(ProtocolError, match="transport stalled"):
                    cluster.run()
        finally:
            del cluster.network._deliver  # restore for teardown


def replace_nth_write(network, nth, replacement):
    """Have ``replacement(link, data)`` stand in for the ``nth`` frame
    written mid-run; the frame itself is counted in flight."""
    original = network._write
    writes = []

    def write(link, data):
        writes.append(data)
        if len(writes) == nth:
            replacement(link, data)
        else:
            original(link, data)

    network._write = write


class TestMalformedFrames:
    """Bad bytes on a node's inbound connection fail ``Cluster.run()``
    on the engine thread at once, naming the frame problem — not after
    the stall timeout."""

    @pytest.mark.parametrize("bad, names", [
        (len(b"not json").to_bytes(4, "big") + b"not json",
         "undecodable frame body"),
        ((MAX_FRAME_BYTES + 1).to_bytes(4, "big"), "frame limit"),
    ], ids=["garbage-body", "over-limit-prefix"])
    def test_bad_frame_fails_the_run_at_once(self, bad, names):
        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 5.0
        with cluster:
            counter = cluster.create(Counter, node=N0)
            replace_nth_write(cluster.network, 3,
                              lambda link, data: link.sock.send(bad))
            cluster.submit(counter, "add", 1, node=N1)
            started = time.monotonic()
            with pytest.raises(ProtocolError, match=names):
                cluster.run()
            assert time.monotonic() - started < 1.0

    def test_peer_closing_mid_frame_is_a_stall(self):
        # Half a frame, then EOF: the stream is over, not corrupt, and
        # the frame it owed surfaces through the stall timeout.
        def truncate(link, data):
            link.sock.send(data[:len(data) // 2])
            link.sock.shutdown(socket.SHUT_WR)

        cluster = tcp_cluster()
        cluster.env.stall_timeout_s = 0.2
        with cluster:
            counter = cluster.create(Counter, node=N0)
            replace_nth_write(cluster.network, 3, truncate)
            cluster.submit(counter, "add", 1, node=N1)
            with pytest.raises(ProtocolError, match="transport stalled"):
                cluster.run()


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


def run_parity_scenario(transport, processes=False):
    cluster = Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=7, audit_accesses=False,
        transport=transport, transport_processes=processes,
        faults=PARITY_PLAN,
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

    @pytest.mark.slow
    def test_fault_stats_identical_in_process_mode(self):
        sim_snapshot, sim_result = run_parity_scenario("sim")
        proc_snapshot, proc_result = run_parity_scenario(
            "tcp", processes=True)
        assert proc_result == sim_result
        assert proc_snapshot == sim_snapshot
