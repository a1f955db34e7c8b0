"""Transport-interface conformance, parameterized over the backends.

Every test here runs once against :class:`SimTransport` (virtual
clock), once against :class:`TcpTransport` (real localhost sockets on
a wall-clock environment) and once against :class:`BareWire`, a
backend defined here that implements nothing but the wire primitive.
The Transport contract — delivery events, local fast path, charge
accounting, multicast fan-out, fair-loss fault semantics with bounded
retransmission — lives once, in the base class, so it must hold
identically, and the *accounted traffic* must be byte-for-byte the
same multiset on every wire.
"""

import asyncio
import socket

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.message import (
    MAX_FRAME_BYTES,
    Message,
    MessageCategory,
    pack_frame,
)
from repro.net.network import SimTransport
from repro.net.network_config import NetworkConfig
from repro.net.tcp import TcpTransport, read_envelope
from repro.net.transport import Transport, VIRTUAL_CLOCK, WALL_CLOCK
from repro.sim import Environment
from repro.sim.realtime import WallClockEnvironment
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId
from repro.util.rng import SeededRNG

CONFIG = NetworkConfig(bandwidth_bps=100e6, software_cost_s=1e-5)
NODES = [NodeId(0), NodeId(1), NodeId(2)]

BACKENDS = ["sim", "tcp", "bare"]


class BareWire(Transport):
    """A backend is only the wire primitive: every frame lands at once."""

    def _put_on_wire(self, message, done, transfer_time, faults):
        message.deliver_time = self.env.now
        if done is not None:
            self.env.timeout(0.0).add_callback(
                lambda _event: done.succeed(message))


def make_transport(backend, config=CONFIG, injector=None):
    if backend == "sim":
        env = Environment()
        net = SimTransport(env, config, injector=injector)
    elif backend == "bare":
        env = Environment()
        net = BareWire(env, config, injector=injector)
    else:
        env = WallClockEnvironment(stall_timeout_s=15.0)
        net = TcpTransport(env, config, injector=injector)
    net.start(NODES)
    return env, net


def message(src=0, dst=1, category=MessageCategory.PAGE_DATA,
            size=4096, **kwargs):
    return Message(src=NodeId(src), dst=NodeId(dst), category=category,
                   size_bytes=size, **kwargs)


def lossy_injector():
    plan = FaultPlan(
        name="conformance-lossy",
        drop_probability=0.3,
        duplicate_probability=0.1,
        delay_jitter_s=0.0005,
    )
    return FaultInjector(plan, SeededRNG(7).derive("faults"))


def network_key(stats):
    """An order-independent, comparable digest of NetworkStats."""
    return (
        stats.total_bytes,
        stats.total_messages,
        stats.total_time,
        stats.total_attempts,
        sorted((c.value, b) for c, b in stats.by_category_bytes.items()),
        sorted((c.value, n) for c, n in stats.by_category_messages.items()),
        sorted(stats.by_attempts.items()),
    )


@pytest.fixture(params=BACKENDS)
def backend(request):
    yield request.param


class TestContract:
    def test_is_transport_subclass(self, backend):
        env, net = make_transport(backend)
        try:
            assert isinstance(net, Transport)
            assert net.clock == (WALL_CLOCK if backend == "tcp"
                                 else VIRTUAL_CLOCK)
        finally:
            net.close()

    def test_send_delivers_exactly_once(self, backend):
        env, net = make_transport(backend)
        try:
            delivered = []
            for index in range(8):
                msg = message(src=index % 3, dst=(index + 1) % 3)
                net.send(msg).add_callback(
                    lambda event: delivered.append(event.value)
                )
            env.run()
            assert len(delivered) == 8
            for msg in delivered:
                assert msg.attempts == 1
                assert msg.deliver_time >= msg.send_time
            assert net.stats.total_messages == 8
        finally:
            net.close()

    def test_local_messages_free_and_immediate(self, backend):
        env, net = make_transport(backend)
        try:
            fired = []
            local = message(src=1, dst=1, category=MessageCategory.CONTROL,
                            size=64)
            net.send(local).add_callback(lambda e: fired.append(e.value))
            assert net.charge(message(src=2, dst=2)) == 0.0
            env.run()
            # Local traffic delivers but never touches wire accounting.
            assert fired == [local]
            assert net.stats.total_messages == 0
            assert net.stats.total_bytes == 0
        finally:
            net.close()

    def test_charge_returns_modeled_transfer_time(self, backend):
        env, net = make_transport(backend)
        try:
            msg = message(size=1000)
            delay = net.charge(msg)
            assert delay == pytest.approx(CONFIG.transfer_time(1000))
            assert net.stats.total_bytes == 1000
            env.run()
        finally:
            net.close()

    def test_round_trip_is_a_pure_estimate(self, backend):
        env, net = make_transport(backend)
        try:
            request = message(category=MessageCategory.PAGE_REQUEST, size=52)
            estimate = net.round_trip(request, response_size=4096)
            assert estimate == pytest.approx(
                CONFIG.transfer_time(52) + CONFIG.transfer_time(4096)
            )
            # Estimation never touches the wire or the books.
            assert net.stats.total_messages == 0
            env.run()
        finally:
            net.close()

    def test_charge_group_unicast_fan_out(self, backend):
        env, net = make_transport(backend)
        try:
            template = message(src=0, dst=0,
                               category=MessageCategory.UPDATE_PUSH,
                               size=2048)
            total = net.charge_group(template, NODES)
            # Two remote destinations (src itself is filtered out).
            assert total == pytest.approx(2 * CONFIG.transfer_time(2048))
            assert net.stats.total_messages == 2
            env.run()
        finally:
            net.close()

    def test_charge_group_multicast_single_charge(self, backend):
        config = CONFIG.with_multicast()
        env, net = make_transport(backend, config=config)
        try:
            template = message(src=0, dst=0,
                               category=MessageCategory.UPDATE_PUSH,
                               size=2048)
            total = net.charge_group(template, NODES)
            assert total == pytest.approx(config.transfer_time(2048))
            assert net.stats.total_messages == 1
            env.run()
        finally:
            net.close()


class TestFaultSemantics:
    def test_each_send_still_delivers_exactly_once(self, backend):
        env, net = make_transport(backend, injector=lossy_injector())
        try:
            delivered = []
            for index in range(12):
                msg = message(src=index % 3, dst=(index + 1) % 3, size=512)
                net.send(msg).add_callback(
                    lambda event: delivered.append(event.value)
                )
            env.run()
            assert len(delivered) == 12
            injector = net.injector
            assert injector.stats.messages_dropped > 0  # the plan did fire
            # Fair loss + reliable transport: attempts = drops + 1 per
            # message, and dropped attempts are still accounted.
            attempts = sum(msg.attempts for msg in delivered)
            assert attempts == 12 + injector.stats.messages_dropped
        finally:
            net.close()

    def test_accounting_parity_between_backends(self):
        """The same send/charge sequence books the identical multiset
        of (category, src, dst, bytes, attempts) on every wire: fault
        draws are keyed by wire id and attempt, not by clock domain."""
        def drive(backend):
            env, net = make_transport(backend, injector=lossy_injector())
            try:
                for index in range(10):
                    net.send(message(src=index % 3, dst=(index + 1) % 3,
                                     size=256 + 64 * index))
                for index in range(5):
                    net.charge(message(src=index % 3, dst=(index + 2) % 3,
                                       category=MessageCategory.PAGE_REQUEST,
                                       size=52))
                env.run()
                return network_key(net.stats), net.injector.stats.snapshot()
            finally:
                net.close()

        sim_stats, sim_faults = drive("sim")
        for other in ("tcp", "bare"):
            stats, faults = drive(other)
            assert stats == sim_stats, other
            assert faults == sim_faults, other


class TestTcpSpecifics:
    def test_requires_wall_clock_environment(self):
        with pytest.raises(ConfigurationError):
            TcpTransport(Environment(), CONFIG)

    def test_every_accounted_frame_crossed_a_socket(self):
        env, net = make_transport("tcp")
        try:
            sent = []
            for index in range(6):
                msg = message(src=index % 3, dst=(index + 1) % 3,
                              size=512 + index)
                sent.append(msg)
                net.send(msg)
            env.run()
            crossed = sorted(net.delivered_log)
            expected = sorted(
                (m.category.value, m.src.value, m.dst.value, m.size_bytes)
                for m in sent
            )
            assert crossed == expected
        finally:
            net.close()

    def test_close_is_idempotent(self):
        env, net = make_transport("tcp")
        net.close()
        net.close()

    def test_frame_larger_than_the_socket_buffers_lands_once(self):
        # The engine thread is also the only reader, so a blocking write
        # of this frame would deadlock: the kernel takes part of it, the
        # rest waits in the out-buffer, and the next frame queues behind.
        env, net = make_transport("tcp")
        try:
            link = net._out[0, 1]
            link.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            big, small = message(size=2 * 1024 * 1024), message(size=100)
            delivered = []
            for msg in (big, small):
                net.send(msg).add_callback(
                    lambda event: delivered.append(event.value))
            assert link.outbuf
            env.run()
            assert delivered == [big, small]
            assert net.delivered_log == [
                ("page_data", 0, 1, big.size_bytes),
                ("page_data", 0, 1, small.size_bytes),
            ]
            assert not link.outbuf
        finally:
            net.close()


class TestReadEnvelope:
    """The receive side of the frame codec fails typed and at once."""

    @staticmethod
    def read(data):
        async def feed_and_read():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await asyncio.wait_for(read_envelope(reader), timeout=5.0)

        return asyncio.run(feed_and_read())

    def test_round_trip_and_clean_eof(self):
        assert self.read(pack_frame({"t": "hello", "node": 3})) == {
            "t": "hello", "node": 3}
        assert self.read(b"") is None

    def test_over_limit_prefix_is_refused_without_waiting(self):
        # No body follows: an unchecked reader would wait for 4 GiB.
        with pytest.raises(ProtocolError, match=str(0xFFFFFFFF)):
            self.read(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="frame limit"):
            self.read((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}")

    @pytest.mark.parametrize("body, names", [
        (b"not json at all", "Expecting value"),
        (b"\xff\xfe\xfd", "utf-8"),
        (b"[1,2]", "not an object"),
    ])
    def test_garbage_body_is_a_protocol_error(self, body, names):
        with pytest.raises(ProtocolError, match=names):
            self.read(len(body).to_bytes(4, "big") + body)

    def test_truncated_body_ends_the_stream(self):
        # The peer went away mid-frame: the stream is over, not corrupt.
        frame = pack_frame({"t": "hello", "node": 3})
        assert self.read(frame[:-2]) is None
        assert self.read(frame[:2]) is None
