"""Real-transport backend: the cluster's wire messages over localhost TCP.

Every remote :class:`~repro.net.message.Message` crosses an actual
socket as one length-prefixed binary frame, exactly the cost model's
``size_bytes`` long (see ``repro.net.message``), over a full mesh of
``(src, dst)`` connections, one per ordered pair of nodes, held by the
process that runs the protocol stack.

Everything runs on one thread, the engine's (a
:class:`~repro.sim.realtime.WallClockEnvironment`), which keeps *all*
protocol-visible state — fault draws, retransmission scheduling,
:class:`~repro.net.stats.NetworkStats` accounting, tracing, delivery
events: the shared pipeline of :class:`~repro.net.transport.Transport`,
which hands :meth:`TcpTransport._put_on_wire` only attempts that
survived their fault draw (a dropped attempt is accounted but *never
written*).  The transport owns its sockets outright:

* **writes** happen in :meth:`TcpTransport._put_on_wire`: one
  non-blocking ``send`` of the whole frame; what the kernel does not
  take waits in the connection's out-buffer, later frames queue behind
  it, and the buffer is flushed on ``EVENT_WRITE``;
* **reads** happen in :meth:`TcpTransport.poll`, the environment's
  source hook, over one ``selectors.DefaultSelector``: ``_read`` moves
  the clock to the wall instant of the read, splits the byte stream
  into frames, and fires each message frame's delivery in its own loop;
* **fault mechanics** are engine timers: jitter delays the write, and
  a duplicate is written twice and its second arrival discarded.
  Partitions are the injector's: a cut attempt is never written.

Because a send's delivery event is resolved by the *arrival* of its
frame (matched by ``wire_id``), late/duplicate frames are discarded
exactly like the simulation's one-shot events discard them, and
``inflight`` keeps the run loop alive until the last frame lands.  A
malformed frame or a failed send raises :class:`ProtocolError` out of
``poll`` and so out of ``Cluster.run()``; a peer that closes mid-frame
strands its frames, which the run loop's stall timeout reports.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.message import (
    Message,
    decode_frame,
    encode_frame,
    FRAME_PREFIX_BYTES,
    KIND_CHARGE,
    KIND_SEND,
    MAX_FRAME_BYTES,
    _FRAME_PREFIX,
)
from repro.net.network_config import NetworkConfig
from repro.net.transport import Transport, WALL_CLOCK
from repro.sim import Event
from repro.sim.realtime import WallClockEnvironment
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId

__all__ = ["TcpTransport"]

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

#: Bytes asked of the kernel per readable socket.  They land in one
#: buffer per transport (``recv_into``): a fresh 256 KiB object per read
#: made the allocator grow and trim the heap top on every read in some
#: heap layouts, a page fault per 4 KiB.
_RECV_BYTES = 1 << 18


class _Link:
    """One non-blocking socket and its two buffers: received bytes not
    yet a whole frame, and frame bytes the kernel has not taken yet."""

    __slots__ = ("sock", "inbuf", "outbuf", "reading", "events")

    def __init__(self, sock: socket.socket, reading: bool):
        sock.setblocking(False)
        # Frames are small and each one is awaited: without this,
        # Nagle's algorithm holds a frame back for the previous ACK.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.reading = reading
        self.events = 0  # what the selector watches now


class TcpTransport(Transport):
    """Delivers the cluster's messages over real localhost TCP sockets.

    The caller contract is the base class's, shared with
    :class:`~repro.net.network.SimTransport`; what differs is that
    delivery instants come from actual socket arrivals on the wall
    clock, so the environment must be a
    :class:`~repro.sim.realtime.WallClockEnvironment`, which reads
    ``inflight`` and calls :meth:`poll` from its run loop.

    ``delivered_log`` records ``(category, src, dst, size_bytes)`` for
    every message frame that actually crossed a socket — the evidence
    the equivalence tests compare against the simulation's accounted
    multiset.
    """

    clock = WALL_CLOCK
    _wire_up = False  # until start(), and again after close()

    def __init__(self, env, config: NetworkConfig, tracer=None,
                 injector=None, host: str = "127.0.0.1",
                 start_timeout_s: float = 20.0):
        if not isinstance(env, WallClockEnvironment):
            raise ConfigurationError(
                "TcpTransport needs a WallClockEnvironment "
                "(repro.sim.realtime) — socket arrivals land on the wall "
                "clock, not the virtual one"
            )
        super().__init__(env, config, tracer, injector)
        self.host = host
        self.start_timeout_s = start_timeout_s
        #: wire_id -> (delivery event, original message) for frames whose
        #: arrival must fire a delivery; duplicates miss and are dropped.
        self._pending: Dict[int, Tuple[Event, Message]] = {}
        #: Frames written (or waiting to be) but not yet arrived: the
        #: environment's source count, which keeps the wall-clock run
        #: loop alive while the wire is busy.
        self.inflight = 0
        self.delivered_log: List[Tuple[str, int, int, int]] = []
        self._send_error: Optional[ProtocolError] = None
        self._nodes: List[int] = []
        self._selector: Optional[selectors.BaseSelector] = None
        self._links: List[_Link] = []  # every socket, for close()
        self._out: Dict[Tuple[int, int], _Link] = {}  # (src, dst) -> link
        self._recv_view = memoryview(bytearray(_RECV_BYTES))
        self._closed = False
        env.attach_source(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self, nodes: Iterable[NodeId]) -> None:
        if self._wire_up:
            return
        if self._closed:
            raise ProtocolError("transport already closed")
        self._nodes = [node.value for node in nodes]
        self._selector = selectors.DefaultSelector()
        try:
            with socket.create_server((self.host, 0)) as server:
                server.settimeout(self.start_timeout_s)
                self._connect_mesh(server)
        except OSError as exc:  # socket.timeout included
            raise ProtocolError(
                f"TCP transport failed to start: {exc!r}") from exc
        self._wire_up = True

    def _link(self, sock: socket.socket, reading: bool) -> _Link:
        link = _Link(sock, reading)
        self._links.append(link)
        self._watch(link)
        return link

    def _connect_mesh(self, server: socket.socket) -> None:
        """One connection per ordered pair: ``src`` writes its frames
        for ``dst`` into one end, and the other end is read as ``dst``."""
        address = server.getsockname()
        for src in self._nodes:
            for dst in self._nodes:
                if src != dst:
                    self._out[src, dst] = self._link(socket.create_connection(
                        address, timeout=self.start_timeout_s), False)
                    self._link(server.accept()[0], True)

    def close(self) -> None:
        """Close every socket and the selector."""
        if self._closed:
            return
        self._closed = True
        self._wire_up = False
        for link in self._links:
            link.sock.close()
        if self._selector is not None:
            self._selector.close()

    def _require_started(self) -> None:
        if self._closed:
            raise ProtocolError("TCP transport already closed")
        raise ProtocolError(
            "TCP transport not started — Cluster.run() brings it up, "
            "or call transport.start(nodes) directly"
        )

    # -- writes ------------------------------------------------------------

    def _put_on_wire(self, message, done, transfer_time, faults) -> None:
        """Write the surviving attempt's frame: the wire made literal.

        Dropped attempts never get here, so never reach the socket; a
        retransmit gets here after a real ``transfer_time + retransmit
        timeout`` wait.  A duplicate is written twice and its second
        arrival discarded (its ``wire_id`` is no longer pending).  A
        ``charge`` frame (``done is None``) crosses the socket too, but
        its caller has the *modeled* delay and nobody waits for it.
        The frame goes to the kernel here, unless jitter delays it (an
        engine timer flushes it) or bytes already wait in the out-buffer.
        """
        if done is not None:
            self._pending[message.wire_id] = (done, message)
        data = encode_frame(message,
                            KIND_CHARGE if done is None else KIND_SEND)
        if faults.duplicated:
            data *= 2
            self.inflight += 2
        else:
            self.inflight += 1
        link = self._out[message.src.value, message.dst.value]
        if faults.extra_delay_s > 0.0:
            self.env.call_later(faults.extra_delay_s, self._flush, link, data)
        elif link.outbuf:
            link.outbuf += data  # frames never interleave
        else:
            try:
                sent = link.sock.send(data)
            except OSError as exc:
                sent = self._send_failed(exc)
            if sent < len(data):
                link.outbuf += data[sent:]
                self._watch(link)

    def _flush(self, link: _Link, data: bytes = b"") -> None:
        """Append ``data`` to ``link``'s out-buffer and send what the
        kernel takes of it now; watch ``EVENT_WRITE`` while any is left."""
        buf = link.outbuf
        buf += data
        try:
            del buf[:link.sock.send(buf)]
        except OSError as exc:
            self._send_failed(exc)
        self._watch(link)

    def _send_failed(self, exc: OSError) -> int:
        """Bytes a send that raised ``exc`` took: none.  Beyond a full
        buffer, a failed send is the wire's failure, not the caller's —
        the caller may be a transaction mid-step — so it is kept for
        :meth:`poll` to raise out of the run loop."""
        if self._send_error is None and not isinstance(exc, BlockingIOError):
            self._send_error = ProtocolError(f"TCP send failed: {exc}")
        return 0

    def _watch(self, link: _Link) -> None:
        """Point the selector at what ``link`` waits for now."""
        events = (_READ if link.reading else 0) | (_WRITE if link.outbuf else 0)
        if events == link.events:
            return
        if not link.events:
            self._selector.register(link.sock, events, link)
        elif not events:
            self._selector.unregister(link.sock)
        else:
            self._selector.modify(link.sock, events, link)
        link.events = events

    # -- reads: the environment's source hook ------------------------------

    def poll(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for frames and fire each one
        that arrives; ``True`` if any did, ``False`` once the timeout
        has passed without one.  Raises the first failed send."""
        deadline = time.monotonic() + timeout
        while True:
            if self._send_error is not None:
                raise self._send_error
            arrived = False
            for key, mask in self._selector.select(timeout):
                if mask & _WRITE:
                    self._flush(key.data)
                if mask & _READ and self._read(key.data):
                    arrived = True
            if arrived:
                return True
            timeout = deadline - time.monotonic()
            if timeout <= 0.0:
                return False

    def _read(self, link: _Link) -> bool:
        """Take what ``link`` has, move the clock to the wall instant of
        the read, and fire every whole frame in it.  A length prefix over
        ``MAX_FRAME_BYTES`` is corrupt — waiting for bytes that never
        come would hang the reader until the stall timeout — so it
        raises :class:`ProtocolError` at once, as :func:`decode_frame`
        does for a bad header."""
        try:
            count = link.sock.recv_into(self._recv_view)
        except BlockingIOError:
            return False
        except ConnectionResetError:
            count = 0
        if not count:
            # The peer went away: frames still owed on this link never
            # land, and the run loop's stall timeout reports them.
            link.reading = False
            self._watch(link)
            return False
        env = self.env
        env.now = now = max(env.now, time.monotonic() - env._start_wall)
        buf = link.inbuf
        buf += self._recv_view[:count]
        size = len(buf)
        pending = self._pending
        log = self.delivered_log
        used = 0
        while size - used >= FRAME_PREFIX_BYTES:
            (length,) = _FRAME_PREFIX.unpack_from(buf, used)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame length prefix {length} exceeds "
                                    f"the {MAX_FRAME_BYTES} byte frame limit")
            end = used + FRAME_PREFIX_BYTES + length
            if end > size:
                break
            kind, category, src, dst, size_bytes, wire = decode_frame(
                buf, used, end)
            used = end
            self.inflight -= 1
            log.append((category, src, dst, size_bytes))
            if kind == KIND_SEND:  # charge frames: accounted at send time
                entry = pending.pop(wire, None)  # ``None``: a duplicate
                if entry is not None:
                    done, message = entry
                    message.deliver_time = now
                    done.succeed(message)
        del buf[:used]
        return used > 0
