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

* **writes** are a non-blocking ``send``; what the kernel does not take
  waits in the connection's out-buffer, flushed on ``EVENT_WRITE``;
* **reads** happen in :meth:`TcpTransport.poll`, the environment's
  source hook, over one ``selectors.DefaultSelector``: the byte stream
  is split into frames and each message frame's header is read in
  place and fires its delivery inline, at the wall instant it was read;
* **fault mechanics** are engine timers: jitter delays the write, and
  a duplicate is written twice and its second arrival discarded.
  Partitions are the injector's: a cut attempt is never written.

Because a send's delivery event is resolved by the *arrival* of its
frame (matched by ``wire_id``), late/duplicate frames are discarded
exactly like the simulation's one-shot events discard them, and
``pending()`` keeps the run loop alive until the last frame lands.  A
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


def _frame_length(data, offset: int) -> int:
    """The body length the prefix at ``offset`` announces.

    A length over ``MAX_FRAME_BYTES`` is corrupt — waiting for bytes
    that never come would hang the reader until the stall timeout — so
    it raises :class:`ProtocolError` at once.
    """
    (length,) = _FRAME_PREFIX.unpack_from(data, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length prefix {length} exceeds the "
                            f"{MAX_FRAME_BYTES} byte frame limit")
    return length


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
    :class:`~repro.sim.realtime.WallClockEnvironment`, which calls
    :meth:`pending` and :meth:`poll` from its run loop.

    ``delivered_log`` records ``(category, src, dst, size_bytes)`` for
    every message frame that actually crossed a socket — the evidence
    the equivalence tests compare against the simulation's accounted
    multiset.
    """

    clock = WALL_CLOCK

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
        #: Frames written (or waiting to be) but not yet arrived; keeps
        #: the wall-clock run loop alive while the wire is busy.
        self._inflight = 0
        self.delivered_log: List[Tuple[str, int, int, int]] = []
        self._send_error: Optional[ProtocolError] = None
        self._nodes: List[int] = []
        self._selector: Optional[selectors.BaseSelector] = None
        self._links: List[_Link] = []  # every socket, for close()
        self._out: Dict[Tuple[int, int], _Link] = {}  # (src, dst) -> link
        self._recv_view = memoryview(bytearray(_RECV_BYTES))
        self._started = False
        self._closed = False
        env.attach_source(self)

    # -- lifecycle ---------------------------------------------------------

    def start(self, nodes: Iterable[NodeId]) -> None:
        if self._started:
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
        self._started = True

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
        for link in self._links:
            link.sock.close()
        if self._selector is not None:
            self._selector.close()

    def _require_started(self) -> None:
        if not self._started:
            raise ProtocolError(
                "TCP transport not started — Cluster.run() brings it up, "
                "or call transport.start(nodes) directly"
            )
        if self._closed:
            raise ProtocolError("TCP transport already closed")

    # -- writes ------------------------------------------------------------

    def _put_on_wire(self, message, done, transfer_time, faults) -> None:
        """Write the surviving attempt's frame: the wire made literal.

        Dropped attempts never get here, so never reach the socket; a
        retransmit gets here after a real ``transfer_time + retransmit
        timeout`` wait.  Jitter delays the write on an engine timer; a
        duplicate is written twice and its second arrival discarded in
        :meth:`_deliver_frame` (its ``wire_id`` is no longer pending).  A
        ``charge`` frame (``done is None``) crosses the socket too, but
        its caller has the *modeled* delay and nobody waits for it.
        """
        if done is not None:
            self._pending[message.wire_id] = (done, message)
        data = encode_frame(message,
                            KIND_CHARGE if done is None else KIND_SEND)
        if faults.duplicated:
            data *= 2
            self._inflight += 2
        else:
            self._inflight += 1
        link = self._out[message.src.value, message.dst.value]
        self._write_after(faults.extra_delay_s, link, data)

    def _write_after(self, delay_s: float, link: _Link, data: bytes) -> None:
        if delay_s > 0.0:
            self.env.call_later(delay_s, self._write, link, data)
        else:
            self._write(link, data)

    def _write(self, link: _Link, data: bytes) -> None:
        """Send what the kernel takes now; queue the rest behind any
        bytes already waiting, so frames never interleave."""
        if not link.outbuf:
            sent = self._send(link, data)
            if sent == len(data):
                return
            data = memoryview(data)[sent:]
        link.outbuf += data
        self._watch(link)

    def _flush(self, link: _Link) -> None:
        del link.outbuf[:self._send(link, link.outbuf)]
        if not link.outbuf:
            self._watch(link)

    def _send(self, link: _Link, data) -> int:
        """Bytes of ``data`` the kernel took.  A failed send is the
        wire's failure, not the caller's — the caller may be a
        transaction mid-step — so it is kept for :meth:`poll` to raise
        out of the run loop, and the frame counts as not yet taken."""
        try:
            return link.sock.send(data)
        except BlockingIOError:
            return 0
        except OSError as exc:
            if self._send_error is None:
                self._send_error = ProtocolError(
                    f"TCP send failed: {exc}")
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

    # -- reads: the environment's source hooks -----------------------------

    def pending(self) -> int:
        """Frames in flight — the wall-clock run loop waits for this to
        reach zero before declaring quiescence."""
        return self._inflight

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
        """Take what ``link`` has and fire every whole frame in it."""
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
        buf = link.inbuf
        buf += self._recv_view[:count]
        self.env.advance()
        used = 0
        while len(buf) - used >= FRAME_PREFIX_BYTES:
            end = used + FRAME_PREFIX_BYTES + _frame_length(buf, used)
            if end > len(buf):
                break
            self._deliver_frame(buf, used, end)
            used = end
        del buf[:used]
        return used > 0

    def _deliver_frame(self, buf: bytearray, start: int, end: int) -> None:
        """Fire the delivery for the message frame at ``buf[start:end]``."""
        kind, category, src, dst, size, wire = decode_frame(buf, start, end)
        self._inflight -= 1
        self.delivered_log.append((category, src, dst, size))
        if kind != KIND_SEND:
            return  # charge-path frames were fully accounted at send time
        entry = self._pending.pop(wire, None)
        if entry is None:
            return  # duplicate copy — receiver discards it
        done, message = entry
        message.deliver_time = self.env.now
        done.succeed(message)
