"""Real-transport backend: the cluster's wire messages over localhost TCP.

Every remote :class:`~repro.net.message.Message` crosses an actual
socket as one length-prefixed frame, padded to the cost model's
``size_bytes`` (see ``repro.net.message``).  By default the coordinator
— the process running the protocol stack — holds a full mesh of
``(src, dst)`` connections, one per ordered pair of nodes; in
``processes`` mode each node is a real OS relay process (``python -m
repro.net.tcp_node``, which owns the node's listening socket and peer
connections) and the coordinator holds one uplink per relay.  Relays
only move bytes, so both modes share one semantics.

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
  is split into frames and each fires its delivery inline, at the wall
  instant it was read;
* **fault mechanics** are engine timers: jitter delays the write, a
  duplicate is written twice and its second arrival discarded, and
  partition epochs and re-ships of relay refusals are timeouts.

Because a send's delivery event is resolved by the *arrival* of its
frame (matched by ``wire_id``), late/duplicate frames are discarded
exactly like the simulation's one-shot events discard them, and
``pending()`` keeps the run loop alive until the last frame lands.  A
malformed frame raises :class:`ProtocolError` out of ``poll`` and so out
of ``Cluster.run()``; a peer that closes mid-frame strands its frames,
which the run loop's stall timeout reports.
"""

from __future__ import annotations

import asyncio
import os
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.message import (
    Message,
    encode_frame,
    pack_frame,
    unpack_frame,
    FRAME_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    _FRAME_PREFIX,
)
from repro.net.network_config import NetworkConfig
from repro.net.transport import Transport, WALL_CLOCK
from repro.sim import Event
from repro.sim.realtime import WallClockEnvironment
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId

__all__ = ["TcpTransport", "read_envelope", "write_envelope"]

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE

#: Bytes asked of the kernel per readable socket.
_RECV_BYTES = 1 << 18


def _frame_length(data, offset: int = 0) -> int:
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


async def read_envelope(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one framed envelope (the relay's reader); ``None`` when the
    stream ends (clean EOF, or a peer that went away mid-frame).  An
    over-limit prefix or a body that does not decode to a JSON object
    raises :class:`ProtocolError`."""
    try:
        prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
        length = _frame_length(prefix)
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return unpack_frame(body)


async def write_envelope(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(pack_frame(payload))
    await writer.drain()


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
                 injector=None, processes: bool = False,
                 host: str = "127.0.0.1", start_timeout_s: float = 20.0):
        if not isinstance(env, WallClockEnvironment):
            raise ConfigurationError(
                "TcpTransport needs a WallClockEnvironment "
                "(repro.sim.realtime) — socket arrivals land on the wall "
                "clock, not the virtual one"
            )
        super().__init__(env, config, tracer, injector)
        self.processes = processes
        self.host = host
        self.start_timeout_s = start_timeout_s
        #: wire_id -> (delivery event, original message) for frames whose
        #: arrival must fire a delivery; duplicates miss and are dropped.
        self._pending: Dict[int, Tuple[Event, Message]] = {}
        #: Frames written (or waiting to be) but not yet arrived; keeps
        #: the wall-clock run loop alive while the wire is busy.
        self._inflight = 0
        self.delivered_log: List[Tuple[str, int, int, int]] = []
        #: Frames a partitioned relay refused to forward (processes
        #: mode).  Wire-level evidence only: the authoritative partition
        #: enforcement — and all accounting — lives in the injector, so
        #: this counter never feeds FaultStats.
        self.refused_frames = 0
        self._nodes: List[int] = []
        self._selector: Optional[selectors.BaseSelector] = None
        self._links: List[_Link] = []  # every socket, for close()
        self._out: Dict[Tuple[int, int], _Link] = {}  # (src, dst) -> link
        self._uplinks: Dict[int, _Link] = {}  # processes mode: node -> link
        self._ports: Dict[int, int] = {}
        self._children: List[subprocess.Popen] = []
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
                if self.processes:
                    self._start_relays(server)
                else:
                    self._connect_mesh(server)
        except OSError as exc:  # socket.timeout included
            raise ProtocolError(
                f"TCP transport failed to start: {exc!r}") from exc
        self._started = True
        if self.processes:
            self._schedule_partition_epochs()

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

    def _start_relays(self, server: socket.socket) -> None:
        """Spawn one relay process per node; trade hellos for the port
        map, so every relay knows every peer before a frame is routed."""
        host, port = server.getsockname()[:2]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        for index in self._nodes:
            self._children.append(subprocess.Popen(
                [sys.executable, "-m", "repro.net.tcp_node",
                 "--node", str(index), "--coordinator", f"{host}:{port}"],
                env=env,
            ))
        for _ in self._nodes:
            self._link(server.accept()[0], True)
        deadline = time.monotonic() + self.start_timeout_s
        while len(self._uplinks) < len(self._nodes):
            if not self.poll(deadline - time.monotonic()):
                raise ProtocolError(f"relays did not say hello within "
                                    f"{self.start_timeout_s}s")
        peers = pack_frame({"t": "peers", "ports": self._ports})
        for link in self._uplinks.values():
            self._write(link, peers)

    def _schedule_partition_epochs(self) -> None:
        """Arm engine timers that push partition state to the relays.

        The injector's fault draws are the *authoritative* partition
        enforcement (identical on both backends); this makes the real
        wire honour the cut too, belt and braces: a frame that slips
        past the engine-side check (written just before the window
        opened, arriving at the relay inside it) is refused at the src
        relay and re-shipped by :meth:`_reship` until the heal lets it
        through.
        """
        plan = getattr(self.injector, "plan", None)
        for cut in getattr(plan, "partitions", ()):
            for at_s, kind in ((cut.at_s, "partition"),
                               (cut.heal_at_s, "partition_heal")):
                data = pack_frame({"t": kind, "group_a": list(cut.group_a)})
                self.env.call_later(max(0.0, at_s - self.env.now),
                                    self._broadcast, data)

    def _broadcast(self, data: bytes) -> None:
        for link in self._uplinks.values():
            self._write(link, data)

    def close(self) -> None:
        """Tell relays to exit, close every socket, reap every child."""
        if self._closed:
            return
        self._closed = True
        shutdown = pack_frame({"t": "shutdown"})
        for link in self._uplinks.values():
            try:
                link.sock.settimeout(self.start_timeout_s)
                link.sock.sendall(bytes(link.outbuf) + shutdown)
            except OSError:
                pass  # the relay is gone already; reaped below
        for link in self._links:
            link.sock.close()
        for child in self._children:
            try:
                child.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
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
        :meth:`_deliver` (its ``wire_id`` is no longer pending).  A
        ``charge`` frame (``done is None``) crosses the socket too, but
        its caller has the *modeled* delay and nobody waits for it.
        """
        if done is not None:
            self._pending[message.wire_id] = (done, message)
        copies = 2 if faults.duplicated else 1
        data = encode_frame(
            message, kind="charge" if done is None else "send") * copies
        self._inflight += copies
        src = message.src.value
        link = (self._uplinks[src] if self.processes
                else self._out[src, message.dst.value])
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

    @staticmethod
    def _send(link: _Link, data) -> int:
        try:
            return link.sock.send(data)
        except BlockingIOError:
            return 0
        except OSError as exc:
            raise ProtocolError(f"TCP send failed: {exc}") from None

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
        has passed without one."""
        deadline = time.monotonic() + timeout
        while True:
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
            chunk = link.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return False
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            # The peer went away: frames still owed on this link never
            # land, and the run loop's stall timeout reports them.
            link.reading = False
            self._watch(link)
            return False
        buf = link.inbuf
        buf += chunk
        self.env.advance()
        used = 0
        while len(buf) - used >= FRAME_PREFIX_BYTES:
            body = used + FRAME_PREFIX_BYTES
            end = body + _frame_length(buf, used)
            if end > len(buf):
                break
            self._on_frame(link, unpack_frame(buf[body:end]))
            used = end
        del buf[:used]
        return used > 0

    def _on_frame(self, link: _Link, frame: dict) -> None:
        kind = frame.get("t")
        if kind == "msg":
            self._deliver(frame)
        elif kind == "refused":
            self._reship(frame)
        elif kind == "hello":
            self._ports[frame["node"]] = frame["port"]
            self._uplinks[frame["node"]] = link
        else:
            raise ProtocolError(f"unexpected frame type {kind!r}")

    def _deliver(self, frame: dict) -> None:
        """Fire the delivery for an arrived message frame."""
        self._inflight -= 1
        self.delivered_log.append(
            (frame["category"], frame["src"], frame["dst"], frame["size"])
        )
        if frame.get("kind") != "send":
            return  # charge-path frames were fully accounted at send time
        entry = self._pending.pop(frame.get("wire"), None)
        if entry is None:
            return  # duplicate copy — receiver discards it
        done, message = entry
        message.deliver_time = self.env.now
        done.succeed(message)

    def _reship(self, refusal: dict) -> None:
        """A relay refused a cross-partition frame — re-ship it later.

        The attempt was already fully accounted when it was written (the
        refusal is wire-level, below the injector), so this is pure
        redelivery: the same frame goes back through the src relay
        after one retransmit turnaround, escalating with the reship
        count.  ``_inflight`` stays balanced — the frame is still
        outstanding and decrements it when it finally lands.
        """
        inner = refusal["frame"]
        inner["reships"] = reships = inner.get("reships", 0) + 1
        self.refused_frames += 1
        self._write_after(self.injector.retransmit_timeout_s(reships - 1),
                          self._uplinks[inner["src"]], pack_frame(inner))
