"""Real-transport backend: the cluster's wire messages over localhost TCP.

Each cluster node gets a TCP endpoint — an asyncio server task inside a
background event loop by default, or a real OS relay process in
``processes`` mode — and every remote :class:`~repro.net.message.Message`
crosses an actual socket as one length-prefixed frame, padded to the
cost model's ``size_bytes`` (see ``repro.net.message``).

Division of labour (this is the whole design):

* The **engine thread** (the caller's thread, running a
  :class:`~repro.sim.realtime.WallClockEnvironment`) keeps *all*
  protocol-visible state: fault draws, retransmission scheduling,
  :class:`~repro.net.stats.NetworkStats` accounting, tracing, and the
  delivery events themselves — the shared pipeline of
  :class:`~repro.net.transport.Transport`, which hands
  :meth:`TcpTransport._put_on_wire` only attempts that survived their
  fault draw: a dropped attempt is accounted but *never written to
  the socket* (genuine socket-level loss), a delay becomes a real
  sleep before the write, a duplicate is written twice and discarded
  at the receiver.
* The **socket thread** runs a private asyncio loop and only moves
  bytes.  Frames to ship are posted to it with
  ``call_soon_threadsafe``; decoded arrivals come back through
  ``env.call_threadsafe`` so delivery events fire on the engine thread
  at the frame's wall arrival instant.

Because a send's delivery event is resolved by the *arrival* of its
frame (matched by ``wire_id``), late/duplicate frames are discarded
exactly like the simulation's one-shot events discard them, and the
run loop's in-flight counter (``pending()``) keeps the environment
alive until the last frame lands.

In ``processes`` mode each node endpoint is ``python -m
repro.net.tcp_node``: the child owns the node's listening socket and
its peer connections, and relays frames to/from the coordinator over
an uplink connection.  Protocol state still lives in the coordinator —
children are pure wire relays, so both modes share one semantics.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
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
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.ids import NodeId

__all__ = ["TcpTransport", "read_envelope", "write_envelope"]


async def read_envelope(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one framed envelope; ``None`` when the stream ends (clean
    EOF, or a peer that went away mid-frame).

    A length prefix over ``MAX_FRAME_BYTES`` is corrupt — waiting for
    bytes that never come would hang the reader until the stall
    timeout — so it, like a body that does not decode to a JSON
    object, raises :class:`ProtocolError`.
    """
    try:
        prefix = await reader.readexactly(FRAME_PREFIX_BYTES)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = _FRAME_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length prefix {length} exceeds the "
                            f"{MAX_FRAME_BYTES} byte frame limit")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return unpack_frame(body)


async def write_envelope(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(pack_frame(payload))
    await writer.drain()


class _NodeEndpoint:
    """One node's socket endpoint inside the coordinator's loop
    (asyncio-task mode): a listening server for inbound frames and a
    lazy outbound connection per peer."""

    def __init__(self, transport: "TcpTransport", index: int):
        self.transport = transport
        self.index = index
        self.port: Optional[int] = None
        self.server: Optional[asyncio.base_events.Server] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._locks: Dict[int, asyncio.Lock] = {}

    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._serve, self.transport.host, 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                frame = await read_envelope(reader)
                if frame is None:
                    return
                self.transport._arrived(frame)
        except asyncio.CancelledError:
            return  # loop shutdown cancels handlers mid-read; that's fine
        finally:
            writer.close()

    async def ship(self, dst: int, data: bytes, delay_s: float) -> None:
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        # One outbound writer per (src, dst) pair; the lock keeps
        # concurrent delayed shippers from interleaving partial frames.
        lock = self._locks.setdefault(dst, asyncio.Lock())
        async with lock:
            writer = self._writers.get(dst)
            if writer is None:
                port = self.transport._port_of(dst)
                _reader, writer = await asyncio.open_connection(
                    self.transport.host, port
                )
                self._writers[dst] = writer
            writer.write(data)
            await writer.drain()

    async def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()


class TcpTransport(Transport):
    """Delivers the cluster's messages over real localhost TCP sockets.

    The caller contract is the base class's, shared with
    :class:`~repro.net.network.SimTransport`; what differs is that
    delivery instants come from actual socket arrivals on the wall
    clock, so the environment must provide
    ``call_threadsafe``/``attach_source`` — i.e. be a
    :class:`~repro.sim.realtime.WallClockEnvironment`.

    ``delivered_log`` records ``(category, src, dst, size_bytes)`` for
    every message frame that actually crossed a socket — the evidence
    the equivalence tests compare against the simulation's accounted
    multiset.
    """

    clock = WALL_CLOCK

    def __init__(self, env, config: NetworkConfig, tracer=None,
                 injector=None, processes: bool = False,
                 host: str = "127.0.0.1", start_timeout_s: float = 20.0):
        if not hasattr(env, "call_threadsafe"):
            raise ConfigurationError(
                "TcpTransport needs a WallClockEnvironment "
                "(repro.sim.realtime) — plain Environment has no "
                "thread-safe inbox for socket arrivals"
            )
        super().__init__(env, config, tracer, injector)
        self.processes = processes
        self.host = host
        self.start_timeout_s = start_timeout_s
        #: wire_id -> (delivery event, original message) for frames whose
        #: arrival must fire a delivery; duplicates miss and are dropped.
        self._pending: Dict[int, Tuple[Event, Message]] = {}
        #: Frames written (or queued to be written) but not yet arrived;
        #: keeps the wall-clock run loop alive while the wire is busy.
        self._inflight = 0
        self.delivered_log: List[Tuple[str, int, int, int]] = []
        #: Frames a partitioned relay refused to forward (processes
        #: mode).  Wire-level evidence only: the authoritative partition
        #: enforcement — and all accounting — lives in the injector, so
        #: this counter never feeds FaultStats.
        self.refused_frames = 0
        self._nodes: List[int] = []
        self._ports: Dict[int, int] = {}
        self._endpoints: Dict[int, _NodeEndpoint] = {}
        self._uplinks: Dict[int, asyncio.StreamWriter] = {}
        self._children: List = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._started = False
        self._closed = False
        env.attach_source(self)

    # -- run-loop liveness -------------------------------------------------

    def pending(self) -> int:
        """Frames in flight (engine thread only) — the wall-clock run
        loop waits for this to reach zero before declaring quiescence."""
        return self._inflight

    # -- lifecycle ---------------------------------------------------------

    def start(self, nodes: Iterable[NodeId]) -> None:
        if self._started:
            return
        if self._closed:
            raise ProtocolError("transport already closed")
        self._nodes = [node.value for node in nodes]
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-tcp-transport", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.start_timeout_s):
            raise ProtocolError(
                f"TCP transport failed to start within "
                f"{self.start_timeout_s}s"
            )
        if self._startup_error is not None:
            raise ProtocolError(
                f"TCP transport failed to start: {self._startup_error!r}"
            )
        self._started = True
        if self.processes:
            self._schedule_partition_epochs()

    def _schedule_partition_epochs(self) -> None:
        """Arm engine-clock timers that push partition state to relays.

        The injector's fault draws are the *authoritative* partition
        enforcement (identical on both backends); this makes the real
        wire honour the cut too, belt and braces: a frame that slips
        past the engine-side check (written just before the window
        opened, arriving at the relay inside it) is refused at the src
        relay and re-shipped by the coordinator after the retransmit
        timeout until the heal lets it through.
        """
        plan = getattr(self.injector, "plan", None)
        if plan is None or not getattr(plan, "partitions", ()):
            return
        for cut in plan.partitions:
            def activate(_event, cut=cut):
                self._post_control({
                    "t": "partition", "group_a": list(cut.group_a),
                })

            def heal(_event, cut=cut):
                self._post_control({
                    "t": "partition_heal", "group_a": list(cut.group_a),
                })

            now = self.env.now
            self.env.timeout(max(0.0, cut.at_s - now)).add_callback(activate)
            self.env.timeout(
                max(0.0, cut.heal_at_s - now)).add_callback(heal)

    def _post_control(self, payload: dict) -> None:
        """Broadcast a control frame to every relay (engine thread)."""
        loop = self._loop
        if loop is None or self._closed:
            return
        loop.call_soon_threadsafe(self._loop_broadcast, dict(payload))

    def close(self) -> None:
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and loop.is_running():
            loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=self.start_timeout_s)

    def _require_started(self) -> None:
        if not self._started:
            raise ProtocolError(
                "TCP transport not started — Cluster.run() brings it up, "
                "or call transport.start(nodes) directly"
            )
        if self._closed:
            raise ProtocolError("TCP transport already closed")

    # -- the wire primitive (engine thread) --------------------------------

    def _put_on_wire(self, message, done, transfer_time, faults) -> None:
        """Ship the surviving attempt's frame: the wire made literal.

        Dropped attempts never get here, so never reach the socket; a
        retransmit gets here after a real ``transfer_time + retransmit
        timeout`` sleep.  Jitter is slept before the write; a duplicate
        is written twice and its second arrival discarded in
        :meth:`_deliver` (its ``wire_id`` is no longer pending).  A
        ``charge`` frame (``done is None``) crosses the socket too, but
        its caller has the *modeled* delay and nobody waits for it.
        """
        if done is not None:
            self._pending[message.wire_id] = (done, message)
        self._post(message, kind="charge" if done is None else "send",
                   delay_s=faults.extra_delay_s,
                   copies=2 if faults.duplicated else 1)

    def _post(self, message: Message, kind: str, delay_s: float,
              copies: int) -> None:
        """Hand a frame to the socket thread (engine thread side)."""
        data = encode_frame(message, kind=kind)
        self._inflight += copies
        src, dst = message.src.value, message.dst.value
        assert self._loop is not None
        self._loop.call_soon_threadsafe(
            self._loop_enqueue, src, dst, data, delay_s, copies
        )

    # -- arrivals ----------------------------------------------------------

    def _arrived(self, frame: dict) -> None:
        """A message frame landed (socket thread) — hop to the engine."""
        self.env.call_threadsafe(lambda: self._deliver(frame))

    def _deliver(self, frame: dict) -> None:
        """Fire the delivery for an arrived frame (engine thread)."""
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

    # -- socket thread -----------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._loop_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced at start()
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _loop_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            if self.processes:
                await self._start_processes()
            else:
                for index in self._nodes:
                    endpoint = _NodeEndpoint(self, index)
                    await endpoint.start()
                    self._endpoints[index] = endpoint
                    self._ports[index] = endpoint.port
            self._ready.set()
            await self._shutdown.wait()
        finally:
            await self._teardown()

    def _port_of(self, index: int) -> int:
        try:
            return self._ports[index]
        except KeyError:
            raise ProtocolError(f"no endpoint for node {index}") from None

    def _loop_enqueue(self, src: int, dst: int, data: bytes,
                      delay_s: float, copies: int) -> None:
        for _ in range(copies):
            if self.processes:
                asyncio.ensure_future(self._uplink_ship(src, data, delay_s))
            else:
                asyncio.ensure_future(
                    self._endpoints[src].ship(dst, data, delay_s)
                )

    # -- process mode ------------------------------------------------------

    async def _uplink_ship(self, src: int, data: bytes,
                           delay_s: float) -> None:
        # Jitter is applied before the relay hop — socket-level delay at
        # the source, mirroring the asyncio-task mode.
        if delay_s > 0.0:
            await asyncio.sleep(delay_s)
        writer = self._uplinks[src]
        writer.write(data)
        await writer.drain()

    def _loop_broadcast(self, payload: dict) -> None:
        """Write one control frame to every uplink (socket thread)."""
        for writer in self._uplinks.values():
            asyncio.ensure_future(write_envelope(writer, payload))

    def _loop_reship(self, refusal: dict) -> None:
        """A relay refused a cross-partition frame — re-ship it later.

        The attempt was already fully accounted when it was posted (the
        refusal is wire-level, below the injector), so this is pure
        redelivery: re-send the same bytes through the src relay after
        one retransmit turnaround, escalating with the reship count.
        Keeps ``_inflight`` balanced — the frame is still outstanding
        and will decrement it when it finally lands.
        """
        inner = refusal["frame"]
        inner["reships"] = reships = inner.get("reships", 0) + 1
        self.refused_frames += 1
        delay = self.injector.retransmit_timeout_s(reships - 1)
        data = pack_frame(inner)
        src = inner["src"]
        assert self._loop is not None
        self._loop.call_later(delay, lambda: asyncio.ensure_future(
            self._uplink_ship(src, data, 0.0)))

    async def _start_processes(self) -> None:
        """Spawn one relay process per node and exchange the port map."""
        ready = asyncio.Event()

        async def handle_uplink(reader, writer):
            hello = await read_envelope(reader)
            if hello is None or hello.get("t") != "hello":
                writer.close()
                return
            node = hello["node"]
            self._ports[node] = hello["port"]
            self._uplinks[node] = writer
            if len(self._uplinks) == len(self._nodes):
                ready.set()
            while True:
                frame = await read_envelope(reader)
                if frame is None:
                    return
                if frame.get("t") == "msg":
                    self._arrived(frame)
                elif frame.get("t") == "refused":
                    self._loop_reship(frame)

        server = await asyncio.start_server(handle_uplink, self.host, 0)
        self._coordinator_server = server
        port = server.sockets[0].getsockname()[1]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        for index in self._nodes:
            child = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.net.tcp_node",
                "--node", str(index),
                "--coordinator", f"{self.host}:{port}",
                env=env,
            )
            self._children.append(child)
        await asyncio.wait_for(ready.wait(), timeout=self.start_timeout_s)
        # Every child knows every peer's listening port before any
        # protocol frame can be routed.
        peers = {"t": "peers", "ports": self._ports}
        for writer in self._uplinks.values():
            await write_envelope(writer, peers)

    async def _teardown(self) -> None:
        for writer in self._uplinks.values():
            try:
                await write_envelope(writer, {"t": "shutdown"})
                writer.close()
            except (ConnectionError, RuntimeError):
                pass
        for child in self._children:
            try:
                await asyncio.wait_for(child.wait(), timeout=5.0)
            except asyncio.TimeoutError:
                child.kill()
        server = getattr(self, "_coordinator_server", None)
        if server is not None:
            server.close()
            await server.wait_closed()
        for endpoint in self._endpoints.values():
            await endpoint.close()
