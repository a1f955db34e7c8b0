"""One cluster node's wire relay, as a real OS process.

``python -m repro.net.tcp_node --node N --coordinator HOST:PORT`` is
what :class:`~repro.net.tcp.TcpTransport` spawns per node in
``processes`` mode.  The relay owns node ``N``'s network presence — its
listening socket and its outbound peer connections — while all protocol
state stays in the coordinator:

1. bind a listening socket on an ephemeral port;
2. dial the coordinator and send ``{"t": "hello", "node": N, "port": p}``;
3. wait for the ``{"t": "peers", "ports": {...}}`` map;
4. relay: message frames arriving on the uplink are forwarded to their
   ``dst`` peer's socket; frames arriving from peers are forwarded up
   the uplink; ``{"t": "shutdown"}`` exits.

Message frames are opaque to the relay beyond ``dst``, which it reads
off the binary header: it forwards the frame's bytes as they came,
decoding nothing else, so every message crosses two real sockets
(coordinator → src relay → dst relay) and node-to-node traffic is
genuinely inter-process.  Only control frames are JSON.

Partition awareness: ``{"t": "partition", "group_a": [...]}`` opens a
bipartition and ``{"t": "partition_heal", ...}`` closes it.  While a
cut is open the relay *refuses* to forward any message frame whose
``dst`` is on the other side — it reports ``{"t": "refused", "frame":
<the frame's bytes, base64>}`` up the uplink instead, and the
coordinator re-ships those bytes after a retransmit turnaround.  The
engine's fault injector is the authoritative (and fully accounted)
partition model; the relay check makes the real wire honour the cut
too.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
from typing import Dict, FrozenSet, Optional, Tuple

from repro.net.message import (
    FRAME_PREFIX_BYTES,
    MESSAGE_MARKER,
    decode_frame,
    pack_frame,
    unpack_frame,
)
from repro.net.tcp import read_frame


async def _send(writer: asyncio.StreamWriter, frame: bytes) -> None:
    writer.write(frame)
    await writer.drain()


class NodeRelay:
    def __init__(self, node: int, coordinator: Tuple[str, int]):
        self.node = node
        self.coordinator = coordinator
        self.peer_ports: Dict[int, int] = {}
        self._peer_writers: Dict[int, asyncio.StreamWriter] = {}
        self._peer_locks: Dict[int, asyncio.Lock] = {}
        self._uplink_writer: asyncio.StreamWriter = None
        self._uplink_lock = asyncio.Lock()
        #: Open bipartition (one side's node set), or None when whole.
        self._cut: Optional[FrozenSet[int]] = None

    async def run(self) -> None:
        host = self.coordinator[0]
        server = await asyncio.start_server(self._serve_peer, host, 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection(*self.coordinator)
        self._uplink_writer = writer
        await _send(writer, pack_frame(
            {"t": "hello", "node": self.node, "port": port}))
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                if (len(frame) > FRAME_PREFIX_BYTES
                        and frame[FRAME_PREFIX_BYTES] == MESSAGE_MARKER):
                    await self._forward(frame)
                    continue
                control = unpack_frame(frame[FRAME_PREFIX_BYTES:])
                kind = control.get("t")
                if kind == "shutdown":
                    return
                if kind == "peers":
                    self.peer_ports = {
                        int(node): peer_port
                        for node, peer_port in control["ports"].items()
                    }
                elif kind == "partition":
                    self._cut = frozenset(control["group_a"])
                elif kind == "partition_heal":
                    self._cut = None
        finally:
            server.close()
            for peer in self._peer_writers.values():
                peer.close()
            writer.close()

    async def _forward(self, frame: bytes) -> None:
        dst = decode_frame(frame, 0, len(frame))[3]
        cut = self._cut
        if cut is not None and (self.node in cut) != (dst in cut):
            # Cross-partition frame: refuse it back up the uplink; the
            # coordinator re-ships after a retransmit turnaround.
            refusal = pack_frame({"t": "refused", "frame": base64.b64encode(
                frame).decode("ascii")})
            async with self._uplink_lock:
                await _send(self._uplink_writer, refusal)
            return
        lock = self._peer_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            writer = self._peer_writers.get(dst)
            if writer is None:
                host = self.coordinator[0]
                _reader, writer = await asyncio.open_connection(
                    host, self.peer_ports[dst]
                )
                self._peer_writers[dst] = writer
            await _send(writer, frame)

    async def _serve_peer(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    return
                async with self._uplink_lock:
                    await _send(self._uplink_writer, frame)
        except asyncio.CancelledError:
            return  # relay shutdown cancels handlers mid-read; that's fine
        finally:
            writer.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.net.tcp_node",
        description="wire relay for one cluster node (processes mode)",
    )
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--coordinator", required=True,
                        metavar="HOST:PORT")
    options = parser.parse_args(argv)
    host, _, port = options.coordinator.rpartition(":")
    relay = NodeRelay(options.node, (host, int(port)))
    asyncio.run(relay.run())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
