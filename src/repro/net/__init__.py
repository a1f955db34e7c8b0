"""Cluster networking: message model, cost model, and transports.

The paper models exactly two network knobs (its Figures 6-8 sweep
both): link bandwidth (10 Mbps, 100 Mbps, 1 Gbps — switched, so no
collisions) and the per-message *software cost* (startup latency of
the messaging protocol: 100 us down to 500 ns).  :class:`NetworkConfig`
captures those knobs.  What moves the messages is a :class:`Transport`:
the base class owns the one wire pipeline — fault draw, pricing,
accounting, tracing, retransmission — and attributes every byte,
message, and microsecond to a traffic category and (when relevant) a
shared object, which is what the figure-reproduction benches read.  A
backend supplies only the wire primitive:

* :class:`SimTransport` (the default) delivers over the simulation's
  virtual clock.
* :class:`TcpTransport` delivers the same wire messages as
  length-prefixed binary frames over a mesh of real localhost TCP
  connections owned by the engine thread, stamping deliveries with the
  wall clock.

Stable public surface
---------------------
``Message``/``MessageCategory``/``SizeModel`` (the message model),
``Transport``/``SimTransport``/``TcpTransport`` (pipeline and backends),
``NetworkConfig`` and the bandwidth presets (the cost model), and
``NetworkStats``/``ObjectTraffic``/``NodeTraffic`` (accounting).
Everything else under ``repro.net`` is implementation detail.
"""

from repro.net.message import Message, MessageCategory
from repro.net.network import SimTransport
from repro.net.network_config import NetworkConfig
from repro.net.presets import (
    ETHERNET_10M,
    FAST_ETHERNET_100M,
    GIGABIT_1G,
    SOFTWARE_COSTS,
    preset_network,
)
from repro.net.sizes import SizeModel
from repro.net.stats import NetworkStats, NodeTraffic, ObjectTraffic
from repro.net.transport import Transport, VIRTUAL_CLOCK, WALL_CLOCK

__all__ = [
    "Message",
    "MessageCategory",
    "Transport",
    "SimTransport",
    "TcpTransport",
    "NetworkConfig",
    "NetworkStats",
    "ObjectTraffic",
    "NodeTraffic",
    "SizeModel",
    "VIRTUAL_CLOCK",
    "WALL_CLOCK",
    "ETHERNET_10M",
    "FAST_ETHERNET_100M",
    "GIGABIT_1G",
    "SOFTWARE_COSTS",
    "preset_network",
]


def __getattr__(name):
    # TcpTransport pulls in socket/selector machinery; load it only
    # when a caller actually asks for the real-socket backend.
    if name == "TcpTransport":
        from repro.net.tcp import TcpTransport

        return TcpTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
