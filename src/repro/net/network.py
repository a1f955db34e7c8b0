"""The simulation transport: point-to-point switched network over the
virtual clock — the default :class:`~repro.net.transport.Transport`.
Fault draws, accounting, tracing and retransmission are the shared
pipeline of the base class; this backend is only the wire primitive."""

from __future__ import annotations

from repro.net.network_config import NetworkConfig
from repro.net.transport import Transport

__all__ = ["NetworkConfig", "SimTransport"]


class SimTransport(Transport):
    """Delivers messages over the simulation clock.

    The target environment is a *switched* system-area network (the
    paper simulates "switched (i.e. no collisions)" Ethernet), so
    messages between distinct node pairs do not contend.  We model each
    message as occupying the wire for its transfer time and deliver it
    that much later; per-link queueing is deliberately omitted, exactly
    as in the paper's cost model.
    """

    def _put_on_wire(self, message, done, transfer_time, faults) -> None:
        """Land the frame one ``transfer_time`` from now.  A ``charge``
        (``done is None``) moved its data already and defers the delay
        to its caller, so there is nothing left to schedule."""
        if done is not None:
            message.deliver_time = self.env.now + transfer_time
            self.env.call_later(transfer_time, done.succeed, message)
