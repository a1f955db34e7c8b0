"""The simulation transport: point-to-point switched network over the
virtual clock — the default :class:`~repro.net.transport.Transport`.
Fault draws, accounting, tracing and retransmission are the shared
pipeline of the base class; this backend is only the wire primitive,
which the base class's one-frame FIFO send inlines."""

from __future__ import annotations

from heapq import heappush

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

    lands_on_clock = True

    def _put_on_wire(self, message, done, transfer_time, faults) -> None:
        """Land the frame one ``transfer_time`` from now.  A ``charge``
        (``done is None``) moved its data already and defers the delay
        to its caller, so there is nothing left to schedule.

        On the FIFO fast path the pending ``Delivery`` itself is the
        one heap entry: popping it lands the message and runs its
        callbacks (:meth:`Delivery._process`).  With a tie-break policy
        installed a ``_Call`` lands it and ``succeed`` queues it, so
        the policy ranks the two entries it always ranked."""
        if done is not None:
            env = self.env
            message.deliver_time = when = env.now + transfer_time
            if env._tiebreak is None:
                heappush(env._queue, (when, next(env._sequence), done))
            else:
                env.call_later(transfer_time, done.succeed, message)
