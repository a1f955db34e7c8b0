"""A small generator-based discrete-event simulation kernel.

This is the substrate the whole reproduction runs on: nodes, the
network, the GDO service, and every transaction family are simulation
processes scheduled against a virtual clock measured in seconds.

The design follows the classic process-interaction style (as in SimPy):

* :class:`Environment` owns the clock and the pending-event heap.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a Python generator; the generator *yields*
  events and is resumed when they fire.  A process is itself an event
  (it fires when the generator returns), so processes can join each
  other.

Only the features the LOTEC system needs are implemented — timeouts,
one-shot events with success/failure, process joining, ``AllOf``, and
callback timers that need no event (:meth:`Environment.call_later`) —
which keeps the kernel small enough to verify exhaustively in
``tests/test_sim_*.py``.
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.engine import Environment
from repro.sim.process import Process

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "WallClockEnvironment",
]


def __getattr__(name):
    # Imported lazily: repro.sim.realtime depends on repro.util.errors
    # only, but keeping it out of the hot import path preserves the
    # kernel's zero-cost import for the common virtual-clock case.
    if name == "WallClockEnvironment":
        from repro.sim.realtime import WallClockEnvironment

        return WallClockEnvironment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
