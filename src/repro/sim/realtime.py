"""A wall-clock twin of :class:`~repro.sim.engine.Environment`.

The simulation engine's contract — processes yield events, timeouts
fire after a delay, same-instant ties are re-ranked by a policy — is
kept intact, but time is *real*: ``now`` is seconds of wall clock since
the first :meth:`WallClockEnvironment.run` call, and timeouts sleep.

Deliveries from outside the heap come from one attached *source* (the
TCP transport) on the engine's own thread, through a two-method
contract: ``pending()`` is the number of items in flight, and
``poll(timeout) -> bool`` waits up to ``timeout`` seconds for arrivals,
fires them inline, and returns whether any fired — ``False`` only once
the timeout has passed.  The run loop is the textbook real-time DES
pattern: ``poll(0)`` between events; when the earliest heap event is
still in the future, ``poll`` until its due time (or ``time.sleep``
when nothing is in flight); then process.  Causality is therefore
preserved exactly as in the virtual-clock engine, while delivery
instants come from the operating system instead of the cost model.
"""

from __future__ import annotations

import heapq
import time
from typing import Optional

from repro.sim.engine import Environment
from repro.util.errors import ConfigurationError, ProtocolError


class _NoSource:
    """The source of an environment nothing is attached to."""

    @staticmethod
    def pending() -> int:
        return 0


class WallClockEnvironment(Environment):
    """Event engine whose clock is real elapsed time.

    ``stall_timeout_s`` bounds how long the run loop will wait for an
    external source (a transport with frames in flight) that produces
    nothing — a hung socket then surfaces as a
    :class:`~repro.util.errors.ProtocolError` instead of a silent hang.
    """

    def __init__(self, tracer=None, tiebreak=None,
                 stall_timeout_s: float = 30.0):
        super().__init__(0.0, tracer=tracer, tiebreak=tiebreak)
        if stall_timeout_s <= 0:
            raise ConfigurationError("stall_timeout_s must be positive")
        self.stall_timeout_s = stall_timeout_s
        self._source = _NoSource()
        self._start_wall: Optional[float] = None

    def attach_source(self, source) -> None:
        """Attach the external event source (see the module docstring
        for its ``pending``/``poll`` contract); one per environment."""
        if not isinstance(self._source, _NoSource):
            raise ConfigurationError("an external source is already attached")
        self._source = source

    # -- clock -------------------------------------------------------------

    def _elapsed(self) -> float:
        if self._start_wall is None:
            return self.now
        return time.monotonic() - self._start_wall

    def advance(self, at_least: float = 0.0) -> None:
        """Move the clock to wall time (monotone, never backwards); a
        source calls this before it fires the deliveries it polled."""
        self.now = max(self.now, at_least, self._elapsed())

    # -- run loop ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains (and nothing is in flight) or the
        wall clock passes ``until`` seconds since the first run."""
        if self._start_wall is None:
            self._start_wall = time.monotonic() - self.now
        if until is not None and until < self.now:
            raise ConfigurationError(
                f"run(until={until}) is before current time {self.now}"
            )
        token = (self.tracer.begin("sim.run", "sim", until=until)
                 if self.tracer.enabled else None)
        processed_before = self._events_processed
        source = self._source
        try:
            while True:
                if source.pending():
                    source.poll(0.0)
                if until is not None and self._elapsed() >= until:
                    self.advance(until)
                    break
                if not self._queue:
                    if not source.pending():
                        break
                    # In flight but nothing runnable: wait for the
                    # source, bounded so a dead peer cannot hang the run.
                    if not source.poll(self.stall_timeout_s):
                        raise ProtocolError(
                            f"transport stalled: {source.pending()} "
                            f"message(s) in flight but none arrived "
                            f"within {self.stall_timeout_s}s"
                        )
                    continue
                target = self._queue[0][0]
                wall = self._elapsed()
                if target > wall:
                    timeout = target - wall
                    if until is not None:
                        timeout = min(timeout, until - wall)
                    if source.pending():
                        source.poll(timeout)
                    else:
                        time.sleep(timeout)
                    continue  # an arrival may now precede the head event
                # Heap entries are (time, seq, event) on the FIFO fast
                # path and (time, rank, seq, event) with a policy;
                # first/last indexing covers both shapes.
                entry = heapq.heappop(self._queue)
                self.advance(entry[0])
                self._events_processed += 1
                entry[-1]._process()
            self.advance()
            return self.now
        finally:
            if self.tracer.enabled:
                self.tracer.end(
                    token, events=self._events_processed - processed_before
                )
