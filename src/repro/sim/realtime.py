"""A wall-clock twin of :class:`~repro.sim.engine.Environment`.

The simulation engine's contract — processes yield events, timeouts
fire after a delay, same-instant ties are re-ranked by a policy — is
kept intact, but time is *real*: ``now`` is seconds of wall clock since
the first :meth:`WallClockEnvironment.run` call, and timeouts sleep.

Deliveries from outside the heap come from one attached *source* (the
TCP transport) on the engine's own thread, through a two-member
contract: the attribute ``inflight`` is the number of items in flight,
and ``poll(timeout) -> bool`` waits up to ``timeout`` seconds for
arrivals, fires them inline at ``now`` moved to the wall instant they
were read, and returns whether any fired — ``False`` only once the
timeout has passed.  The run loop is the textbook real-time DES
pattern, one clock reading per step: with anything in flight, ``poll(0)``
first; then one ``time.monotonic()`` reading decides whether the heap
head is due and, if it is, is the ``now`` it runs at.  A head still in
the future becomes a ``poll`` until its due time (or a ``time.sleep``
when nothing is in flight).  Causality is therefore preserved exactly
as in the virtual-clock engine, while delivery instants come from the
operating system instead of the cost model.
"""

from __future__ import annotations

import time
from heapq import heappop
from typing import Optional

from repro.sim.engine import Environment
from repro.util.errors import ConfigurationError, ProtocolError


class _NoSource:
    """The source of an environment nothing is attached to."""

    inflight = 0


class WallClockEnvironment(Environment):
    """Event engine whose clock is real elapsed time.

    ``stall_timeout_s`` bounds how long the run loop will wait for an
    external source (a transport with frames in flight) that produces
    nothing — a hung socket then surfaces as a
    :class:`~repro.util.errors.ProtocolError` instead of a silent hang.
    """

    marks_tail = False

    def __init__(self, tracer=None, tiebreak=None,
                 stall_timeout_s: float = 30.0):
        super().__init__(0.0, tracer=tracer, tiebreak=tiebreak)
        if stall_timeout_s <= 0:
            raise ConfigurationError("stall_timeout_s must be positive")
        self.stall_timeout_s = stall_timeout_s
        self._source = _NoSource()
        #: The ``time.monotonic()`` instant ``now`` counts from; a
        #: source reads it to stamp what it fires.
        self._start_wall: Optional[float] = None

    def attach_source(self, source) -> None:
        """Attach the external event source (see the module docstring
        for its ``inflight``/``poll`` contract); one per environment."""
        if not isinstance(self._source, _NoSource):
            raise ConfigurationError("an external source is already attached")
        self._source = source

    # -- run loop ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains (and nothing is in flight) or the
        wall clock passes ``until`` seconds since the first run."""
        clock = time.monotonic
        if self._start_wall is None:
            self._start_wall = clock() - self.now
        if until is not None and until < self.now:
            raise ConfigurationError(
                f"run(until={until}) is before current time {self.now}"
            )
        token = (self.tracer.begin("sim.run", "sim", until=until)
                 if self.tracer.enabled else None)
        processed_before = self._events_processed
        source = self._source
        start = self._start_wall
        try:
            while True:
                if source.inflight:
                    source.poll(0.0)
                wall = clock() - start
                if until is not None and wall >= until:
                    break
                queue = self._queue
                if not queue:
                    if not source.inflight:
                        break
                    # In flight but nothing runnable: wait for the
                    # source, bounded so a dead peer cannot hang the run.
                    if not source.poll(self.stall_timeout_s):
                        raise ProtocolError(
                            f"transport stalled: {source.inflight} "
                            f"message(s) in flight but none arrived "
                            f"within {self.stall_timeout_s}s"
                        )
                    continue
                # Heap entries are (time, seq, event) on the FIFO fast
                # path and (time, rank, seq, event) with a policy;
                # first/last indexing covers both shapes.
                entry = queue[0]
                if entry[0] > wall:
                    timeout = entry[0] - wall
                    if until is not None:
                        timeout = min(timeout, until - wall)
                    if source.inflight:
                        source.poll(timeout)
                    else:
                        time.sleep(timeout)
                    continue  # an arrival may now precede the head event
                heappop(queue)
                if wall > self.now:
                    self.now = wall
                self._events_processed += 1
                entry[-1]._process()
            self.now = max(self.now, clock() - start)
            return self.now
        finally:
            if self.tracer.enabled:
                self.tracer.end(
                    token, events=self._events_processed - processed_before
                )
