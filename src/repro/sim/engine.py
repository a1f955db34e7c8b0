"""The simulation environment: virtual clock plus pending-event heap."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Optional

from repro.obs.tracer import NULL_TRACER
from repro.sim.events import _PENDING, NO_HINTS, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.util.errors import ConfigurationError, ProtocolError


class _Call:
    """A heap entry that runs one callable: a timer without an event.

    Nobody waits on such a timer, so it needs no
    :class:`~repro.sim.events.Event`, callback list or closure — only
    the callable and its arguments.  Pop order is that of
    ``env.timeout(delay).add_callback(lambda _e: f(*args))`` exactly:
    one heap entry, scheduled at the same instant, ranked by a
    tie-break policy with the same empty ``hints``, counted as one
    processed event.  Message landings, retransmits and process
    bootstraps ride on it (:meth:`Environment.call_later`).
    """

    __slots__ = ("callback", "args")

    hints = NO_HINTS

    def __init__(self, callback, args):
        self.callback = callback
        self.args = args

    def _process(self) -> None:
        self.callback(*self.args)


class _WakeBatch:
    """One heap entry standing in for several same-instant wake events.

    The batched events are already triggered (value/ok set); popping
    the batch runs their callbacks back-to-back in trigger order —
    exactly the order separate heap entries would have produced under
    FIFO, since nothing can be scheduled between consecutive
    ``succeed`` calls.  ``events_processed`` is advanced by the batch
    size so the ``sim.run`` span's ``events=`` count (and the
    events/s metric) stays identical to the unbatched schedule.
    """

    __slots__ = ("env", "events")

    def __init__(self, env, events):
        self.env = env
        self.events = events

    def _process(self) -> None:
        self.env._events_processed += len(self.events) - 1
        for event in self.events:
            event._process()


class Environment:
    """Owns simulated time and executes triggered events in order.

    Events scheduled for the same instant are processed in trigger
    order (FIFO), which makes runs fully deterministic — essential for
    reproducible experiments and for the seeded workload generator.

    ``tiebreak`` optionally installs a
    :class:`~repro.sim.tiebreak.TieBreakPolicy` that re-ranks events
    *within* one instant (heap order becomes ``(time, rank, seq)``);
    time order — causality — is never perturbed, and with the default
    ``None`` every event ranks 0, reproducing plain FIFO exactly.
    Each policy is deterministic, so a (seed, policy) pair names one
    reproducible interleaving — the schedule-exploration surface of
    :mod:`repro.check`.

    The default-FIFO configuration is the engine's fast path: heap
    entries shrink to ``(time, seq, event)`` (no rank slot, no
    ``policy.rank()`` call), and same-instant lock-wake groups may be
    batched into one entry (:meth:`succeed_all`).  Both are
    pop-order-identical to the ranked path by construction — see
    ``tests/test_engine_fastpath.py``.

    ``tracer`` (settable after construction, since the tracer's clock
    is this environment) receives one ``sim.run`` span per :meth:`run`
    call; the default :data:`~repro.obs.tracer.NULL_TRACER` is a no-op.

    ``now`` is the current simulated time in seconds.  It is a plain
    attribute, not a property — the clock is read on every send, grant
    and lock decision — and only the engine assigns it.
    """

    def __init__(self, initial_time: float = 0.0, tracer=None, tiebreak=None):
        self.now = float(initial_time)
        self._queue: list = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tiebreak = tiebreak

    @property
    def events_processed(self) -> int:
        """Total events executed since construction (diagnostics)."""
        return self._events_processed

    @property
    def tiebreak(self):
        """The installed tie-break policy (``None`` = FIFO fast path)."""
        return self._tiebreak

    @tiebreak.setter
    def tiebreak(self, policy) -> None:
        # The heap tuple shape depends on whether a policy is
        # installed; reshape any pending entries so mixed shapes never
        # coexist (switching mid-run is a test-only convenience —
        # ranks for already-queued events are assigned at switch time).
        if (policy is None) != (self._tiebreak is None) and self._queue:
            if policy is None:
                entries = [(t, s, e) for (t, _r, s, e) in self._queue]
            else:
                entries = [(t, policy.rank(e), s, e)
                           for (t, s, e) in self._queue]
            heapq.heapify(entries)
            self._queue = entries
        self._tiebreak = policy

    # -- factory helpers -------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------

    def _schedule_event(self, event, delay: float = 0.0) -> None:
        policy = self._tiebreak
        if policy is None:
            heapq.heappush(
                self._queue,
                (self.now + delay, next(self._sequence), event),
            )
        else:
            heapq.heappush(
                self._queue,
                (self.now + delay, policy.rank(event),
                 next(self._sequence), event),
            )

    def call_later(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` ``delay`` from now, as one heap entry.

        The scheduling-equivalent of
        ``timeout(delay).add_callback(lambda _event: callback(*args))``
        — same instant, same rank, one processed event — without the
        event, its callback list or the closure (see :class:`_Call`).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._schedule_event(_Call(callback, args), delay)

    def succeed_all(self, events, value: Any = None) -> None:
        """Trigger every pending event in ``events`` with ``value``.

        On the FIFO fast path the group becomes *one* heap entry whose
        processing runs each event's callbacks in order — identical
        pop order to individual ``succeed`` calls (nothing can be
        scheduled between them), at a fraction of the heap traffic.
        With a tie-break policy installed each event must be ranked
        individually, so the batch degenerates to per-event succeeds.
        """
        if not events:
            return
        if self._tiebreak is not None or len(events) == 1:
            for event in events:
                event.succeed(value)
            return
        for event in events:
            if event._value is not _PENDING:
                raise ProtocolError(f"event {event} triggered twice")
            event._value = value
            event._ok = True
        heapq.heappush(
            self._queue,
            (self.now, next(self._sequence), _WakeBatch(self, list(events))),
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event, advancing the clock to it."""
        entry = heapq.heappop(self._queue)
        self.now = entry[0]
        self._events_processed += 1
        entry[-1]._process()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulated time.  With ``until`` set, the clock
        is advanced exactly to ``until`` even if the last event fires
        earlier, matching the usual DES convention; both exit paths
        (queue drained, next event past ``until``) leave ``now``
        clamped to ``until`` and record the same ``events=`` count on
        the ``sim.run`` span.
        """
        if until is not None and until < self.now:
            raise ConfigurationError(
                f"run(until={until}) is before current time {self.now}"
            )
        token = self.tracer.begin("sim.run", "sim", until=until)
        processed_before = self._events_processed
        queue = self._queue
        pop = heapq.heappop
        try:
            if until is None:
                while queue:
                    entry = pop(queue)
                    self.now = entry[0]
                    self._events_processed += 1
                    entry[-1]._process()
            else:
                while queue:
                    when = queue[0][0]
                    if when > until:
                        self.now = until
                        return until
                    entry = pop(queue)
                    self.now = when
                    self._events_processed += 1
                    entry[-1]._process()
                self.now = max(self.now, until)
            return self.now
        finally:
            self.tracer.end(
                token, events=self._events_processed - processed_before
            )

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn a process, run to completion, return value.

        Raises the process's exception if it terminated with one.
        """
        proc = self.process(generator, name=name)
        self.run()
        if not proc.triggered:
            raise ConfigurationError(
                f"process {proc} did not finish (waiting on an event "
                f"nothing will ever trigger)"
            )
        if not proc.ok:
            raise proc.value
        return proc.value
