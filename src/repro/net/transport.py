"""The Transport base class: one wire pipeline for every backend.

Every consistency protocol, the lock manager, and the transfer engine
talk to the network through exactly four operations — asynchronous
:meth:`Transport.send`, synchronous :meth:`Transport.charge`, the
multicast-aware :meth:`Transport.charge_group`, and the planner
estimate :meth:`Transport.round_trip`.

:class:`Transport` owns the whole protocol-visible half of a message's
life, written once: the delivery event and its tie-break hints, the
local fast path and its in-place landing (:meth:`Transport.lands_inline`),
wire-id tagging, the per-attempt step
(:meth:`Transport._attempt`: fault draw, pricing, accounting, trace),
the drop-and-retransmit re-arm behind ``send`` and the frozen-clock
replay loop behind ``charge``.  With nothing to draw or trace, a send
is the one attempt, priced, booked and handed to the wire (or, FIFO on
the virtual clock, landed) in ``send`` itself.  A backend implements
one hook,
:meth:`Transport._put_on_wire` — "put this surviving attempt on the
wire, fire ``done`` when it lands": a ``transfer_time`` timeout on the
virtual clock (:class:`~repro.net.network.SimTransport`, the default,
exactly the paper's cost model) or a length-prefixed frame through a
real localhost socket (:class:`~repro.net.tcp.TcpTransport`).

Fault draws are keyed by ``(wire_id, attempt)`` and there is one
accounting function, so two backends given the same messages book the
same :class:`NetworkStats` and ``FaultStats`` by construction.
"""

from __future__ import annotations

import abc
from heapq import heappush
from typing import Iterable, Optional, Tuple

from repro.faults.injector import NO_FAULTS, NULL_INJECTOR, MessageFaults
from repro.net.message import Message
from repro.net.network_config import NetworkConfig
from repro.net.stats import NetworkStats
from repro.obs.tracer import NULL_TRACER
from repro.sim import Event
from repro.sim.events import _PENDING, run_callbacks
from repro.util.ids import NodeId

#: Clock domains a transport can stamp deliveries with.  ``"virtual"``
#: is the DES clock of the simulation backend; ``"wall"`` is real
#: elapsed time (the TCP backend).  Mirrored into the JSONL trace
#: header so post-hoc checkers know what the timestamps mean.
VIRTUAL_CLOCK = "virtual"
WALL_CLOCK = "wall"


class Delivery(Event):
    """The event a :meth:`Transport.send` returns: it fires with the
    message when the message lands.

    Its tie-break hints (``kind``, ``category``, destination ``node``,
    ``src``) are derived from the message when a policy reads them, so
    a send on the FIFO path builds neither a hints dict nor a name.
    """

    __slots__ = ("message",)

    def __init__(self, env, message: Message):
        # Event's fields, minus the ``hints`` slot the property below
        # stands in for.
        self.env = env
        self.name = ""
        self.callbacks = ()
        self._value = _PENDING
        self._ok = None
        self.message = message

    @property
    def hints(self) -> dict:
        message = self.message
        return {"kind": "deliver", "category": message.category.value,
                "node": message.dst.value, "src": message.src.value}

    def _process(self) -> None:
        if self._value is _PENDING:
            # Queued untriggered by ``SimTransport``'s one-entry
            # landing: land now, counted as the landing ``_Call`` and
            # the delivery it stands for (like ``_WakeBatch``).
            self._value = self.message
            self._ok = True
            self.env._events_processed += 1
        callbacks, self.callbacks = self.callbacks, None
        if len(callbacks) == 1:
            callbacks[0](self)
        elif callbacks:
            run_callbacks(self, callbacks)


class Transport(abc.ABC):
    """Delivers messages between nodes and accounts for every one.

    With a :class:`~repro.faults.injector.FaultInjector` wired in, the
    network is a *fair-loss* channel with a reliable transport on top:
    an injected drop consumes wire time and is retransmitted after the
    plan's retransmit timeout, so callers still see exactly one
    delivery event per ``send`` — faults surface as added latency and
    extra accounted traffic, never as a hang or a lost grant.

    Concrete transports provide :meth:`_put_on_wire`.  The lifecycle
    hooks (:meth:`start` / :meth:`close` / :meth:`_require_started`)
    are no-ops by default — the simulation backend has no sockets to
    bring up.
    """

    #: False while the wire cannot carry a frame (a backend with a
    #: lifecycle, before :meth:`start` and after :meth:`close`).
    _wire_up = True

    #: Which clock deliveries are stamped with (see module constants).
    clock = VIRTUAL_CLOCK

    #: True for a backend whose wire is a timed landing on the virtual
    #: clock (:class:`~repro.net.network.SimTransport`): with no
    #: injector and no tracer, its FIFO sends land in :meth:`send`'s
    #: one frame.
    lands_on_clock = False

    def __init__(self, env, config: NetworkConfig, tracer=None,
                 injector=None):
        self.env = env
        self.config = config
        self.stats = NetworkStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector if injector is not None else NULL_INJECTOR
        self._next_wire_id = 0
        # Nothing to draw and nothing to trace per attempt: a send is
        # priced and booked in ``send`` itself, then landed there on the
        # virtual clock (``_lean``) or handed to the wire from there.
        quiet = not self.injector.enabled and not self.tracer.enabled
        self._lean = quiet and self.lands_on_clock
        self._quiet_wire = quiet and not self.lands_on_clock

    # -- wire operations ---------------------------------------------------

    def send(self, message: Message) -> Event:
        """Send a message; returns an event firing at delivery time.

        Local messages (``src == dst``) model calls into locally cached
        state: they deliver immediately, are not accounted, and never
        touch the wire — started or not — matching the paper's
        local/global split of lock processing (§4.1).  A remote message
        gets its wire identity here, once: fault draws are keyed by it,
        so one wire message is exactly one fault unit, with one verdict
        stream across its attempts.
        """
        env = self.env
        done = Delivery(env, message)
        message.send_time = now = env.now
        if message.src == message.dst:
            message.deliver_time = now
            done.succeed(message)
            return done
        if not self._wire_up:
            self._require_started()
        lean = self._lean and env._tiebreak is None
        if message.wire_id is None:
            message.wire_id = self._next_wire_id
            self._next_wire_id += 1
        if not (lean or self._quiet_wire):
            self._attempt(message, done, 0)
            return done
        # ``_attempt`` for the one attempt there is: no fault draw, no
        # trace (and with ``lean``, no policy rank either).
        message.attempts = 1
        config = self.config
        # ``NetworkConfig.transfer_time``, term for term: the
        # per-object message times of Figures 6-8 are pinned bit
        # for bit.
        transfer_time = (config.software_cost_s
                         + (message.size_bytes * 8.0)
                         / config.bandwidth_bps
                         + config.propagation_s)
        self.stats.record(message, transfer_time, True)
        if lean:  # ``SimTransport._put_on_wire``, inlined
            message.deliver_time = when = now + transfer_time
            heappush(env._queue, (when, next(env._sequence), done))
        else:
            self._put_on_wire(message, done, transfer_time, NO_FAULTS)
        return done

    def lands_inline(self, src: NodeId, dst: NodeId, events: int = 1) -> bool:
        """Land a local call from ``src`` to ``dst`` in place, if it can.

        For a caller that would :meth:`send` a local message and yield
        its delivery at once.  When the engine is FIFO, runs the last
        action of the entry it popped (``env._at_tail``) and has no
        other entry due at ``now``, that delivery would be the very
        next entry popped — so the caller goes on in place, with no
        message, delivery or heap entry, and the pop order is the one
        the heap would have produced.  The landing still counts
        ``events`` processed events (the delivery, plus an ``all_of``
        it stands in for).  Returns ``False`` in every other case — on
        an engine whose ``marks_tail`` is false, always, so callers
        check that first — and the caller sends and yields as usual.
        """
        if src != dst:
            return False
        env = self.env
        if not env._at_tail:
            return False
        queue = env._queue
        if queue and queue[0][0] <= env.now:
            return False
        env._events_processed += events
        return True

    def charge(self, message: Message) -> float:
        """Account a message without creating a delivery event.

        Used by synchronous paths (LOTEC demand fetches fired from
        inside a running method body) where the *data* moves at once
        and the *delay* is deferred to the transaction's next
        suspension point; returns the transfer time to defer.

        Fault injection treats this path as a frozen-clock replay of
        the ``send`` loop: drops add retransmit turnarounds to the
        deferred delay and crash windows are ignored (the clock cannot
        advance to a recovery), bounded by the plan's retransmit limit.
        Only the surviving attempt reaches :meth:`_put_on_wire`.
        """
        message.send_time = now = self.env.now
        if message.src == message.dst:
            message.deliver_time = now
            return 0.0
        if not self._wire_up:
            self._require_started()
        if message.wire_id is None:
            message.wire_id = self._next_wire_id
            self._next_wire_id += 1
        total_delay = 0.0
        attempt = 0
        while True:
            transfer_time, retry_after = self._attempt(message, None, attempt)
            if retry_after is None:
                break
            total_delay += retry_after
            attempt += 1
        message.deliver_time = now + total_delay + transfer_time
        return total_delay + transfer_time

    def _attempt(self, message: Message, done: Optional[Event],
                 attempt: int) -> Tuple[float, Optional[float]]:
        """One wire attempt — the only place a message is judged,
        priced, accounted and traced.  ``done is None`` marks the
        synchronous ``charge`` path.

        Every attempt — including dropped ones and duplicates — is
        accounted in :class:`NetworkStats` and traced: lost wire time
        is real wire time, which is exactly the cost model distortion
        a robustness experiment wants to measure.  ``message.send_time``
        is *not* touched here: it keeps the first attempt's instant, so
        ``deliver_time - send_time`` spans every retransmit turnaround.

        A dropped attempt never reaches the wire: a ``send`` re-arms
        itself ``retry_after`` (``transfer_time`` plus the plan's
        retransmit timeout) later, a ``charge`` replays the next
        attempt at once.  Returns ``(transfer_time, retry_after)``;
        ``retry_after`` is ``None`` for the surviving attempt, the one
        handed to :meth:`_put_on_wire`.
        """
        message.attempts = attempt + 1
        injector = self.injector
        faults = (injector.message_faults(message, attempt, self.env.now,
                                          synchronous=done is None)
                  if injector.enabled else NO_FAULTS)
        transfer_time = (self.config.transfer_time(message.size_bytes)
                         + faults.extra_delay_s)
        self.stats.record(message, transfer_time, not faults.dropped)
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.message(message, transfer_time)
        if faults.duplicated:
            # The duplicate burns wire time whether or not the primary
            # copy survives; the receiver discards it on arrival
            # (delivery events are one-shot by construction).
            self.stats.record(message, transfer_time)
            if tracing:
                self.tracer.message(message, transfer_time)
                self.tracer.fault_duplicate(message)
        if faults.extra_delay_s and tracing:
            self.tracer.fault_delay(message, faults.extra_delay_s)
        if faults.dropped:
            self.injector.stats.retransmissions += 1
            if tracing:
                self.tracer.fault_drop(message, attempt)
                self.tracer.fault_retransmit(message, attempt + 1)
            retry_after = (transfer_time
                           + self.injector.retransmit_timeout_s(attempt))
            if done is not None:
                self.env.call_later(retry_after, self._attempt, message,
                                    done, attempt + 1)
            return transfer_time, retry_after
        self._put_on_wire(message, done, transfer_time, faults)
        return transfer_time, None

    @abc.abstractmethod
    def _put_on_wire(self, message: Message, done: Optional[Event],
                     transfer_time: float, faults: MessageFaults) -> None:
        """The backend hook: put this surviving attempt on the wire.

        Called once per delivered message, after it is accounted.  When
        the frame lands, set ``message.deliver_time`` and call
        ``done.succeed(message)`` — exactly once, however many copies
        ``faults.duplicated`` put on the wire.  ``done is None`` for a
        ``charge``: the frame may travel but nobody waits for it.
        ``transfer_time`` includes ``faults.extra_delay_s``.
        """

    def charge_group(self, template: Message, destinations: Iterable[NodeId]
                     ) -> float:
        """Send the same payload to several destinations (eager pushes).

        On a multicast-capable fabric one transmission reaches every
        destination: the sender pays the software cost and serializes
        the frame once.  Without multicast this degenerates to one
        unicast charge per remote destination.  Returns the total
        sender-side delay; local destinations are free as usual.
        """
        remote = [dst for dst in destinations if dst != template.src]
        if self.config.multicast:
            del remote[1:]
        total = 0.0
        for dst in remote:
            total += self.charge(Message(
                src=template.src, dst=dst,
                category=template.category,
                size_bytes=template.size_bytes,
                object_id=template.object_id,
            ))
        return total

    def round_trip(self, request: Message, response_size: int) -> float:
        """Estimated request/response latency (used by planners only).

        A pure cost-model estimate on both backends — it never touches
        the wire or the accounting, so planners can call it freely.
        """
        return self.config.transfer_time(
            request.size_bytes
        ) + self.config.transfer_time(response_size)

    # -- lifecycle ---------------------------------------------------------

    def start(self, nodes: Iterable[NodeId]) -> None:
        """Bring the wire up for ``nodes`` (idempotent).

        The simulation backend needs nothing; the TCP backend binds one
        listening socket per node and connects the mesh.
        """

    def _require_started(self) -> None:
        """Raise, saying why the wire cannot carry a frame now — called
        while ``_wire_up`` is clear, after the local fast path and
        before the wire id is assigned or anything is accounted, so a
        refusal leaves the books untouched."""

    def close(self) -> None:
        """Tear the wire down (idempotent); no sends may follow."""
