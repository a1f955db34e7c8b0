"""One-shot events for the simulation kernel.

An :class:`Event` moves through exactly one lifecycle::

    PENDING --succeed(value)--> TRIGGERED(ok)   --processed--> fired
    PENDING --fail(exc)-------> TRIGGERED(fail) --processed--> fired

Processes wait on events by yielding them; the engine resumes the
process with the event's value (or throws the event's exception into
the generator, which is how lock-wait aborts and deadlock victims are
implemented without a separate interrupt mechanism).

Every event class declares ``__slots__``: an event is the kernel's
most-allocated object (one or more per message, lock wait and process
step), so it carries no ``__dict__``.  Kernel code reads ``_value`` /
``_ok`` directly; the checked ``triggered`` / ``ok`` / ``value``
properties are the public surface.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Union

from repro.util.errors import ProtocolError

_PENDING = object()

#: Hints of every event no call site annotated: shared and never
#: mutated (a call site that has hints assigns its own dict).
NO_HINTS: dict = {}


class Event:
    """A one-shot occurrence that simulation processes can wait on.

    ``hints`` is scheduling metadata for tie-break policies
    (:mod:`repro.sim.tiebreak`): call sites that matter (lock-wait
    wakes, network deliveries) supply their own; everything else shares
    :data:`NO_HINTS`.  ``callbacks`` is ``()`` until the first
    :meth:`add_callback` (events nobody waits on allocate no list) and
    ``None`` once processed.
    """

    __slots__ = ("env", "name", "callbacks", "_value", "_ok", "hints")

    def __init__(self, env, name: str = ""):
        self.env = env
        self.name = name
        self.callbacks: Union[List[Callable[["Event"], None]], tuple, None] = ()
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self.hints = NO_HINTS

    @property
    def triggered(self) -> bool:
        """True once succeed() or fail() has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise ProtocolError(f"event {self} not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise ProtocolError(f"event {self} not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; waiters resume with ``value``."""
        if self._value is not _PENDING:
            raise ProtocolError(f"event {self} triggered twice")
        self._value = value
        self._ok = True
        env = self.env
        if env._tiebreak is None:
            # Environment._schedule_event's FIFO branch, inlined: every
            # delivery, grant and process completion passes here.
            heappush(env._queue, (env.now, next(env._sequence), self))
        else:
            env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception thrown into each waiter."""
        if self._value is not _PENDING:
            raise ProtocolError(f"event {self} triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback; runs immediately if already processed."""
        callbacks = self.callbacks
        if callbacks is None:
            callback(self)
        elif callbacks:
            callbacks.append(callback)
        else:
            self.callbacks = [callback]

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return f"<{self.name or self._label()} {state}>"

    def _label(self) -> str:
        """Debug label of an unnamed event, built only when asked for:
        hot paths (lock waits, timeouts) store fields, not strings."""
        return (",".join(f"{key}={value}" for key, value in self.hints.items())
                or self.__class__.__name__)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        env._schedule_event(self, delay)

    def _label(self) -> str:
        return f"Timeout({self.delay})"

    def succeed(self, value: Any = None) -> "Event":
        raise ProtocolError("Timeout triggers itself; do not call succeed()")

    def fail(self, exception: BaseException) -> "Event":
        raise ProtocolError("Timeout triggers itself; do not call fail()")


class AllOf(Event):
    """Fires when every child event has fired successfully.

    If any child fails, this fails with that child's exception (first
    failure wins).  Value on success is the list of child values in the
    order given.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, env, events):
        super().__init__(env, name="AllOf")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires when the first child event fires (success or failure).

    Value on success is ``(index, value)`` of the winning child; a
    failing child fails this event with its exception.
    """

    __slots__ = ()

    def __init__(self, env, events):
        super().__init__(env, name="AnyOf")
        children = list(events)
        if not children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(children):
            child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self._value is not _PENDING:
            return
        if child._ok:
            self.succeed((index, child._value))
        else:
            self.fail(child._value)
