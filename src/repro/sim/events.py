"""One-shot events for the simulation kernel.

An :class:`Event` moves through exactly one lifecycle::

    PENDING --succeed(value)--> TRIGGERED(ok)   --processed--> fired
    PENDING --fail(exc)-------> TRIGGERED(fail) --processed--> fired

Processes wait on events by yielding them; the engine resumes the
process with the event's value (or throws the event's exception into
the generator, which is how lock-wait aborts and deadlock victims are
implemented without a separate interrupt mechanism).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.util.errors import ProtocolError

_PENDING = object()


class Event:
    """A one-shot occurrence that simulation processes can wait on."""

    #: Scheduling metadata for tie-break policies
    #: (:mod:`repro.sim.tiebreak`).  Class-level empty default: call
    #: sites that matter (lock-wait wakes, network deliveries) assign a
    #: per-instance dict; everything else shares this one frozen-ish
    #: mapping and pays nothing.
    hints: dict = {}

    def __init__(self, env, name: str = ""):
        self.env = env
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None

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
        if not self.triggered:
            raise ProtocolError(f"event {self} not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise ProtocolError(f"event {self} not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; waiters resume with ``value``."""
        if self.triggered:
            raise ProtocolError(f"event {self} triggered twice")
        self._value = value
        self._ok = True
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception thrown into each waiter."""
        if self.triggered:
            raise ProtocolError(f"event {self} triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.env._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{self.name or self._label()} {state}>"

    def _label(self) -> str:
        """Debug label of an unnamed event, built only when asked for:
        hot paths (lock waits, timeouts) store fields, not strings."""
        return (",".join(f"{key}={value}" for key, value in self.hints.items())
                or self.__class__.__name__)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        self._ok = True
        env._schedule_event(self, delay=delay)

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
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Fires when the first child event fires (success or failure).

    Value on success is ``(index, value)`` of the winning child; a
    failing child fails this event with its exception.
    """

    def __init__(self, env, events):
        super().__init__(env, name="AnyOf")
        children = list(events)
        if not children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(children):
            child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed((index, child.value))
        else:
            self.fail(child.value)
