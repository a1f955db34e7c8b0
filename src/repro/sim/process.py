"""Processes: generators driven by the event loop.

A process generator ``yield``s :class:`~repro.sim.events.Event`
instances.  When a yielded event fires, the engine resumes the
generator with the event's value; if the event *failed*, the exception
is thrown into the generator at the yield point so ordinary
``try/except`` implements wait-abort semantics (this is how a blocked
lock waiter learns it was chosen as a deadlock victim).

A process is itself an event: it succeeds with the generator's return
value, or fails with the exception that escaped the generator.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.events import Event


class _Started:
    """What a freshly spawned process is first resumed with: a fired,
    successful event whose value is ``None`` (shared; nothing waits on
    it, and :meth:`Process._resume` reads only ``_ok`` and ``_value``)."""

    __slots__ = ()

    _ok = True
    _value = None


_STARTED = _Started()


class Process(Event):
    """Wraps a generator and steps it as its awaited events fire."""

    __slots__ = ("_generator", "_waiting_on", "_pending_interrupt",
                 "_poison_pending")

    def __init__(self, env, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                f"(did you call the function instead of passing its generator?)"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on = None
        self._pending_interrupt = None
        self._poison_pending = False
        # Kick off on a zero-delay heap entry so creation order does
        # not matter (and spawning allocates no per-process event).
        env.call_later(0.0, self._resume, _STARTED)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at its current wait point.

        The process detaches from the event it was waiting on (that
        event may still fire later; nothing listens) and resumes with
        the exception on the next simulation step, exactly as if the
        awaited event had failed.  Fault injection uses this to model
        a node crash killing an in-flight transaction family.  No-op
        on a finished process; a process interrupted before its
        bootstrap step receives the exception at its first yield.

        The first interrupt wins: a second ``interrupt()`` before the
        process has observed the first (pending *or* in-flight poison)
        is dropped, so the process is resumed exactly once with
        exactly the first exception — never twice, and never with a
        later exception overwriting the first.
        """
        if self.triggered:
            return
        if self._pending_interrupt is not None or self._poison_pending:
            return  # first interrupt wins; the poison path is one-shot
        target = self._waiting_on
        if target is None:
            # Not yet bootstrapped (or between steps): deliver lazily.
            self._pending_interrupt = exc
            return
        if target.callbacks:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._poison_pending = True
        poison = Event(self.env, name=f"interrupt:{self.name}")
        poison.add_callback(self._resume)
        poison.fail(exc)

    def _resume(self, fired) -> None:
        self._waiting_on = None
        self._poison_pending = False
        generator = self._generator
        if self._pending_interrupt is not None:
            throw: object = self._pending_interrupt
            self._pending_interrupt = None
        elif fired._ok:
            throw = None
        else:
            throw = fired._value
        # Loop rather than recurse: a generator that *catches* an
        # injected exception (the non-Event TypeError below, or an
        # interrupt) and yields a fresh event must re-attach to it —
        # the pre-loop code discarded that recovered yield, leaving
        # the process permanently stalled.
        while True:
            try:
                if throw is not None:
                    target = generator.throw(throw)
                else:
                    target = generator.send(fired._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - must propagate into event
                self.fail(exc)
                return
            if isinstance(target, Event):
                self._waiting_on = target
                target.add_callback(self._resume)
                return
            throw = TypeError(
                f"process {self.name!r} yielded {target!r}; "
                f"processes may only yield simulation events"
            )

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self.ok else "failed")
        return f"<Process {self.name} {state}>"
