"""Unit tests for the simulation kernel's event types."""

import pytest

from repro.sim import Environment
from repro.util.errors import ProtocolError


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(41)
        assert event.triggered
        assert event.ok
        assert event.value == 41

    def test_fail_sets_exception(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(ProtocolError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(ProtocolError):
            env.event().ok

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(ProtocolError):
            event.succeed()

    def test_succeed_then_fail_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(ProtocolError):
            event.fail(RuntimeError())

    def test_fail_requires_exception_instance(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callback_runs_after_processing(self, env):
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == ["x"]

    def test_callback_on_processed_event_runs_immediately(self, env):
        event = env.event()
        event.succeed(7)
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_repr_states(self, env):
        event = env.event(name="thing")
        assert "pending" in repr(event)
        event.succeed()
        assert "ok" in repr(event)
        failed = env.event()
        failed.fail(ValueError())
        assert "failed" in repr(failed)

    def test_repr_labels_are_built_on_demand(self, env):
        # Hot paths store fields, not formatted names: the label is
        # assembled by __repr__ alone.
        assert repr(env.event()) == "<Event pending>"
        timeout = env.timeout(2.5)
        assert timeout.name == ""
        assert repr(timeout) == "<Timeout(2.5) ok>"
        wake = env.event()
        wake.hints = {"kind": "lockwait", "object": 3, "root": 7}
        assert repr(wake) == "<kind=lockwait,object=3,root=7 pending>"


class TestTimeout:
    def test_fires_at_delay(self, env):
        timeout = env.timeout(2.5)
        env.run()
        assert timeout.processed
        assert env.now == 2.5

    def test_carries_value(self, env):
        timeout = env.timeout(1.0, value="done")
        env.run()
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-0.1)

    def test_zero_delay_allowed(self, env):
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed
        assert env.now == 0.0

    def test_cannot_be_manually_triggered(self, env):
        timeout = env.timeout(1.0)
        with pytest.raises(ProtocolError):
            timeout.succeed()
        with pytest.raises(ProtocolError):
            timeout.fail(RuntimeError())


class TestAllOf:
    def test_empty_succeeds_immediately(self, env):
        all_of = env.all_of([])
        assert all_of.triggered
        assert all_of.value == []

    def test_collects_values_in_order(self, env):
        a, b = env.timeout(2.0, value="a"), env.timeout(1.0, value="b")
        all_of = env.all_of([a, b])
        env.run()
        assert all_of.value == ["a", "b"]

    def test_waits_for_slowest(self, env):
        events = [env.timeout(d) for d in (1.0, 5.0, 3.0)]
        all_of = env.all_of(events)
        fired_at = []
        all_of.add_callback(lambda e: fired_at.append(env.now))
        env.run()
        assert fired_at == [5.0]

    def test_child_failure_fails_the_group(self, env):
        good = env.timeout(1.0)
        bad = env.event()
        all_of = env.all_of([good, bad])
        error = RuntimeError("child failed")
        bad.fail(error)
        env.run()
        assert all_of.triggered
        assert not all_of.ok
        assert all_of.value is error

    def test_already_triggered_children(self, env):
        done = env.event()
        done.succeed(1)
        env.run()
        all_of = env.all_of([done])
        env.run()
        assert all_of.value == [1]


class TestAnyOf:
    def test_requires_children(self, env):
        with pytest.raises(ValueError):
            env.any_of([])

    def test_first_wins(self, env):
        slow, fast = env.timeout(5.0, value="slow"), env.timeout(1.0, value="fast")
        any_of = env.any_of([slow, fast])
        env.run()
        assert any_of.value == (1, "fast")

    def test_failure_propagates(self, env):
        never = env.event()
        failing = env.event()
        any_of = env.any_of([never, failing])
        error = ValueError("bad")
        failing.fail(error)
        env.run()
        assert not any_of.ok
        assert any_of.value is error

    def test_later_events_ignored(self, env):
        a, b = env.timeout(1.0, value="a"), env.timeout(2.0, value="b")
        any_of = env.any_of([a, b])
        env.run()
        assert any_of.value == (0, "a")  # b fired later, no double trigger


class TestShape:
    def test_kernel_events_carry_no_dict(self, env):
        from repro.net.message import Message, MessageCategory
        from repro.net.transport import Delivery
        from repro.util.ids import NodeId

        def body():
            yield env.timeout(1.0)

        message = Message(src=NodeId(0), dst=NodeId(1),
                          category=MessageCategory.CONTROL, size_bytes=1)
        for event in (env.event(), env.timeout(1.0), env.all_of([]),
                      env.any_of([env.event()]), env.process(body()),
                      Delivery(env, message)):
            assert not hasattr(event, "__dict__"), type(event).__name__

    def test_callback_list_is_allocated_on_first_add(self, env):
        event = env.event()
        assert event.callbacks == ()  # shared empty tuple, no list yet
        first, second = (lambda e: None), (lambda e: None)
        event.add_callback(first)
        event.add_callback(second)
        assert event.callbacks == [first, second]
        event.succeed()
        env.run()
        assert event.processed and event.callbacks is None

    def test_unannotated_events_share_one_hints_dict(self, env):
        assert env.event().hints is env.timeout(0.0).hints == {}


class TestCallLater:
    def test_runs_the_callback_once_at_the_delay(self, env):
        seen = []
        env.call_later(2.0, lambda *args: seen.append((env.now, args)), 1, 2)
        env.run()
        assert seen == [(2.0, (1, 2))]
        assert env.events_processed == 1

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_later(-0.1, print)
