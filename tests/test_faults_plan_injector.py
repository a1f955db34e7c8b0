"""Unit tests for the fault-plan data model and the seeded injector."""

import inspect

import pytest

from repro.faults import (
    FAULT_PRESETS,
    NULL_INJECTOR,
    CrashEvent,
    FaultInjector,
    FaultPlan,
    NullInjector,
)
from repro.net.message import Message, MessageCategory
from repro.util.errors import ConfigurationError
from repro.util.ids import NodeId
from repro.util.rng import SeededRNG

from conftest import Counter, make_cluster

N0, N1 = NodeId(0), NodeId(1)


def msg(src=N0, dst=N1):
    return Message(src=src, dst=dst, category=MessageCategory.LOCK_REQUEST,
                   size_bytes=100)


class TestCrashEvent:
    def test_up_at(self):
        crash = CrashEvent(node_index=2, at_s=0.5, down_for_s=0.25)
        assert crash.up_at_s == 0.75

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashEvent(node_index=-1, at_s=0.1, down_for_s=0.1)
        with pytest.raises(ConfigurationError):
            CrashEvent(node_index=0, at_s=-0.1, down_for_s=0.1)
        with pytest.raises(ConfigurationError):
            CrashEvent(node_index=0, at_s=0.1, down_for_s=0.0)


class TestFaultPlan:
    def test_defaults_are_quiet(self):
        plan = FaultPlan()
        assert not plan.has_message_faults
        assert plan.max_crash_node_index == -1
        assert plan.lock_wait_timeout_s == 0.0

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(duplicate_probability=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(delay_jitter_s=-1.0)

    def test_recovery_parameter_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(retransmit_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(retransmit_limit=0)
        with pytest.raises(ConfigurationError):
            FaultPlan(lock_wait_timeout_s=-0.001)

    def test_crashes_must_be_crash_events(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=((1, 0.1, 0.1),))

    def test_max_crash_node_index(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.1, down_for_s=0.1),
            CrashEvent(node_index=3, at_s=0.2, down_for_s=0.1),
        ))
        assert plan.max_crash_node_index == 3

    def test_presets_cover_the_fault_space(self):
        # The shipped presets collectively exercise loss >= 10%,
        # duplication, delay jitter, lock timeouts, and a crash.
        assert FAULT_PRESETS["lossy-net"].drop_probability >= 0.10
        assert FAULT_PRESETS["dup-delay"].duplicate_probability > 0
        assert FAULT_PRESETS["dup-delay"].delay_jitter_s > 0
        assert FAULT_PRESETS["lock-timeout"].lock_wait_timeout_s > 0
        assert FAULT_PRESETS["crash-recover"].crashes
        chaos = FAULT_PRESETS["chaos"]
        assert chaos.has_message_faults and chaos.crashes
        for name, plan in FAULT_PRESETS.items():
            assert plan.name == name


#: Every query a fault site may ask the injector.
QUERIES = ("message_faults", "retransmit_timeout_s", "bounded_wait",
           "is_down", "down_until", "cut", "partition_until")


class TestNullInjector:
    def test_answers_no_fault_everywhere(self):
        # Faults off is the call site's ``injector.enabled`` branch, so
        # the null injector answers no query: an unguarded call raises.
        queries = {name for name, value in vars(FaultInjector).items()
                   if inspect.isfunction(value) and not name.startswith("_")}
        assert set(QUERIES) <= queries
        assert sorted(name for name in queries
                      if hasattr(NullInjector, name)) == []
        assert not issubclass(FaultInjector, NullInjector)
        assert NULL_INJECTOR.enabled is False
        assert NULL_INJECTOR.plan is None
        with pytest.raises(AttributeError):
            NULL_INJECTOR.is_down(N0, 0.0)

    def test_shared_stats_stay_zero(self):
        # A contended fault-free run (global grants and lock waits)
        # leaves the shared null injector exactly as it was.
        cluster = make_cluster(seed=3)
        counter = cluster.create(Counter)
        for _ in range(12):
            cluster.submit(counter, "add", 1)
        cluster.run()
        assert cluster.read_attr(counter, "value") == 12
        assert cluster.lock_stats.waits > 0
        assert cluster.injector is NULL_INJECTOR
        assert vars(NULL_INJECTOR) == {}
        assert all(
            value == 0 for value in NULL_INJECTOR.stats.snapshot().values()
        )


class TestFaultInjector:
    def test_deterministic_given_seed(self):
        plan = FaultPlan(drop_probability=0.3, duplicate_probability=0.2,
                         delay_jitter_s=0.001)
        injector_a = FaultInjector(plan, SeededRNG(7))
        injector_b = FaultInjector(plan, SeededRNG(7))
        verdicts_a = [injector_a.message_faults(msg(), 0, 0.0)
                      for _ in range(50)]
        verdicts_b = [injector_b.message_faults(msg(), 0, 0.0)
                      for _ in range(50)]
        assert verdicts_a == verdicts_b

    def test_drop_suppressed_past_retransmit_limit(self):
        plan = FaultPlan(drop_probability=1.0, retransmit_limit=3)
        injector = FaultInjector(plan, SeededRNG(1))
        for attempt in range(3):
            assert injector.message_faults(msg(), attempt, 0.0).dropped
        # Fair loss: at the limit the channel turns lossless.
        assert not injector.message_faults(msg(), 3, 0.0).dropped
        assert injector.stats.messages_dropped == 3

    def test_jitter_bounded_by_plan(self):
        plan = FaultPlan(delay_jitter_s=0.004)
        injector = FaultInjector(plan, SeededRNG(3))
        for _ in range(100):
            verdict = injector.message_faults(msg(), 0, 0.0)
            assert 0.0 <= verdict.extra_delay_s <= 0.004
        assert injector.stats.delay_injected_s > 0

    def test_crash_windows(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.010, down_for_s=0.005),
        ))
        injector = FaultInjector(plan, SeededRNG(0))
        assert not injector.is_down(N1, 0.009)
        assert injector.is_down(N1, 0.010)
        assert injector.down_until(N1, 0.012) == pytest.approx(0.015)
        assert not injector.is_down(N1, 0.015)
        assert not injector.is_down(N0, 0.012)

    def test_down_node_drops_without_consuming_randomness(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.0, down_for_s=1.0),
        ))
        injector = FaultInjector(plan, SeededRNG(9))
        before = injector.rng.random()
        injector = FaultInjector(plan, SeededRNG(9))
        assert injector.message_faults(msg(dst=N1), 0, 0.5).dropped
        # The crash-window drop is schedule-driven, not probabilistic:
        # the RNG stream is untouched.
        assert injector.rng.random() == before

    def test_synchronous_path_ignores_crash_windows(self):
        plan = FaultPlan(crashes=(
            CrashEvent(node_index=1, at_s=0.0, down_for_s=1.0),
        ))
        injector = FaultInjector(plan, SeededRNG(9))
        verdict = injector.message_faults(msg(dst=N1), 0, 0.5,
                                          synchronous=True)
        assert not verdict.dropped
