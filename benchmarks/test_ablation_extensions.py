"""Ablation benches for the paper's announced extensions (§5.1, §6):
multicast pushes, optimistic prefetching, and per-class protocol
mixes."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED, run_once


def test_multicast_collapses_rc_pushes(benchmark, show):
    """§6: on a multicast fabric one transmission updates every
    replica — push messages and bytes both drop."""
    result = run_once(
        benchmark, run_experiment, "abl-multicast", seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    assert result.series["push_messages"]["multicast"] < \
        result.series["push_messages"]["unicast"]
    assert result.series["push_bytes"]["multicast"] < \
        result.series["push_bytes"]["unicast"]


def test_prefetch_hides_lock_latency(benchmark, show):
    """§5.1: with locks *and* pages pre-acquired in parallel, mean root
    latency drops well below the demand-driven baseline on a
    low-contention nested workload — at the price of extra messages
    (optimism that is denied or unused is not free)."""
    result = run_once(
        benchmark, run_experiment, "abl-prefetch", seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    latency = result.series["mean_latency_us"]
    assert latency["locks+pages"] < latency["off"] * 0.8
    assert result.series["messages"]["locks+pages"] > \
        result.series["messages"]["off"]
    assert result.series["prefetch_granted"]["locks+pages"] > 0


def test_per_class_mix_between_extremes(benchmark, show):
    """§6: putting only the hot class on RC costs more bytes than pure
    LOTEC but far less than running everything eagerly."""
    result = run_once(
        benchmark, run_experiment, "abl-perclass", seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    data = result.series["data_bytes"]
    assert data["lotec"] <= data["mixed"] <= data["rc"]
    assert data["mixed"] < data["rc"]
