"""Design-choice ablation: holder-list caching at the holding site.

§4.1's local/global split exists so that "the bulk of processing is
performed locally".  Disable the cache and every intra-family lock
operation becomes a round trip to the GDO home node: lock message
traffic must rise and local operations drop to zero."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED, run_once


def test_holder_list_caching_pays(benchmark, show):
    result = run_once(
        benchmark, run_experiment, "abl-gdocache",
        seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    assert result.series["local_ops"]["uncached"] == 0
    assert result.series["local_ops"]["cached"] > 0
    assert result.series["lock_messages"]["uncached"] > \
        result.series["lock_messages"]["cached"]
    assert result.series["cache_hit_rate"]["cached"] > 0
    assert result.series["cache_hit_rate"]["uncached"] == 0
