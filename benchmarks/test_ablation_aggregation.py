"""§5.1 ablation: aggregating related small objects into one larger
object slashes concurrency-control and consistency overhead.

"The LOTEC protocol, as described, has a natural preference for
coarse-grained concurrency since the larger objects are, the fewer
lock operations are necessary. ... Heavily object-based environments
can sometimes aggregate related small objects into larger objects."
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED, run_once


def test_aggregation_cuts_lock_overhead(benchmark, show):
    result = run_once(
        benchmark, run_experiment, "abl-aggregate",
        seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    # Identical logical work...
    assert result.meta["fine_state_sum"] == result.meta["coarse_state_sum"]
    # ...but one lock acquisition per group instead of one per element.
    ops = result.series["global_lock_ops"]
    assert ops["coarse"] * 4 < ops["fine"]
    assert result.series["lock_messages"]["coarse"] < \
        result.series["lock_messages"]["fine"]
    assert result.series["total_messages"]["coarse"] < \
        result.series["total_messages"]["fine"]
