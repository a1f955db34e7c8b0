"""Figure 4: bytes per shared object — medium objects, moderate
contention (100 objects, mild skew; the paper samples objects O9-O99).
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig4_medium_objects_moderate_contention(show):
    result = run_experiment("fig4", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    totals = result.meta["total_data_bytes"]
    assert totals["cotec"] > totals["otec"] > totals["lotec"]
    # Moderate contention spreads traffic thinner per object than the
    # high-contention runs: the busiest object carries a smaller share.
    top_share = max(result.series["cotec"].values()) / totals["cotec"]
    assert top_share < 0.5
