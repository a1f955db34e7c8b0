"""Figure 2: bytes per shared object — medium objects (1-5 pages),
high contention (20 objects, strong skew).

Paper shape: COTEC highest, OTEC below it, LOTEC lowest, for (nearly)
every plotted object; the aggregate ordering is strict.
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig2_medium_objects_high_contention(show):
    result = run_experiment("fig2", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    totals = result.meta["total_data_bytes"]
    assert totals["cotec"] > totals["otec"] > totals["lotec"]
    # Per-object: LOTEC must win or tie on a clear majority of the
    # plotted objects (scattering can cost it a few, as in the paper's
    # noisier bars).
    objects = list(result.series["cotec"])
    lotec_wins = sum(
        1
        for obj in objects
        if result.series["lotec"][obj] <= result.series["otec"][obj]
    )
    assert lotec_wins >= len(objects) * 0.6
    cotec_wins = sum(
        1
        for obj in objects
        if result.series["otec"][obj] <= result.series["cotec"][obj]
    )
    assert cotec_wins >= len(objects) * 0.9
