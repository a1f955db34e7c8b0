"""Figure 3: bytes per shared object — large objects (10-20 pages),
high contention.

Paper shape: same ordering as Figure 2 with larger absolute byte
counts and a wider LOTEC gap — big objects whose methods touch page
subsets are exactly LOTEC's favourable regime.
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig3_large_objects_high_contention(show):
    result = run_experiment("fig3", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    totals = result.meta["total_data_bytes"]
    assert totals["cotec"] > totals["otec"] > totals["lotec"]
    # Larger objects shift every curve up by roughly the page-count
    # ratio vs the medium scenario.
    medium = run_experiment("fig2", seed=BENCH_SEED, scale=BENCH_SCALE)
    assert totals["cotec"] > medium.meta["total_data_bytes"]["cotec"] * 2
    # LOTEC's relative saving vs OTEC should be at least as good as on
    # medium objects.
    saving_large = 1 - totals["lotec"] / totals["otec"]
    assert saving_large > 0.02
