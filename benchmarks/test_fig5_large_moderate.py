"""Figure 5: bytes per shared object — large objects, moderate
contention (the paper's heaviest scenario; note the y axis reaching
~700,000 bytes for hot objects)."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig5_large_objects_moderate_contention(show):
    result = run_experiment("fig5", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    totals = result.meta["total_data_bytes"]
    assert totals["cotec"] > totals["otec"] > totals["lotec"]
    # Nearly every root commits under every protocol (this is the most
    # contended scenario; a small fraction may exhaust the deadlock
    # retry budget, more under COTEC whose long full-object transfers
    # widen the conflict windows).
    committed = result.meta["committed"]
    failed = result.meta["failed"]
    for protocol, count in committed.items():
        assert count > 0
        assert failed[protocol] <= 0.10 * (count + failed[protocol]), protocol
