"""§6 announced extension: nested-object Release Consistency compared
against COTEC/OTEC/LOTEC.

Expected shape (the reason the paper chose entry-style laziness):
eager RC pushes every update to every caching replica whether or not
it will be read, so on contended multi-reader workloads it moves more
data than the lazy protocols."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_rc_vs_lazy_protocols(show):
    result = run_experiment("abl-rc", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    data = result.series["data_bytes"]
    assert data["rc"] > data["lotec"]
    assert data["rc"] > data["otec"]
