"""Figure 6: total message time for a hot shared object at 10 Mbps
(conventional switched Ethernet), across per-message software costs of
100 us down to 500 ns.

Paper shape: at this bandwidth serialization dominates, so the curves
are nearly flat in software cost and LOTEC wins at every point —
"LOTEC faired quite well for the slower networks even with fairly
heavyweight messaging protocols."
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig6_transfer_time_10mbps(show):
    result = run_experiment("fig6", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    for cost in result.series["cotec"]:
        assert result.series["cotec"][cost] > result.series["otec"][cost]
        assert result.series["otec"][cost] > result.series["lotec"][cost]
    # Serialization dominates: dropping software cost 200x changes the
    # totals by only a few percent.
    for protocol in ("cotec", "otec", "lotec"):
        series = result.series[protocol]
        assert series["100us"] < series["500ns"] * 1.25
