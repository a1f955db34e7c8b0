"""Figure 7: total message time at 100 Mbps (fast Ethernet).

Paper shape: the intermediate point — software cost starts to matter
but does not dominate; "LOTEC should perform well with current, fast
Ethernet networks using only mildly aggressive, low-latency network
protocols."
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig7_transfer_time_100mbps(show):
    result = run_experiment("fig7", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    for cost in result.series["cotec"]:
        assert result.series["lotec"][cost] < result.series["cotec"][cost]
    lotec = result.series["lotec"]
    # Software cost has a visible but non-dominant effect here: more
    # than at 10 Mbps, less than at 1 Gbps.
    ratio = lotec["100us"] / lotec["500ns"]
    assert 1.02 < ratio < 3.0
