"""Figure 8: total message time at 1 Gbps (gigabit Ethernet).

Paper shape: wire time is nearly free, so the per-message software
cost dominates and LOTEC's many small messages erode its advantage at
heavyweight costs — "as we migrate to gigabit Ethernet ... any LOTEC
implementation will also have to incorporate extremely efficient
message transmission protocols."
"""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_fig8_transfer_time_1gbps(show):
    result = run_experiment("fig8", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    lotec, otec = result.series["lotec"], result.series["otec"]
    # With cheap messaging LOTEC wins clearly...
    assert lotec["500ns"] < otec["500ns"]
    # ...but its relative advantage erodes as software cost rises
    # (the paper's central Figure 8 observation).
    advantage_cheap = 1 - lotec["500ns"] / otec["500ns"]
    advantage_heavy = 1 - lotec["100us"] / otec["100us"]
    assert advantage_heavy < advantage_cheap
    # And software cost dominates at this bandwidth: 100us costs every
    # protocol far more than 500ns.
    for protocol in ("cotec", "otec", "lotec"):
        series = result.series[protocol]
        assert series["100us"] > series["500ns"] * 1.5
