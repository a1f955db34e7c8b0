"""§5 prose: "LOTEC also sends many more messages (albeit small ones)
than OTEC or COTEC.  This suggested the importance of low message
latency for LOTEC."

Shape asserted: LOTEC's message count is the highest of the three and
its mean message size the smallest."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_message_count_vs_size(show):
    result = run_experiment("msg-count", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    messages = result.series["messages"]
    mean_size = result.series["mean_message_bytes"]
    assert messages["lotec"] >= messages["otec"]
    assert messages["lotec"] >= messages["cotec"] * 0.95
    assert mean_size["lotec"] < mean_size["otec"]
    assert mean_size["lotec"] < mean_size["cotec"]
    # And despite more messages, fewer bytes in total.
    bytes_total = result.series["bytes"]
    assert bytes_total["lotec"] < bytes_total["otec"] < bytes_total["cotec"]
