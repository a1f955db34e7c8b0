"""§4.2 ablation: page-grain vs object-grain ("Distributed Shared
Data") transfer under LOTEC.

"Only updates to the objects (not the entire pages they are stored on)
really need to be transmitted between nodes" — object grain avoids
shipping the partial tail page's padding, so it always moves at most
the bytes of page grain, with the same message count."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_object_grain_beats_page_grain(show):
    result = run_experiment("abl-dsd", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    # The guarantee is per transfer: an object-grain data message never
    # carries more than its page-grain twin (raw object bytes <= whole
    # pages).  Run-level totals can diverge slightly because message
    # timing shifts interleavings and retry patterns, so the robust
    # shape check is mean data-message size.
    mean_size = result.series["mean_data_message_bytes"]
    assert mean_size["object"] < mean_size["page"]
    data = result.series["data_bytes"]
    assert data["object"] <= data["page"] * 1.10
