"""Design-choice ablation: LOTEC's advantage vs method access width.

LOTEC's whole edge over OTEC is that methods touch a *subset* of the
object (§4.1).  Sweep that subset fraction: narrow methods should give
the largest saving; methods touching ~everything should collapse the
saving toward zero (prediction ~ whole object = OTEC)."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED, run_once


def test_saving_grows_as_access_narrows(benchmark, show):
    result = run_once(
        benchmark, run_experiment, "abl-predict",
        seed=BENCH_SEED, scale=BENCH_SCALE,
    )
    show(result)
    savings = result.series["lotec_saving"]
    labels = list(savings)
    narrowest, widest = labels[0], labels[-1]
    assert savings[narrowest] > savings[widest]
    assert savings[narrowest] > 0.10
    assert savings[widest] < 0.10
