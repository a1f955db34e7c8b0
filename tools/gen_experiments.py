#!/usr/bin/env python
"""Regenerate the measured numbers quoted in EXPERIMENTS.md.

Runs every experiment at full scale (the benches' default is half
scale for speed) and writes the rendered tables to
``tools/experiments_data.txt`` for inclusion in EXPERIMENTS.md.
"""

import io
import sys

from repro.bench import run_experiment

SEED = 11
SCALE = 1.0


def _bytes_totals(result) -> str:
    totals = result.meta["total_data_bytes"]
    return (
        f"aggregate data bytes: {totals}\n"
        f"OTEC vs COTEC: -{1 - totals['otec'] / totals['cotec']:.1%}; "
        f"LOTEC vs OTEC: -{1 - totals['lotec'] / totals['otec']:.1%}\n"
        f"messages: {result.meta['total_messages']}"
    )


def _reductions(result) -> str:
    return "\n".join(
        f"{scenario}: OTEC -{r['otec_vs_cotec']:.1%} vs COTEC; "
        f"LOTEC -{r['lotec_vs_otec']:.1%} vs OTEC"
        for scenario, r in result.meta["reductions"].items()
    )


#: (section title, experiment id, extra lines from the result).
SECTIONS = [
    ("fig2 (medium-high)", "fig2", _bytes_totals),
    ("fig3 (large-high)", "fig3", _bytes_totals),
    ("fig4 (medium-moderate)", "fig4", _bytes_totals),
    ("fig5 (large-moderate)", "fig5", _bytes_totals),
    ("fig6 (10Mbps)", "fig6", None),
    ("fig7 (100Mbps)", "fig7", None),
    ("fig8 (1Gbps)", "fig8", None),
    ("tab-speedup (reductions)", "tab-speedup", _reductions),
] + [
    (eid, eid, None)
    for eid in ("msg-count", "abl-rc", "abl-dsd", "abl-predict",
                "abl-gdocache", "abl-recovery", "abl-multicast",
                "abl-prefetch", "abl-perclass", "abl-aggregate")
]


def main() -> None:
    out = io.StringIO()
    for title, experiment_id, extra in SECTIONS:
        result = run_experiment(experiment_id, seed=SEED, scale=SCALE)
        print(f"== {title} ==", file=out)
        print(result.render(), file=out)
        if extra:
            print(extra(result), file=out)
        print(file=out)
        sys.stderr.write(f"done: {title}\n")

    with open("tools/experiments_data.txt", "w") as handle:
        handle.write(out.getvalue())
    print("wrote tools/experiments_data.txt")


if __name__ == "__main__":
    main()
