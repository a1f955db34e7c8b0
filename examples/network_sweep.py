#!/usr/bin/env python
"""Regenerate the paper's network sweep (Figures 6-8) at small scale.

For each Ethernet generation the paper simulated (10 Mbps, 100 Mbps,
1 Gbps) and each per-message software cost (100 us ... 500 ns), prints
the total message time needed to keep one hot shared object consistent
under COTEC/OTEC/LOTEC — the series of Figures 6-8.  Watch LOTEC's
relative advantage erode as bandwidth rises and software cost starts
to dominate (its many small messages each pay the startup price).

Run:  python examples/network_sweep.py            (quick)
      python examples/network_sweep.py --full     (paper scale)
"""

import sys

from repro.bench import run_experiment


def main() -> None:
    full = "--full" in sys.argv
    scale = 1.0 if full else 0.2
    for figure in ("fig6", "fig7", "fig8"):  # 10 Mbps, 100 Mbps, 1 Gbps
        result = run_experiment(figure, scale=scale, seed=11)
        print(result.render())
        print()
    summary = run_experiment("fig3", scale=scale, objects_shown=8)
    print(summary.render())
    totals = summary.meta["total_data_bytes"]
    print(f"\naggregate data bytes: {totals}")
    print(f"OTEC saves {1 - totals['otec'] / totals['cotec']:.0%} vs COTEC; "
          f"LOTEC saves another {1 - totals['lotec'] / totals['otec']:.0%} "
          f"vs OTEC")


if __name__ == "__main__":
    main()
