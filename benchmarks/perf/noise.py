#!/usr/bin/env python3
"""The noise study behind the bounds, and the writer of /BENCHMARK.json.

    python3 benchmarks/perf/noise.py --study DIR [--runs 10]
        two sets of runs back to back, as the driver makes them: every run
        of a set has another --seed, and the two sets share no seed.
        Leaves one --out directory per run under DIR/A and DIR/B.
    python3 benchmarks/perf/noise.py --study DIR --same-seed [--runs 5]
        the same with every run at the default seeds: host noise alone.
    python3 benchmarks/perf/noise.py --derive DIR [--repeat DIR2]
        per workload and end-to-end metric: both set medians, their gap,
        the quartile spreads and the bound that follows; writes noise.json
        and prints the tables of NOISE.md.
    python3 benchmarks/perf/noise.py --write-benchmark
        /BENCHMARK.json from metrics.py and the bounds in noise.json.

Bound of one workload and metric, from the two sets of the seed study:

    max(floor, 3 x the wider quartile spread, 1.5 x the gap of the medians)

capped at 0.25, the most the driver accepts.  The floor is 0.10 for host
time and 0.02 for what repeats exactly at a given seed; `setup_s` gets
0.25 outright.  /BENCHMARK.json has one bound per metric: the largest
over the workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
from run import HERE, NOISE_JSON, ROOT, load_set

CAP = 0.25
RUN_SECONDS = 8


def study(directory: Path, runs: int, same_seed: bool) -> None:
    for index, label in enumerate("AB"):
        for run in range(runs):
            out = directory / label / f"run{run:02d}"
            command = [sys.executable, str(HERE / "run.py"), "--out", str(out),
                       "--seconds", str(RUN_SECONDS)]
            if not same_seed:
                command += ["--trace", "0",
                            "--seed", str(1 + index * runs + run)]
            print("+", " ".join(command), flush=True)
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)


def derive(directory: Path) -> dict:
    """workload -> metric -> medians, spreads, gap and bound."""
    first, second = load_set(directory / "A"), load_set(directory / "B")
    rows: dict = {}
    for workload, _ in metrics.WORKLOADS:
        for name, _, _ in metrics.END_TO_END:
            a, b = first[workload][name], second[workload][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            gap = abs(median_b - median_a) / median_a
            spread = max(metrics.spread(a), metrics.spread(b))
            floor = 0.10 if name in metrics.HOST_TIME else 0.02
            bound = CAP if name == "setup_s" else min(
                CAP, max(floor, 3 * spread, 1.5 * gap)
            )
            rows.setdefault(workload, {})[name] = {
                "median_a": median_a, "median_b": median_b, "gap": gap,
                "quartiles_a": statistics.quantiles(a, n=4),
                "quartiles_b": statistics.quantiles(b, n=4),
                "spread_a": metrics.spread(a), "spread_b": metrics.spread(b),
                "bound": round(bound, 3),
            }
    return rows


def print_table(rows: dict, with_bound: bool) -> None:
    head = "| workload | metric | median A | median B | gap | spread A | spread B |"
    print(head + (" bound |" if with_bound else ""))
    print("|---|---|---|---|---|---|---|" + ("---|" if with_bound else ""))
    for workload, by_metric in rows.items():
        for name, row in by_metric.items():
            line = (f"| {workload} | {name} | {row['median_a']:.6g} | "
                    f"{row['median_b']:.6g} | {row['gap']:.4f} | "
                    f"{row['spread_a']:.4f} | {row['spread_b']:.4f} |")
            print(line + (f" {row['bound']:.3f} |" if with_bound else ""))


def write_benchmark() -> None:
    bounds = json.loads(NOISE_JSON.read_text())["bounds"]
    benchmark = {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in metrics.WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": max(rows[name]["bound"] for rows in bounds.values())}
            for name, unit, better in metrics.END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in metrics.PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--study", type=Path)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--derive", type=Path)
    parser.add_argument("--repeat", type=Path,
                        help="a --same-seed study to record beside --derive")
    parser.add_argument("--write-benchmark", action="store_true")
    args = parser.parse_args(argv)
    if args.study:
        study(args.study, args.runs or (5 if args.same_seed else 10),
              args.same_seed)
    if args.derive:
        document = {"bounds": derive(args.derive)}
        print_table(document["bounds"], with_bound=True)
        if args.repeat:
            document["same_seed"] = derive(args.repeat)
            print()
            print_table(document["same_seed"], with_bound=False)
        NOISE_JSON.write_text(json.dumps(document, indent=1) + "\n")
    if args.write_benchmark:
        write_benchmark()
    return 0


if __name__ == "__main__":
    sys.exit(main())
