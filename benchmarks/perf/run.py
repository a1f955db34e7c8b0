#!/usr/bin/env python3
"""The repo's performance benchmark: one command, four workloads.

    python3 benchmarks/perf/run.py [--seed N] [--out DIR]
        runs the four workloads one after another, checks every run with
        the repo's oracles, prints every metric by name with its unit.
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of standard output is one JSON object
        with the end-to-end (--trace 0) or per-layer (--trace 1) metrics.
    python3 benchmarks/perf/run.py --compare A B
        two --out directories, or two directories of them: one row per
        workload and end-to-end metric; exit code 1 on any `worse`.

All measuring happens in fresh child interpreters (child.py) started with
PYTHONHASHSEED=0 and PYTHONPATH=<repo>/src; this process imports nothing
from the repo, so its timings of the children are not disturbed.
README.md in this directory is the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NOISE_JSON = HERE / "noise.json"

PROBES = 5
#: Every child of one workload must end inside this budget; a child that
#: outlives what is left of it is killed.  About ten times what a
#: workload takes on the reference box.
WATCHDOG_S = 170.0
SELF_CHECK_SIZE = 0.25


class RunFailure(Exception):
    """A child failed, hung or tripped a guard; the message is one line."""


class Children:
    """Starts the children of one workload under a shared watchdog."""

    def __init__(self, workload: str, seed: Optional[int], seconds: float,
                 size_factor: float):
        self.workload = workload
        self.common = ["--workload", workload, "--seconds", str(seconds),
                       "--size-factor", str(size_factor)]
        if seed is not None:  # else the child takes the workload's default
            self.common += ["--seed", str(seed)]
        self.deadline = time.monotonic() + WATCHDOG_S

    def run(self, mode: str, *extra: str, hash_seed: str = "0"):
        """One child to completion: (its JSON, spawn-to-exit seconds)."""
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(ROOT / "src"))
        command = [sys.executable, str(HERE / "child.py"), mode,
                   *self.common, *extra]
        started = time.perf_counter()
        child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                 text=True)
        try:
            stdout, _ = child.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RunFailure(
                f"{self.workload}: the {mode} child outlived the "
                f"{WATCHDOG_S:.0f} s watchdog and was killed"
            ) from None
        elapsed = time.perf_counter() - started
        if child.returncode != 0:
            raise RunFailure(
                f"{self.workload}: the {mode} child exited with code "
                f"{child.returncode}"
            )
        return json.loads(stdout.strip().splitlines()[-1]), elapsed


def measure_setup(children: Children) -> float:
    """Median spawn-to-exit time of the set-up probes, without their
    calibration chunks and scaled to the reference speed by them."""
    times = []
    for _ in range(PROBES):
        probe, elapsed = children.run("probe")
        times.append((elapsed - probe["calibration_s"]) * probe["speed_scale"])
    return statistics.median(times)


def check_same_inputs(workload: str, timing: Dict, layers: Dict) -> None:
    """The layers child reran batch 0 in another process, under the
    profiler: on the virtual clock every counter must agree."""
    if timing["clock"] != "virtual":
        return
    timed = timing["batches"][0]["counters"]
    for key, value in layers["counters"].items():
        if timed[key] != value:
            raise RunFailure(
                f"{workload}: {key} differs between the timing child and "
                f"the layers child on the same inputs "
                f"({timed[key]!r} vs {value!r})"
            )


def hash_seed_self_check(seed: Optional[int]) -> None:
    """py_calls and the simulated counters must not depend on the hash
    seed: fig2-deadlock at reduced size under PYTHONHASHSEED 0 and 1."""
    children = Children("fig2-deadlock", seed, 0.0, SELF_CHECK_SIZE)
    first, _ = children.run("layers", hash_seed="0")
    second, _ = children.run("layers", hash_seed="1")
    if first["profile"]["py_calls"] != second["profile"]["py_calls"]:
        raise RunFailure(
            f"fig2-deadlock: py_calls differs between PYTHONHASHSEED 0 and 1 "
            f"({first['profile']['py_calls']} vs "
            f"{second['profile']['py_calls']})"
        )
    if first["counters"] != second["counters"]:
        raise RunFailure(
            "fig2-deadlock: simulated counters differ between "
            "PYTHONHASHSEED 0 and 1"
        )


def run_workload(workload: str, seed: Optional[int], seconds: float,
                 size_factor: float,
                 end_to_end: bool, per_layer: bool, out: Optional[Path],
                 mutate: Optional[str]) -> Dict:
    """Everything one workload's result needs; raises RunFailure."""
    children = Children(workload, seed, seconds, size_factor)
    extra: List[str] = []
    if out is not None:
        extra += ["--out", str(out)]
    if mutate:
        extra += ["--mutate", mutate]
    if per_layer:
        extra.append("--traced")
    if end_to_end:
        setup_s = measure_setup(children)
        timing, _ = children.run("timing")
    layers, _ = children.run("layers", *extra)
    result: Dict = {"workload": workload, "seed": layers["seed"],
                    "loop": layers["loop"], "clock": layers["clock"]}
    counted = layers["counters"]
    if end_to_end:
        check_same_inputs(workload, timing, layers)
        result["end_to_end"] = metrics.end_to_end(
            setup_s, timing, layers["profile"]["py_calls"]
        )
        counted, latencies = metrics.pool(timing["batches"])
        result["latency_samples"] = len(latencies)
        result["batch_walls_s"] = [b["wall_s"] for b in timing["batches"]]
        result["batch_raw_s"] = [b["raw_s"] for b in timing["batches"]]
    result["attempted"] = counted["submitted"]
    result["failed"] = counted["submitted"] - counted["commits"]
    if per_layer:
        result["per_layer"] = metrics.per_layer(layers)
    layers["counters"].pop("latencies", None)
    result["layers"] = layers
    return result


def print_result(result: Dict) -> None:
    workload = result["workload"]
    print(f"== {workload}  {result['loop']}  seed {result['seed']}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    if "end_to_end" in result:
        samples = result["latency_samples"]
        notes = {
            "root_latency_p50_ms": f"{samples} samples, "
                                   f"{result['clock']} clock",
            "root_latency_p95_ms":
                f"{metrics.samples_beyond(samples, 0.95)} samples beyond",
            "commits_per_s": f"{result['clock']} clock",
            "wall_s": "median of batches "
                      + " ".join(f"{w:.3f}" for w in result["batch_walls_s"])
                      + "; unscaled median "
                      + f"{statistics.median(result['batch_raw_s']):.3f}",
        }
        for name, unit, _ in metrics.END_TO_END:
            value = result["end_to_end"][name]
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{workload}/{name} {value:.6g} {unit}{note}")
        if workload == "zipf-open":
            print(f"{workload}: arrivals are pre-generated virtual-time "
                  f"offsets; generator lateness is 0 by construction")
    for name, unit, _ in metrics.PER_LAYER:
        if "per_layer" in result:
            print(f"{workload}/{name} {result['per_layer'][name]:.6g} {unit}")


def driver_line(result: Dict, declared, values: Dict[str, float]) -> str:
    return json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in declared},
    })


# -- compare -----------------------------------------------------------------


def load_set(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """End-to-end values of one --out directory, or of every --out
    directory directly inside ``path``: workload -> metric -> values."""
    runs = [path] if list(path.glob("*.json")) else sorted(
        child for child in path.iterdir()
        if child.is_dir() and list(child.glob("*.json"))
    )
    if not runs:
        raise RunFailure(f"{path}: no run results found")
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for name, _ in metrics.WORKLOADS:
            file = run / f"{name}.json"
            if not file.exists():
                continue
            result = json.loads(file.read_text())
            for metric, value in result.get("end_to_end", {}).items():
                values.setdefault(name, {}).setdefault(metric, []).append(value)
    return values


def load_bounds() -> Dict[str, Dict[str, float]]:
    """workload -> metric -> bound, from the committed noise study."""
    study = json.loads(NOISE_JSON.read_text())
    return {
        workload: {metric: row["bound"] for metric, row in rows.items()}
        for workload, rows in study["bounds"].items()
    }


def compare(first: Path, second: Path) -> int:
    """Print one row per workload and end-to-end metric; 1 on `worse`."""
    left, right = load_set(first), load_set(second)
    bounds = load_bounds()
    worse = 0
    print(f"{'workload/metric':<36}{'A median':>14}{'B median':>14}"
          f"{'(B-A)/A':>10}{'bound':>8}  verdict")
    for workload, _ in metrics.WORKLOADS:
        for name, _, better in metrics.END_TO_END:
            a = left.get(workload, {}).get(name)
            b = right.get(workload, {}).get(name)
            if not a or not b:
                continue
            base, other = statistics.median(a), statistics.median(b)
            gap = (other - base) / base
            bound = bounds[workload][name]
            widest = max(
                (metrics.spread(v) for v in (a, b) if len(v) >= 2),
                default=0.0,
            )
            loss = gap if better == "lower" else -gap
            if widest > bound:
                verdict = f"unresolved (spread {widest:.3f})"
            elif loss > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload + '/' + name:<36}{base:>14.6g}{other:>14.6g}"
                  f"{gap:>+10.4f}{bound:>8.3f}  {verdict}")
    return 1 if worse else 0


# -- command line ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    names = [name for name, _ in metrics.WORKLOADS]
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the JSON line")
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces every workload's default seed")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="measuring budget; sets the batch count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for <workload>.json and .pstats")
    parser.add_argument("--size-factor", type=float, default=1.0,
                        help="scale roots per instance (self-tests)")
    parser.add_argument("--mutate", default=None,
                        help="install a LockManager test mutation in the "
                             "traced run (self-tests: must exit non-zero)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        try:
            return compare(*args.compare)
        except RunFailure as failure:
            print(f"perf-bench: {failure}", file=sys.stderr)
            return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf-bench: {ROOT / 'src' / 'repro'} not found: the "
              f"benchmark runs the repo's sources", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    selected = [args.workload] if args.workload else names
    driver_mode = args.workload is not None and args.trace is not None
    try:
        if not args.workload:
            hash_seed_self_check(args.seed)
        for workload in selected:
            result = run_workload(
                workload, args.seed, args.seconds, args.size_factor,
                end_to_end=args.trace != 1, per_layer=args.trace != 0,
                out=args.out, mutate=args.mutate,
            )
            print_result(result)
            if args.out is not None:
                (args.out / f"{workload}.json").write_text(
                    json.dumps(result, indent=1, sort_keys=True)
                )
    except RunFailure as failure:
        print(f"perf-bench: {failure}", file=sys.stderr)
        return 1
    if driver_mode:
        if args.trace == 0:
            print(driver_line(result, metrics.END_TO_END,
                              result["end_to_end"]))
        else:
            print(driver_line(result, metrics.PER_LAYER,
                              result["per_layer"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
