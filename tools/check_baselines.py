#!/usr/bin/env python
"""Unified baseline gate: wire budgets, locality claim, engine speed.

One entry point for every committed benchmark envelope, so CI and
developers run the same command:

* ``--only messages`` — per-protocol ``PAGE_REQUEST`` / total message
  counts vs ``benchmarks/baselines/claims_messages.json``.  Any
  increase fails the build: transfer-pipeline changes may only hold
  or shrink the message budget, never silently grow it.
* ``--only locality`` — remote directory messages under static
  round-robin homes vs adaptive GDO migration on the skewed open-loop
  load scenario, vs ``benchmarks/baselines/claims_locality.json``.
  Fails if either count grows past its baseline, or if migration's
  reduction drops below the baseline's ``min_reduction`` floor (the
  headline "migration cuts remote directory traffic by >= 30%" claim).
* ``--only speed`` — normalized engine events/s on the fig2 point vs
  ``benchmarks/baselines/BENCH_SPEED.json``.  Fails on a >15%
  normalized regression against the committed baseline, if the
  committed ≥3x speedup over the pre-overhaul measurement no longer
  holds, or if the traced golden-point digest changed (an
  "optimization" that perturbs the event schedule is a behavior
  change, not a speedup).
* ``--only commutativity`` — semantic-lock payoff on the hot-object
  bank/order workloads vs
  ``benchmarks/baselines/claims_commutativity.json``.  Simulated time,
  so the comparison is exact: any drift from the committed throughput
  or lock-wait numbers fails, as does losing the headline
  ``min_bank_speedup`` floor.

Each gate re-measures at its envelope's own pinned (seed, scale,
scenario) point.  ``--only`` may be repeated; with no ``--only`` every
gate runs.  ``--update`` rewrites the selected envelopes from this run
instead of checking.  The two wire-budget gates alone:

    PYTHONPATH=src python tools/check_baselines.py --only messages --only locality
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_commutativity  # noqa: E402
import bench_speed  # noqa: E402

GATES = ("messages", "locality", "speed", "commutativity")

_BASELINE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "baselines",
)
MESSAGES_BASELINE_PATH = os.path.join(_BASELINE_DIR,
                                      "claims_messages.json")
LOCALITY_BASELINE_PATH = os.path.join(_BASELINE_DIR,
                                      "claims_locality.json")


def _measure(experiment_id: str, **options):
    """``(spec, run record)`` for each run of one experiment."""
    from repro.bench import ExperimentRunner, build_plan

    specs = build_plan(experiment_id, **options).specs
    return zip(specs, ExperimentRunner().execute(specs))


def measure_messages(scenario: str, seed: int, num_nodes: int, scale: float):
    counts = {}
    for spec, measurement in _measure("msg-count", scenario=scenario,
                                      seed=seed, num_nodes=num_nodes,
                                      scale=scale):
        network = measurement["network"]
        counts[spec.key] = {
            "page_request_messages":
                network["by_category_messages"].get("page_request", 0),
            "total_messages": network["total_messages"],
        }
    return counts


def measure_locality(scenario: str, seed: int, scale: float):
    counts = {}
    for spec, measurement in _measure("claims-locality", scenario=scenario,
                                      seed=seed, scale=scale):
        counts[spec.key] = {
            "remote_directory_messages":
                measurement["network"]["directory_messages"],
            "total_messages": measurement["network"]["total_messages"],
        }
    static = counts["static"]["remote_directory_messages"]
    adaptive = counts["adaptive"]["remote_directory_messages"]
    reduction = 0.0 if static <= 0 else (static - adaptive) / static
    return counts, round(reduction, 4)


def check_messages(update: bool) -> list:
    with open(MESSAGES_BASELINE_PATH, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    point = baseline["point"]
    counts = measure_messages(point["scenario"], point["seed"],
                              point["num_nodes"], point["scale"])

    if update:
        baseline["counts"] = counts
        with open(MESSAGES_BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {MESSAGES_BASELINE_PATH}")
        return []

    failures = []
    for protocol, expected in sorted(baseline["counts"].items()):
        got = counts.get(protocol)
        if got is None:
            failures.append(f"{protocol}: missing from measurement")
            continue
        for metric in ("page_request_messages", "total_messages"):
            if got[metric] > expected[metric]:
                failures.append(
                    f"{protocol}.{metric}: {got[metric]} > baseline "
                    f"{expected[metric]}"
                )
            else:
                print(f"ok: {protocol}.{metric} = {got[metric]} "
                      f"(baseline {expected[metric]})")
    return failures


def check_locality(update: bool) -> list:
    with open(LOCALITY_BASELINE_PATH, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    point = baseline["point"]
    counts, reduction = measure_locality(point["scenario"], point["seed"],
                                         point["scale"])

    if update:
        baseline["counts"] = counts
        baseline["reduction"] = reduction
        with open(LOCALITY_BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {LOCALITY_BASELINE_PATH}")
        return []

    failures = []
    min_reduction = baseline["min_reduction"]
    if reduction < min_reduction:
        failures.append(
            f"locality.reduction: {reduction} < required {min_reduction} "
            "(migration no longer cuts remote directory traffic enough)"
        )
    else:
        print(f"ok: locality.reduction = {reduction} "
              f"(floor {min_reduction}, baseline {baseline['reduction']})")
    for policy, expected in sorted(baseline["counts"].items()):
        got = counts.get(policy)
        if got is None:
            failures.append(f"locality.{policy}: missing from measurement")
            continue
        for metric in ("remote_directory_messages", "total_messages"):
            if got[metric] > expected[metric]:
                failures.append(
                    f"locality.{policy}.{metric}: {got[metric]} > baseline "
                    f"{expected[metric]}"
                )
            else:
                print(f"ok: locality.{policy}.{metric} = {got[metric]} "
                      f"(baseline {expected[metric]})")
    return failures


def check_speed(update: bool) -> list:
    """Re-measure fig2 events/s and gate it against the envelope."""
    envelope = bench_speed.load_baseline()
    if envelope is None:
        return ["speed: no committed baseline "
                "(capture one with tools/bench_speed.py --update)"]

    failures = []
    trace = bench_speed.measure_trace_digest()
    expected = envelope.get("trace_check", {}).get("sha256")
    if expected is not None and trace["sha256"] != expected:
        # Behavior drift gates even an --update: a changed schedule
        # must be re-blessed via the golden-trace tests first.
        return [
            f"speed.trace: golden-point digest {trace['sha256']} != "
            f"committed {expected} (event schedule changed; fix the "
            "behavior or re-bless tests/test_trace_golden.py first)"
        ]
    print(f"ok: speed.trace digest {trace['sha256'][:16]}… "
          f"({trace['events']} events, {trace['commits']} commits)")

    committed = envelope.get("baseline")
    scale = committed["scale"] if committed else bench_speed.POINT["scale"]
    cal = bench_speed.calibrate()
    speed = bench_speed.measure_speed(scale, repeats=3)
    speed["scale"] = scale
    speed["normalized"] = round(speed["events_per_s"] / cal, 6)
    print(f"speed: {speed['events']} events in {speed['wall_s']}s = "
          f"{speed['events_per_s']} events/s "
          f"(normalized {speed['normalized']})")

    if update:
        envelope["baseline"] = speed
        envelope["calibration_ops_per_s"] = round(cal, 1)
        pre = envelope.get("pre_pr")
        if pre and pre.get("normalized"):
            envelope["speedup_vs_pre_pr"] = round(
                speed["normalized"] / pre["normalized"], 2
            )
        bench_speed.write_baseline(envelope)
        print(f"baseline updated: {bench_speed.BASELINE_PATH}")
        return []

    if committed is None:
        return ["speed: envelope has no 'baseline' measurement "
                "(run tools/bench_speed.py --update)"]
    max_regression = envelope.get("max_regression", 0.15)
    floor = committed["normalized"] * (1.0 - max_regression)
    if speed["normalized"] < floor:
        failures.append(
            f"speed.normalized: {speed['normalized']} < {floor:.6f} "
            f"(committed {committed['normalized']} minus "
            f"{max_regression:.0%} tolerance)"
        )
    else:
        print(f"ok: speed.normalized = {speed['normalized']} "
              f"(committed {committed['normalized']}, "
              f"floor {floor:.6f})")
    pre = envelope.get("pre_pr")
    min_speedup = envelope.get("min_speedup_vs_pre_pr")
    if pre and pre.get("normalized") and min_speedup:
        speedup = speed["normalized"] / pre["normalized"]
        if speedup < min_speedup:
            failures.append(
                f"speed.speedup_vs_pre_pr: {speedup:.2f}x < required "
                f"{min_speedup}x (the committed trajectory regressed)"
            )
        else:
            print(f"ok: speed.speedup_vs_pre_pr = {speedup:.2f}x "
                  f"(floor {min_speedup}x)")
    return failures


def check_commutativity(update: bool) -> list:
    """Re-measure the semantic-lock payoff and gate it exactly."""
    results = bench_commutativity.measure_all()
    for name, entry in sorted(results.items()):
        print(f"commutativity.{name}: "
              f"off {entry['off']['throughput_commits_per_s']} -> "
              f"on {entry['on']['throughput_commits_per_s']} commits/s "
              f"({entry['speedup']}x, waits "
              f"{entry['off']['lock_waits']} -> "
              f"{entry['on']['lock_waits']})")

    if update:
        bench_commutativity.write_baseline({
            "schema": bench_commutativity.SCHEMA,
            "protocol": "lotec",
            "min_bank_speedup": bench_commutativity.MIN_BANK_SPEEDUP,
            "workloads": results,
        })
        print(f"baseline updated: {bench_commutativity.BASELINE_PATH}")
        return []

    envelope = bench_commutativity.load_baseline()
    if envelope is None:
        return ["commutativity: no committed baseline (capture one with "
                "tools/bench_commutativity.py --update)"]
    failures = []
    floor = envelope.get("min_bank_speedup",
                         bench_commutativity.MIN_BANK_SPEEDUP)
    speedup = results["bank"]["speedup"]
    if speedup < floor:
        failures.append(
            f"commutativity.bank: speedup {speedup}x < required {floor}x"
        )
    else:
        print(f"ok: commutativity.bank speedup {speedup}x (floor {floor}x)")
    # Simulated clocks are exact, so the committed numbers must
    # reproduce bit-for-bit — any drift is a behavior change.
    committed = envelope.get("workloads", {})
    if committed != results:
        for name in sorted(set(committed) | set(results)):
            if committed.get(name) != results.get(name):
                failures.append(
                    f"commutativity.{name}: measured {results.get(name)} "
                    f"!= committed {committed.get(name)} (if intentional, "
                    "regenerate with tools/check_baselines.py --update "
                    "--only commutativity)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the selected envelopes from this run")
    parser.add_argument("--only", action="append", choices=GATES,
                        help="run only the named gate(s); repeatable")
    args = parser.parse_args(argv)
    gates = tuple(args.only) if args.only else GATES

    failures = []
    if "messages" in gates:
        failures += check_messages(args.update)
    if "locality" in gates:
        failures += check_locality(args.update)
    if "speed" in gates:
        failures += check_speed(args.update)
    if "commutativity" in gates:
        failures += check_commutativity(args.update)

    if failures:
        print("baseline regression:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("If the change is intentional, regenerate with "
              "tools/check_baselines.py --update "
              f"--only {' --only '.join(gates)}", file=sys.stderr)
        return 1
    if not args.update:
        print(f"baselines within envelopes: {', '.join(gates)}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
