#!/usr/bin/env python
"""Unified baseline gate: wire budgets, locality, perf curve, commutativity.

One entry point for every committed envelope in
``benchmarks/baselines/``, so CI and developers run the same command:

* ``--only messages`` — per-protocol ``PAGE_REQUEST`` / total message
  counts vs ``claims_messages.json``.  Any increase fails the build:
  transfer-pipeline changes may only hold or shrink the message budget,
  never silently grow it.
* ``--only locality`` — remote directory messages under static
  round-robin homes vs adaptive GDO migration on the skewed open-loop
  load scenario, vs ``claims_locality.json``.  Fails if either count
  grows past its baseline, or if migration's reduction drops below the
  baseline's ``min_reduction`` floor (the headline "migration cuts
  remote directory traffic by >= 30%" claim).
* ``--only perf`` — ``benchmarks/perf/run.py`` in its driver form
  (``--workload W --seed 11 --seconds 8 --trace 0 --size-factor F
  --out perf-out/<point>``) at every point of ``BENCH_PERF.json``:
  ``fig5-pages``, ``zipf-open``, ``tcp-closed`` and ``fig2-deadlock``
  at size factors 0.5, 1, 2 and 4.  Fails on another interpreter than
  the envelope was recorded on (``py_calls`` counts that interpreter's
  frames), on any drift in a simulated metric or counter, on
  ``py_calls`` above 1.03x its recorded value, and on a fig2-deadlock
  x2 / x1 or x4 / x1 ``py_calls`` ratio above its ``BURST_POINTS`` limit.
* ``--only commutativity`` — semantic-lock payoff on the hot-object
  bank/order workloads vs ``claims_commutativity.json``.  Simulated
  time, so the comparison is exact: any drift from the committed
  throughput or lock-wait numbers fails, as does losing the headline
  ``min_bank_speedup`` floor.

Each gate re-measures at its envelope's own pinned points.  ``--only``
may be repeated; with no ``--only`` every gate runs.  ``--update``
rewrites the measured fields of the selected envelopes from this run
instead of checking; the pinned points, floors and limits are edited by
hand.  The two wire-budget gates alone:

    python tools/check_baselines.py --only messages --only locality
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Gate name -> its envelope in ``benchmarks/baselines/``, in run order.
ENVELOPES = {
    "messages": "claims_messages.json",
    "locality": "claims_locality.json",
    "perf": "BENCH_PERF.json",
    "commutativity": "claims_commutativity.json",
}
GATES = tuple(ENVELOPES)

#: The simulated end-to-end metrics of ``run.py``: exact for a seed on
#: the virtual clock.
SIMULATED = ("committed_share", "root_latency_p50_ms", "root_latency_p95_ms",
             "commits_per_s", "bytes_per_commit", "msgs_per_commit",
             "events_per_commit")
#: Of those, the ones that repeat exactly on ``tcp-closed``'s wall clock;
#: its latencies and rate are host time.
COUNTED = ("committed_share", "bytes_per_commit", "msgs_per_commit",
           "events_per_commit")
#: Counters of the profiled batch (``layers.counters``); exact on both
#: clocks.
COUNTERS = ("events", "messages", "bytes", "retries", "deadlocks")
#: (over, under, limit): ``over``'s fig2-deadlock burst may cost at most
#: ``limit`` times the Python calls of ``under``'s.  x4 / x1 is the ratio
#: recorded at 1.24.0 plus 3 %.
BURST_POINTS = (
    ("fig2-deadlock x2", "fig2-deadlock x1", 2.45),
    ("fig2-deadlock x4", "fig2-deadlock x1", 7.21),
)


def envelope_path(gate: str) -> str:
    return os.path.join(REPO_ROOT, "benchmarks", "baselines", ENVELOPES[gate])


def load_envelope(gate: str) -> dict:
    with open(envelope_path(gate), "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_envelope(gate: str, envelope: dict) -> None:
    with open(envelope_path(gate), "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline updated: {envelope_path(gate)}")


def _measure(experiment_id: str, **options):
    """``(spec, run record)`` for each run of one experiment."""
    from repro.bench import build_plan
    from repro.bench.experiments import BUILDERS

    for spec in build_plan(experiment_id, **options).specs:
        yield spec, BUILDERS[spec.builder](spec)


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
    baseline = load_envelope("messages")
    point = baseline["point"]
    counts = measure_messages(point["scenario"], point["seed"],
                              point["num_nodes"], point["scale"])

    if update:
        baseline["counts"] = counts
        save_envelope("messages", baseline)
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
    baseline = load_envelope("locality")
    point = baseline["point"]
    counts, reduction = measure_locality(point["scenario"], point["seed"],
                                         point["scale"])

    if update:
        baseline["counts"] = counts
        baseline["reduction"] = reduction
        save_envelope("locality", baseline)
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


# -- perf ----------------------------------------------------------------


def interpreter_mismatch(envelope: dict, python: str):
    """The failure line when ``python`` is not the recorded interpreter."""
    if python == envelope["python"]:
        return None
    return (f"perf: envelope recorded on Python {envelope['python']}, "
            f"this is Python {python}; py_calls counts the interpreter's "
            f"own frames, so nothing was compared (run the gate on "
            f"{envelope['python']})")


def perf_reading(result: dict) -> dict:
    """What the envelope records of one ``run.py --out`` result."""
    end_to_end = result["end_to_end"]
    names = SIMULATED if result["clock"] == "virtual" else COUNTED
    exact = {name: end_to_end[name] for name in names}
    counters = result["layers"]["counters"]
    exact.update({f"counters.{name}": counters[name] for name in COUNTERS})
    return {"py_calls": end_to_end["py_calls"], "exact": exact,
            "wall_s": round(end_to_end["wall_s"], 3)}


def measure_perf_point(envelope: dict, name: str, point: dict) -> dict:
    """One driver-form run of ``benchmarks/perf/run.py``; its reading."""
    out = os.path.join(REPO_ROOT, "perf-out", name.replace(" ", "-"))
    command = [
        sys.executable, os.path.join(REPO_ROOT, "benchmarks", "perf", "run.py"),
        "--workload", point["workload"], "--seed", str(envelope["seed"]),
        "--seconds", str(envelope["seconds"]), "--trace", "0",
        "--size-factor", str(point["size_factor"]), "--out", out,
    ]
    subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
    with open(os.path.join(out, f"{point['workload']}.json"),
              "r", encoding="utf-8") as handle:
        return perf_reading(json.load(handle))


def compare_perf(envelope: dict, measured: dict, python: str) -> list:
    """Failure lines of ``measured`` (point name -> reading) against the
    envelope, one per point and metric; measures nothing."""
    mismatch = interpreter_mismatch(envelope, python)
    if mismatch:
        return [mismatch]
    failures = []
    tolerance = envelope["py_calls_tolerance"]
    for name, point in sorted(envelope["points"].items()):
        got = measured.get(name)
        if got is None:
            failures.append(f"perf {name}: not measured")
            continue
        for metric, expected in sorted(point["exact"].items()):
            value = got["exact"].get(metric)
            if value != expected:
                failures.append(
                    f"perf {name}: {metric} {value!r} != committed "
                    f"{expected!r} (the simulated schedule changed)"
                )
        if got["py_calls"] > point["py_calls"] * tolerance:
            failures.append(
                f"perf {name}: py_calls {got['py_calls']:,} > {tolerance} x "
                f"committed {point['py_calls']:,}"
            )
    for over, under, limit in BURST_POINTS:
        if over in measured and under in measured:
            ratio = measured[over]["py_calls"] / measured[under]["py_calls"]
            if ratio > limit:
                failures.append(
                    f"perf {over} / {under}: py_calls ratio {ratio:.3f} > "
                    f"limit {limit}"
                )
    return failures


def check_perf(update: bool) -> list:
    """Run every point of the perf curve and gate it against the envelope."""
    envelope = load_envelope("perf")
    python = "%d.%d" % sys.version_info[:2]
    mismatch = interpreter_mismatch(envelope, python)
    if mismatch and not update:
        return [mismatch]
    measured = {}
    for name, point in sorted(envelope["points"].items()):
        try:
            measured[name] = measure_perf_point(envelope, name, point)
        except subprocess.CalledProcessError as failure:
            return [f"perf {name}: run.py exited with code "
                    f"{failure.returncode}"]
        reading = measured[name]
        print(f"perf {name}: py_calls {reading['py_calls']:,} "
              f"(committed {point.get('py_calls', 0):,}), "
              f"wall_s {reading['wall_s']}")

    if update:
        envelope["python"] = python
        for name, reading in measured.items():
            envelope["points"][name].update(reading)
        save_envelope("perf", envelope)
        return []

    failures = compare_perf(envelope, measured, python)
    if not failures:
        print(f"ok: perf, {len(measured)} points: every simulated metric "
              f"exact, py_calls within {envelope['py_calls_tolerance']}x, "
              f"burst ratios within their limits")
    return failures


# -- commutativity ---------------------------------------------------------
#
# What the semantic lock modes buy on the example applications' hot
# objects.  bank: one hot ``Account`` absorbing concurrent ``deposit``
# calls from every node; ``deposit`` is a pure blind increment, so with
# ``semantic_locks=True`` every pair commutes and the deposits pipeline
# instead of serializing behind one write lock.  order: one hot
# ``Warehouse`` taking concurrent ``new_order`` invocations that nest
# ``Item.allocate`` / ``Customer.charge``; the warehouse's own footprint
# is two blind increments, so orders only serialize on genuinely shared
# items and customers.  Both runs assert the exact final state (the
# increment ledger must merge, not race) and that the relaxed schedule
# stays serializable.


def _semantic_cluster(semantic: bool, seed: int):
    from repro import Cluster, ClusterConfig

    return Cluster(ClusterConfig(
        num_nodes=4, protocol="lotec", seed=seed,
        semantic_locks=semantic,
    ))


def run_bank(semantic: bool, deposits: int = 96, seed: int = 7) -> dict:
    """A stream of concurrent deposits against one hot account."""
    from bank_branches import Account

    cluster = _semantic_cluster(semantic, seed)
    account = cluster.create(Account)
    total = 0
    for index in range(deposits):
        amount = 10 + index % 17
        total += amount
        cluster.submit(account, "deposit", amount,
                       node=cluster.nodes[index % len(cluster.nodes)],
                       delay=index * 0.0001)
    cluster.run()
    balance = cluster.read_attr(account, "balance")
    if balance != total:
        raise AssertionError(
            f"bank conservation broken: balance {balance} != {total}"
        )
    if cluster.read_attr(account, "deposits") != deposits:
        raise AssertionError("bank deposit count drifted")
    return _payoff(cluster, expected_commits=deposits)


def run_order(semantic: bool, orders: int = 60, seed: int = 9) -> dict:
    """The order example's hot-warehouse stream, modes on or off."""
    from order_processing import Customer, Item, Warehouse

    cluster = _semantic_cluster(semantic, seed)
    warehouse = cluster.create(Warehouse)
    items = [cluster.create(Item) for _ in range(12)]
    customers = [cluster.create(Customer) for _ in range(8)]
    stock_before = sum(cluster.read_attr(item, "stock") for item in items)
    for index in range(orders):
        customer = customers[index % len(customers)]
        lines = tuple(
            (items[(index * 3 + k) % len(items)], 1 + (index + k) % 3,
             10 + k)
            for k in range(1 + index % 3)
        )
        cluster.submit(warehouse, "new_order", customer, lines,
                       node=cluster.nodes[index % len(cluster.nodes)],
                       delay=index * 0.0002)
    cluster.run()
    moved = sum(cluster.read_attr(item, "reserved") for item in items)
    left = sum(cluster.read_attr(item, "stock") for item in items)
    if moved + left != stock_before:
        raise AssertionError(
            f"order conservation broken: {moved} reserved + {left} left "
            f"!= {stock_before} initial"
        )
    return _payoff(cluster)


def _payoff(cluster, expected_commits: int = None) -> dict:
    from repro.runtime.verify import check_serializability

    commits = len(cluster.commit_log)
    if expected_commits is not None and commits != expected_commits:
        raise AssertionError(
            f"expected {expected_commits} commits, got {commits}"
        )
    if not check_serializability(cluster):
        raise AssertionError("relaxed schedule is not serializable")
    makespan = round(cluster.env.now, 6)
    return {
        "commits": commits,
        "makespan_s": makespan,
        "throughput_commits_per_s": round(commits / makespan, 2),
        "lock_waits": cluster.lock_stats.waits,
    }


def measure_commutativity() -> dict:
    results = {}
    for name, runner in (("bank", run_bank), ("order", run_order)):
        off = runner(semantic=False)
        on = runner(semantic=True)
        results[name] = {
            "off": off,
            "on": on,
            "speedup": round(
                on["throughput_commits_per_s"]
                / off["throughput_commits_per_s"], 2
            ),
            "wait_reduction": round(
                1.0 - on["lock_waits"] / off["lock_waits"], 3
            ) if off["lock_waits"] else 0.0,
        }
    return results


def check_commutativity(update: bool) -> list:
    """Re-measure the semantic-lock payoff and gate it exactly."""
    results = measure_commutativity()
    for name, entry in sorted(results.items()):
        print(f"commutativity.{name}: "
              f"off {entry['off']['throughput_commits_per_s']} -> "
              f"on {entry['on']['throughput_commits_per_s']} commits/s "
              f"({entry['speedup']}x, waits "
              f"{entry['off']['lock_waits']} -> "
              f"{entry['on']['lock_waits']})")

    envelope = load_envelope("commutativity")
    if update:
        envelope["workloads"] = results
        save_envelope("commutativity", envelope)
        return []

    failures = []
    floor = envelope["min_bank_speedup"]
    speedup = results["bank"]["speedup"]
    if speedup < floor:
        failures.append(
            f"commutativity.bank: speedup {speedup}x < required {floor}x"
        )
    else:
        print(f"ok: commutativity.bank speedup {speedup}x (floor {floor}x)")
    # Simulated clocks are exact, so the committed numbers must
    # reproduce bit-for-bit — any drift is a behavior change.
    committed = envelope["workloads"]
    for name in sorted(set(committed) | set(results)):
        if committed.get(name) != results.get(name):
            failures.append(
                f"commutativity.{name}: measured {results.get(name)} "
                f"!= committed {committed.get(name)}"
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
    # The gates measure the repo's sources and its example applications.
    sys.path[:0] = [os.path.join(REPO_ROOT, "src"),
                    os.path.join(REPO_ROOT, "examples")]
    checks = {"messages": check_messages, "locality": check_locality,
              "perf": check_perf, "commutativity": check_commutativity}

    failures = []
    for gate in GATES:
        if gate in gates:
            failures += checks[gate](args.update)

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
