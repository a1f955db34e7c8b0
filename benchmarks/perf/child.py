"""Child interpreter of the benchmark: one mode per process.

``run.py`` starts this file in a fresh interpreter (``PYTHONHASHSEED=0``,
``PYTHONPATH=src``) and reads one JSON object from the last line of its
standard output.  Three modes:

* ``probe``   import ``repro``, generate every batch's inputs, build the
  clusters, exit.  The parent times spawn to exit; that is ``setup_s``.
* ``timing``  tracing off, profiler off: one timed repeat of the measured
  phase per batch.
* ``layers``  batch 0 under ``cProfile``; with ``--traced`` also batch 0
  plain and traced in the same process, then the oracles on the trace.

A tripped guard prints one line naming workload and metric on standard
error and exits with code 3, without a result.
"""

from __future__ import annotations

import os
import time

# One CPU for the whole child, not CPU 0 where interrupts land.  The TCP
# workload has two threads that the interpreter lock serialises anyway;
# left on two cores, their lock hand-over made the same run take 2.5, 4.0
# and 7.0 s within a minute (NOISE.md).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

_T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro  # noqa: E402,F401  (timed: the import is most of set-up)

_IMPORT_S = time.perf_counter() - _T0

from repro.check import check_reference_model, run_invariants  # noqa: E402
from repro.runtime.verify import check_serializability  # noqa: E402

import workloads  # noqa: E402

#: Layers: ``src/repro/<pkg>``.  ``builtins`` is C code called from any of
#: them and ``proc`` is everything else (standard library, other repro
#: packages, this file), so the shares sum to one.
PACKAGES = ("sim", "gdo", "txn", "core", "net", "runtime", "memory",
            "objects", "obs", "faults", "workload", "util")

#: (metric stem, file under src/repro, function) of the functions reported
#: one by one.
HOT_FUNCTIONS = (
    ("gdo.find_cycle", "gdo/deadlock.py", "find_cycle"),
    ("gdo.update_entry", "gdo/deadlock.py", "update_entry"),
    ("txn.acquire", "txn/locks.py", "acquire"),
    ("net.record", "net/stats.py", "record"),
    ("net.send", "net/network.py", "send"),
    ("net.send", "net/tcp.py", "send"),
    ("sim.run", "sim/engine.py", "run"),
    ("sim.run", "sim/realtime.py", "run"),
)

#: What a host-clock workload must still repeat exactly.
CLOCK_FREE = ("commits", "submitted", "failed", "bytes", "messages",
              "page_data_bytes", "lock_messages", "transferred_pages",
              "global_acquisitions", "local_acquisitions")


class BenchmarkFailure(Exception):
    """A guard of the benchmark tripped; the message names workload
    and metric."""


def run_batch(spec, seeds, inputs, trace=False, profiler=None, mutate=None,
              keep_clusters=False, transport=None):
    """The measured phase over one batch: every instance on a fresh
    cluster, calibration chunks in between (outside timer and profiler).
    Returns the batch (host seconds scaled to the reference speed, raw
    seconds, the scale, summed counters) and, if asked, the clusters."""
    total = {}
    elapsed = 0.0
    clusters = []
    chunks = []
    for sub, item in zip(seeds, inputs):
        chunks += [workloads.calibration_chunk() for _ in range(2)]
        cluster = workloads.build_cluster(spec, sub, trace=trace,
                                          transport=transport)
        if mutate:
            cluster.lockmgr.test_mutations = frozenset([mutate])
        with cluster:
            if profiler is not None:
                profiler.enable()
            try:
                seconds, counters = workloads.drive(spec, cluster, item)
            finally:
                if profiler is not None:
                    profiler.disable()
        elapsed += seconds
        workloads.add_counters(total, counters)
        if keep_clusters:
            clusters.append(cluster)
    chunks += [workloads.calibration_chunk() for _ in range(2)]
    scale = workloads.speed_scale(chunks)
    if spec.clock == "host":
        total["latencies"] = [value * scale for value in total["latencies"]]
    batch = {"wall_s": elapsed * scale, "raw_s": elapsed,
             "speed_scale": scale, "counters": total}
    return batch, clusters


def check_guards(spec, args, counters):
    """Overload and failure guards on one batch's counters.  They hold
    at full size: a reduced run is mostly its last root's latency."""
    if args.size_factor != 1.0 or args.mutate:
        return
    if "arrival_span_s" in counters and (
        counters["makespan_s"] > 1.05 * counters["arrival_span_s"]
    ):
        raise BenchmarkFailure(
            f"{spec.name}: commits_per_s: makespan "
            f"{counters['makespan_s']:.4f} s exceeds 1.05 x arrival span "
            f"{counters['arrival_span_s']:.4f} s (growing backlog)"
        )
    # At the default seed every root commits; at another seed a root out
    # of retries counts in `failed` and against committed_share.
    if (args.seed == spec.world_seed
            and counters["commits"] != counters["submitted"]):
        raise BenchmarkFailure(
            f"{spec.name}: committed_share "
            f"{counters['commits']}/{counters['submitted']} < 1.0"
        )


def first_difference(spec, left, right):
    """The first counter on which two phases over the same inputs
    disagree, or None."""
    keys = CLOCK_FREE if spec.clock == "host" else sorted(left)
    for key in keys:
        if left[key] != right[key]:
            return key
    return None


def mode_probe(spec, args):
    chunks = [workloads.calibration_chunk()]
    started = time.perf_counter()
    workloads.build_inputs(spec, args.seed, args.batches, args.size_factor)
    generated = time.perf_counter()
    chunks.append(workloads.calibration_chunk())
    building = time.perf_counter()
    for batch in range(args.batches):
        for sub in workloads.instance_seeds(spec, args.seed, batch):
            workloads.build_cluster(spec, sub)
    built = time.perf_counter()
    chunks.append(workloads.calibration_chunk())
    return {"import_s": _IMPORT_S, "generate_s": generated - started,
            "build_s": built - building, "calibration_s": sum(chunks),
            "speed_scale": workloads.speed_scale(chunks)}


def mode_timing(spec, args):
    batches = workloads.build_inputs(spec, args.seed, args.batches,
                                     args.size_factor)
    out = []
    for index, inputs in enumerate(batches):
        seeds = workloads.instance_seeds(spec, args.seed, index)
        batch, _ = run_batch(spec, seeds, inputs)
        check_guards(spec, args, batch["counters"])
        out.append(batch)
    return {
        "batches": out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def fold_profile(profiler):
    """cProfile entries folded by ``src/repro/<pkg>``: self time and
    calls per layer, plus the functions reported one by one."""
    stats = pstats.Stats(profiler)
    self_s = {name: 0.0 for name in PACKAGES + ("builtins", "proc")}
    calls = dict.fromkeys(self_s, 0)
    hot = {stem: {"calls": 0, "cum_s": 0.0} for stem, _, _ in HOT_FUNCTIONS}
    for (filename, _line, function), (_cc, ncalls, tottime, cumtime,
                                      _callers) in stats.stats.items():
        path = filename.replace("\\", "/")
        layer = "builtins" if filename == "~" else "proc"
        if "/src/repro/" in path:
            inside = path.rsplit("/src/repro/", 1)[1]
            package = inside.split("/", 1)[0]
            if package in PACKAGES:
                layer = package
            for stem, module, name in HOT_FUNCTIONS:
                if function == name and inside == module:
                    hot[stem]["calls"] += ncalls
                    hot[stem]["cum_s"] += cumtime
        self_s[layer] += tottime
        calls[layer] += ncalls
    folded = {"py_calls": stats.total_calls - calls["builtins"],
              "total_s": stats.total_tt,
              "self_s": self_s, "calls": calls, "hot": hot}
    return folded, stats


def trace_attribution(clusters):
    """Virtual-time attribution from the traced histograms and spans."""
    sums = {"lock_wait_s": 0.0, "txn_latency_s": 0.0, "gdo_request_s": 0.0,
            "gdo_requests": 0, "gather_s": 0.0, "trace_events": 0}
    for cluster in clusters:
        histograms = cluster.metrics.snapshot()["histograms"]
        for name, key in (("lock.wait_s", "lock_wait_s"),
                          ("txn.latency_s", "txn_latency_s"),
                          ("gdo.request_latency_s", "gdo_request_s")):
            for labelled in histograms.get(name, {}).values():
                sums[key] += labelled["total"]
                if key == "gdo_request_s":
                    sums["gdo_requests"] += labelled["count"]
        for event in cluster.trace_events:
            if event.name.startswith("transfer.gather"):
                sums["gather_s"] += event.dur
        sums["trace_events"] += len(cluster.trace_events)
    return sums


def run_oracles(clusters, with_trace):
    """Serial replay on every cluster and, given a trace, the reference
    model and the five invariant checkers; returns the verdicts that
    are not clean, as text."""
    problems = []
    for index, cluster in enumerate(clusters):
        report = check_serializability(cluster)
        if not report.equivalent:
            problems.append(
                f"instance {index} is not serializable: " + "; ".join(
                    (report.state_mismatches + report.result_mismatches)[:2]
                )
            )
        if with_trace:
            events = cluster.trace_events
            problems.extend(
                f"instance {index}: {violation}"
                for violation in (check_reference_model(events)
                                  + run_invariants(events))
            )
    return problems


def mode_layers(spec, args):
    seeds = workloads.instance_seeds(spec, args.seed, 0)
    started = time.perf_counter()
    inputs, = workloads.build_inputs(spec, args.seed, 1, args.size_factor)
    generate_s = time.perf_counter() - started

    # C functions are profiled only where their share is reported: the
    # count of Python calls is the same either way and costs a quarter
    # less without them.
    profiler = cProfile.Profile(builtins=args.traced)
    batch, clusters = run_batch(
        spec, seeds, inputs, profiler=profiler, mutate=args.mutate,
        keep_clusters=not args.traced,
    )
    profiled = batch["counters"]
    check_guards(spec, args, profiled)
    folded, stats = fold_profile(profiler)
    # Cumulative times are wall clock, so their base is the wall clock of
    # the profiled phase; self times have cProfile's own total as base.
    folded["phase_s"] = batch["raw_s"]
    if args.out:
        stats.dump_stats(str(Path(args.out) / f"{spec.name}.pstats"))
    result = {"profile": folded, "counters": profiled}
    if not args.traced:
        # No trace to judge: serial replay is the output check.
        problems = run_oracles(clusters, with_trace=False)
        if problems:
            raise BenchmarkFailure(f"{spec.name}: " + " | ".join(problems[:3]))
        return result

    gc_log = {"collections": [0, 0, 0], "seconds": 0.0, "started": 0.0}

    def on_gc(phase, info):
        if phase == "start":
            gc_log["started"] = time.perf_counter()
        else:
            gc_log["collections"][info["generation"]] += 1
            gc_log["seconds"] += time.perf_counter() - gc_log["started"]

    gc.callbacks.append(on_gc)
    try:
        plain_batch, _ = run_batch(spec, seeds, inputs)
    finally:
        gc.callbacks.remove(on_gc)
    build_started = time.perf_counter()
    for sub in seeds:
        workloads.build_cluster(spec, sub)
    build_s = time.perf_counter() - build_started
    traced_batch, clusters = run_batch(
        spec, seeds, inputs, trace=True, mutate=args.mutate,
        keep_clusters=True,
    )
    plain, traced = plain_batch["counters"], traced_batch["counters"]
    if not args.mutate:
        # Neither the profiler nor the tracer may change the schedule.
        for name, other in (("profiled", profiled), ("traced", traced)):
            differs = first_difference(spec, plain, other)
            if differs:
                raise BenchmarkFailure(
                    f"{spec.name}: {differs} differs between the plain and "
                    f"the {name} phase ({plain[differs]!r} vs "
                    f"{other[differs]!r})"
                )
    check_started = time.perf_counter()
    problems = run_oracles(clusters, with_trace=True)
    check_s = time.perf_counter() - check_started
    if problems:
        raise BenchmarkFailure(
            f"{spec.name}: the traced run is not clean: "
            + " | ".join(problems[:3])
        )
    if spec.transport == "tcp":
        replay = run_batch(spec, seeds, inputs,
                           transport="sim")[0]["counters"]
        for key in ("messages", "bytes", "commits"):
            if replay[key] != plain[key]:
                raise BenchmarkFailure(
                    f"{spec.name}: {key} over tcp ({plain[key]}) differ from "
                    f"the sim replay of the same schedule ({replay[key]})"
                )
    result.update({
        "counters": plain, "plain_s": plain_batch["raw_s"],
        "traced_s": traced_batch["raw_s"],
        "check_s": check_s, "import_s": _IMPORT_S, "generate_s": generate_s,
        "build_s": build_s, "gc_s": gc_log["seconds"],
        "gc_collections": gc_log["collections"],
        "attribution": trace_attribution(clusters),
    })
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("probe", "timing", "layers"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size-factor", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--mutate", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    if args.seed is None:
        args.seed = spec.world_seed
    args.batches = workloads.batch_count(spec, args.seconds)
    mode = {"probe": mode_probe, "timing": mode_timing,
            "layers": mode_layers}[args.mode]
    try:
        result = mode(spec, args)
    except BenchmarkFailure as failure:
        print(f"perf-bench: {failure}", file=sys.stderr)
        return 3
    result.update(clock=spec.clock, loop=spec.loop, seed=args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
