"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiment <id>`` — regenerate one paper artifact (``fig2`` …
  ``fig8``, ``tab-speedup``, ``msg-count``, or an ablation id from
  DESIGN.md §3) and print it as a table, ASCII chart, or JSON
  (``--format table|chart|json``); ``--out`` writes the versioned JSON
  result for downstream plotting, ``--jobs N`` fans the per-
  configuration cluster runs out over a process pool, and completed
  runs are memoized under ``.repro-cache/`` (``--no-cache`` to skip).
* ``bench [ids…]`` — run many experiments at once (default: all of
  them) through the same pool and cache, writing one
  ``BENCH_<id>.json`` per experiment.
* ``compare`` — run one workload scenario under all four protocols and
  print the side-by-side summary (same ``--format``/``--out`` surface
  as ``experiment``).
* ``run <scenario>`` — run one scenario once on a chosen wire backend
  (``--transport sim`` or ``--transport tcp``; ``--processes`` gives
  each node a real OS relay process) and print the run summary; the
  standard artifact flags apply, so ``--trace-dir`` + ``--check`` over
  TCP is the end-to-end real-socket smoke test.
* ``trace`` — run one scenario with the :mod:`repro.obs` tracer on and
  write the trace artifacts (JSONL event log + Chrome ``trace_event``
  JSON loadable in Perfetto / ``chrome://tracing``) plus a metrics
  summary.
* ``chaos <preset>`` — run one scenario under a named fault preset
  (message loss, duplication, delay jitter, node crash/recovery with
  durable-record rejoin and GDO home failover, partitions, slow nodes,
  lock timeouts — see :data:`repro.faults.FAULT_PRESETS`), print the
  fault and retry accounting, and gate the exit code on the
  serializability oracle *and* every trace invariant checker
  (including heal-aware liveness); ``--transport tcp`` runs the same
  preset over real localhost sockets.
* ``fuzz`` — schedule-exploration fuzzing (:mod:`repro.check`): run N
  seeds x protocols x fault presets with perturbed same-instant event
  ordering, judge every run with the serializability oracles, the
  nested-O2PL reference model, and the trace invariant checkers, and
  on failure print a minimized one-line repro command (``--trace-dir``
  also dumps the failing trace as JSONL + a text report);
  ``--migration`` runs every task with adaptive GDO home migration
  enabled, and ``--recovery`` adds the crash/partition/failover
  presets to the preset axis.
* ``load <scenario>`` — run one open-loop load scenario
  (:mod:`repro.load`: Zipf popularity, per-client locality, Poisson or
  bursty arrivals) on a one-node-per-client cluster with adaptive GDO
  home migration (``--no-migration`` for the static partition), print
  the per-shard p50/p99/p999 request-latency SLO table, and optionally
  gate on the serializability oracle (``--check``) and write trace
  artifacts (``--trace-dir``).  ``--out`` writes the same
  schema-versioned JSON envelope the experiment drivers emit.
* ``list`` — show available experiment ids and scenarios.
* ``version`` (or ``--version``) — print the package version.

Artifact flags are uniform across the scenario-running subcommands
(``run``/``trace``/``chaos``/``fuzz``/``load``): ``--out PATH`` writes
the run's JSON envelope, ``--trace-dir DIR`` writes trace artifacts
(JSONL event log with a clock header + Chrome trace), and ``--check``
gates the exit code on the serializability oracle where the command
does not already gate by design.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from repro.bench import (
    DEFAULT_CACHE_DIR,
    EXPERIMENTS,
    ExperimentResult,
    ExperimentRunner,
    ResultCache,
    format_bench_summary,
    format_table,
)
from repro.check import (
    ALL_PROTOCOLS,
    DEFAULT_POLICIES,
    run_campaign,
    run_invariants,
)
from repro.faults import FAULT_PRESETS
from repro.gdo.migration import MigrationConfig
from repro.load import LOAD_SCENARIOS, build_load, run_load, shard_slo_series
from repro.obs import render_summary, write_chrome_trace, write_jsonl
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.verify import check_serializability
from repro.util.errors import ReproError
from repro.workload.generator import generate_workload
from repro.workload.params import SCENARIOS
from repro.workload.runner import run_workload

OUTPUT_FORMATS = ("table", "chart", "json")


def _package_version() -> str:
    from repro import __version__

    return __version__


def _add_run_arguments(parser: argparse.ArgumentParser,
                       default_scale: float = 1.0,
                       experiments: bool = False) -> None:
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=default_scale,
                        help="workload size factor (1.0 = full)")
    if experiments:
        parser.add_argument(
            "--nodes", type=int, default=None,
            help="cluster size (default: the experiment's own — 4, or "
                 "one node per client for claims-locality)",
        )
    else:
        parser.add_argument("--nodes", type=int, default=4)


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=OUTPUT_FORMATS, default=None,
        help="stdout rendering: table (default), chart, or json",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="also write the result as versioned JSON",
    )


def _add_artifact_arguments(parser: argparse.ArgumentParser, *,
                            out: bool = True, trace_dir: bool = True,
                            check: bool = True,
                            trace_dir_default: Optional[str] = None) -> None:
    """The uniform artifact surface of every scenario-running command:
    ``--out`` (JSON envelope), ``--trace-dir`` (JSONL + Chrome trace),
    ``--check`` (serializability gate)."""
    group = parser.add_argument_group(
        "artifacts", "uniform output flags shared by run/trace/chaos/"
                     "fuzz/load"
    )
    if out:
        group.add_argument(
            "--out", metavar="PATH",
            help="write the run's JSON envelope to this file",
        )
    if trace_dir:
        group.add_argument(
            "--trace-dir", metavar="DIR", default=trace_dir_default,
            help="write trace artifacts (JSONL event log + Chrome "
                 "trace) to this directory",
        )
    if check:
        group.add_argument(
            "--check", action="store_true",
            help="gate on the serializability oracle: exit nonzero if "
                 "the run is not equivalent to a serial replay",
        )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the per-configuration runs "
             "(default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always execute; do not read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LOTEC reproduction experiment harness",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("id", choices=sorted(EXPERIMENTS))
    _add_run_arguments(exp, experiments=True)
    _add_output_arguments(exp)
    _add_runner_arguments(exp)

    bench = sub.add_parser(
        "bench",
        help="run many experiments at once; write one BENCH_<id>.json each",
    )
    bench.add_argument(
        "ids", nargs="*", metavar="id",
        help="experiment ids to run (default: every experiment)",
    )
    _add_run_arguments(bench, experiments=True)
    _add_runner_arguments(bench)
    bench.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for the BENCH_<id>.json files (default: .)",
    )

    cmp_parser = sub.add_parser(
        "compare", help="run a scenario under all protocols"
    )
    cmp_parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                            default="medium-high")
    _add_run_arguments(cmp_parser, default_scale=0.5)
    _add_output_arguments(cmp_parser)

    run = sub.add_parser(
        "run",
        help="run one scenario on a chosen wire backend (sim or real "
             "localhost TCP)",
    )
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_run_arguments(run, default_scale=0.25)
    run.add_argument("--protocol", default="lotec",
                     choices=("cotec", "otec", "lotec", "rc"))
    run.add_argument("--transport", choices=("sim", "tcp"), default="sim",
                     help="wire backend: virtual-clock simulation "
                          "(default) or real localhost TCP sockets")
    run.add_argument("--processes", action="store_true",
                     help="with --transport tcp, give each node a real "
                          "OS relay process instead of a connection mesh "
                          "inside this process")
    _add_artifact_arguments(run)

    trace = sub.add_parser(
        "trace", help="run a scenario with tracing on; write artifacts"
    )
    trace.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_run_arguments(trace, default_scale=0.5)
    trace.add_argument("--protocol", default="lotec",
                       choices=("cotec", "otec", "lotec", "rc"))
    _add_artifact_arguments(trace, trace_dir_default="trace-out")

    chaos = sub.add_parser(
        "chaos",
        help="run a scenario under a fault preset; gate on serializability",
    )
    chaos.add_argument("preset", choices=sorted(FAULT_PRESETS))
    chaos.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default="medium-high")
    _add_run_arguments(chaos, default_scale=0.25)
    chaos.add_argument("--protocol", default="lotec",
                       choices=("cotec", "otec", "lotec", "rc"))
    chaos.add_argument("--transport", choices=("sim", "tcp"),
                       default="sim",
                       help="wire backend: virtual-clock simulation "
                            "(default) or real localhost TCP sockets")
    chaos.add_argument("--processes", action="store_true",
                       help="with --transport tcp, give each node a real "
                            "OS relay process instead of a connection mesh "
                            "inside this process")
    # chaos always gates on the oracle and the invariant checkers
    # (that is its point), so the shared group contributes --out and
    # --trace-dir only.
    _add_artifact_arguments(chaos, check=False)

    fuzz = sub.add_parser(
        "fuzz",
        help="schedule-exploration fuzzing: seeds x protocols x "
             "presets, gated on every oracle and checker",
    )
    fuzz.add_argument("--seeds", type=int, default=20, metavar="N",
                      help="workload seeds per combination (default: 20)")
    fuzz.add_argument("--seed-base", type=int, default=0, metavar="S",
                      help="first seed (default: 0)")
    fuzz.add_argument(
        "--protocols", default="all", metavar="CSV",
        help="comma-separated protocols, or 'all' "
             f"(default: {','.join(ALL_PROTOCOLS)})",
    )
    fuzz.add_argument(
        "--presets", default="none", metavar="CSV",
        help="comma-separated fault presets, 'none' for fault-free, or "
             "'all' for none plus every preset (default: none)",
    )
    fuzz.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES), metavar="CSV",
        help="comma-separated tie-break policies the tasks cycle "
             f"through (default: {','.join(DEFAULT_POLICIES)})",
    )
    fuzz.add_argument("--scenario", choices=sorted(SCENARIOS),
                      default="medium-high")
    fuzz.add_argument("--scale", type=float, default=0.25,
                      help="workload size factor (1.0 = full)")
    fuzz.add_argument("--nodes", type=int, default=4)
    # Every fuzz task already runs all oracles, so no --check; its
    # --trace-dir collects *failing* traces.
    _add_artifact_arguments(fuzz, check=False)
    fuzz.add_argument("--stop-on-failure", action="store_true",
                      help="stop the campaign at the first failing task")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="report failing tasks as-is, without shrinking")
    fuzz.add_argument(
        "--mutate", default="", metavar="CSV",
        help="(testing the checkers) comma-separated "
             "repro.check.mutations names to install, e.g. "
             "skip-precommit-retention; an unknown name is an error",
    )
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress the per-task progress lines")
    fuzz.add_argument("--migration", action="store_true",
                      help="enable adaptive GDO home migration in "
                           "every task")
    fuzz.add_argument("--semantic", action="store_true",
                      help="enable commutativity-based semantic lock "
                           "modes in every task")
    fuzz.add_argument("--recovery", action="store_true",
                      help="add the crash-recovery presets "
                           "(crash-failover, partition, crash-partition, "
                           "slow-node) to the preset axis")

    load = sub.add_parser(
        "load",
        help="run an open-loop load scenario; print per-shard SLO tables",
    )
    load.add_argument("scenario", choices=sorted(LOAD_SCENARIOS))
    load.add_argument("--seed", type=int, default=7)
    load.add_argument("--scale", type=float, default=1.0,
                      help="root-transaction count factor (1.0 = full)")
    load.add_argument("--no-migration", action="store_true",
                      help="static round-robin homes (no adaptive "
                           "migration)")
    load.add_argument(
        "--format", choices=OUTPUT_FORMATS, default=None,
        help="stdout rendering: table (default), chart, or json",
    )
    _add_artifact_arguments(load)

    sub.add_parser("list", help="list experiment ids and scenarios")
    sub.add_parser("version", help="print the package version")
    return parser


def _render(result: ExperimentResult, output_format: str) -> str:
    if output_format == "chart":
        return result.render_chart()
    if output_format == "json":
        return json.dumps(result.to_json(), indent=2)
    return result.render()


def _write_result(result: ExperimentResult, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_json(), handle, indent=2)
        handle.write("\n")


def _make_runner(args) -> ExperimentRunner:
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    return ExperimentRunner(jobs=args.jobs, cache=cache)


def _write_json(payload, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _write_trace_artifacts(cluster: Cluster, directory: str,
                           base_name: str) -> Optional[int]:
    """Write the uniform trace artifact pair (JSONL with a clock-domain
    header, plus a Chrome trace); returns an exit code on error."""
    try:
        os.makedirs(directory, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"error: --trace-dir {directory!r} exists and is not a "
              f"directory", file=sys.stderr)
        return 2
    base = os.path.join(directory, base_name)
    jsonl_path = f"{base}.jsonl"
    chrome_path = f"{base}.chrome.json"
    write_jsonl(cluster.trace_events, jsonl_path,
                clock=cluster.tracer.clock_kind)
    write_chrome_trace(cluster.trace_events, chrome_path)
    print(f"\nwrote {jsonl_path}")
    print(f"wrote {chrome_path} (load in Perfetto / chrome://tracing)")
    return None


def _check_gate(cluster: Cluster) -> int:
    """Run the serializability oracle and report; 0 = clean."""
    report = check_serializability(cluster)
    if report.equivalent:
        print(f"\nserializability: OK ({report.committed_roots} "
              f"committed roots replay clean)")
        return 0
    print("\nserializability: FAILED", file=sys.stderr)
    for line in report.state_mismatches + report.result_mismatches:
        print(f"  {line}", file=sys.stderr)
    return 1


def _cmd_experiment(args) -> int:
    output_format = args.format or "table"
    runner = _make_runner(args)
    result = runner.run(args.id, seed=args.seed, scale=args.scale,
                        num_nodes=args.nodes)
    print(_render(result, output_format))
    if args.out:
        _write_result(result, args.out)
        print(f"\nwrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [eid for eid in ids if eid not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment ids {unknown}; "
              f"choose from {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        print(f"error: --out-dir {args.out_dir!r} exists and is not a "
              f"directory", file=sys.stderr)
        return 2
    runner = _make_runner(args)
    results = runner.run_many(ids, seed=args.seed, scale=args.scale,
                              num_nodes=args.nodes)
    entries = []
    cache = runner.cache
    for eid, result in results.items():
        path = os.path.join(args.out_dir, f"BENCH_{eid}.json")
        _write_result(result, path)
        entries.append({
            "experiment": eid,
            "runs": runner.last_plan_sizes.get(eid, 0),
            "cache_hits": runner.last_plan_hits.get(eid, 0),
            "path": path,
        })
    print(format_bench_summary(entries))
    stats = runner.last_stats
    cache_note = (
        "cache disabled" if cache is None
        else f"{stats.cache_hits} from cache ({cache.root})"
    )
    print(f"\n{stats.runs} cluster runs: {stats.executed} executed "
          f"(jobs={args.jobs}), {cache_note}")
    return 0


def _cmd_compare(args) -> int:
    output_format = args.format or "table"
    params = SCENARIOS[args.scenario].scaled(args.scale)
    workload = generate_workload(params, seed=args.seed)
    protocols = ("cotec", "otec", "lotec", "rc")
    metrics = ("committed", "failed", "data_bytes", "messages",
               "mean_latency_us", "deadlocks")
    series: Dict[str, Dict[str, object]] = {
        metric: {} for metric in metrics
    }
    for protocol in protocols:
        cluster = Cluster(ClusterConfig(
            num_nodes=args.nodes, protocol=protocol, seed=args.seed,
            audit_accesses=False,
        ))
        run = run_workload(cluster, workload)
        summary = run.summary()
        stats = cluster.network_stats
        series["committed"][protocol] = summary["committed"]
        series["failed"][protocol] = summary["failed"]
        series["data_bytes"][protocol] = stats.consistency_bytes()
        series["messages"][protocol] = stats.total_messages
        series["mean_latency_us"][protocol] = round(
            cluster.txn_stats.mean_latency * 1e6
        )
        series["deadlocks"][protocol] = summary["deadlocks"]
    result = ExperimentResult(
        experiment=f"protocol comparison — {args.scenario}",
        x_label="protocol",
        series=series,
        meta={"scenario": args.scenario, "seed": args.seed,
              "scale": args.scale, "nodes": args.nodes},
    )
    if output_format == "table":
        # The classic side-by-side layout: one row per protocol.
        print(f"scenario {args.scenario} (seed {args.seed}, "
              f"scale {args.scale}, {args.nodes} nodes)\n")
        print(format_table(
            ["protocol", "committed", "failed", "data bytes", "messages",
             "mean latency (us)", "deadlocks"],
            [
                [protocol] + [series[metric][protocol] for metric in metrics]
                for protocol in protocols
            ],
        ))
    else:
        print(_render(result, output_format))
    if args.out:
        _write_result(result, args.out)
        print(f"\nwrote {args.out}")
    return 0


def _lock_line(cluster) -> str:
    """Lock waits and what the deadlock detector did about them."""
    locks = cluster.lock_stats
    return (f"locks: {locks.waits} waits, {locks.deadlocks} deadlocks, "
            f"{locks.cycle_searches} cycle searches, "
            f"{locks.edge_refreshes} edge refreshes")


def _cmd_run(args) -> int:
    params = SCENARIOS[args.scenario].scaled(args.scale)
    workload = generate_workload(params, seed=args.seed)
    with Cluster(ClusterConfig(
        num_nodes=args.nodes, protocol=args.protocol, seed=args.seed,
        audit_accesses=False, trace=bool(args.trace_dir),
        transport=args.transport, transport_processes=args.processes,
    )) as cluster:
        run = run_workload(cluster, workload)
        backend = args.transport + (
            " (one OS process per node)" if args.processes else ""
        )
        print(f"scenario {args.scenario} under {args.protocol} over "
              f"{backend} (seed {args.seed}, scale {args.scale}, "
              f"{args.nodes} nodes): {run.committed} committed, "
              f"{run.failed} failed")
        stats = cluster.network_stats
        print(f"network: {stats.total_messages} messages, "
              f"{stats.total_bytes} bytes"
              + (f", {len(cluster.network.delivered_log)} frames crossed "
                 f"real sockets" if args.transport == "tcp" else ""))
        print(_lock_line(cluster))
        if args.out:
            _write_json(run.summary(), args.out)
            print(f"\nwrote {args.out}")
        if args.trace_dir:
            error = _write_trace_artifacts(
                cluster, args.trace_dir,
                f"{args.scenario}-{args.protocol}-{args.transport}",
            )
            if error is not None:
                return error
        if args.check:
            return _check_gate(cluster)
        return 0


def _cmd_trace(args) -> int:
    params = SCENARIOS[args.scenario].scaled(args.scale)
    workload = generate_workload(params, seed=args.seed)
    cluster = Cluster(ClusterConfig(
        num_nodes=args.nodes, protocol=args.protocol, seed=args.seed,
        audit_accesses=False, trace=True,
    ))
    run = run_workload(cluster, workload)
    print(f"scenario {args.scenario} under {args.protocol} "
          f"(seed {args.seed}, scale {args.scale}, {args.nodes} nodes): "
          f"{run.committed} committed, {run.failed} failed\n")
    print(render_summary(cluster.tracer))
    if args.out:
        _write_json(run.summary(), args.out)
        print(f"\nwrote {args.out}")
    error = _write_trace_artifacts(
        cluster, args.trace_dir, f"{args.scenario}-{args.protocol}"
    )
    if error is not None:
        return error
    if args.check:
        return _check_gate(cluster)
    return 0


def _cmd_chaos(args) -> int:
    plan = FAULT_PRESETS[args.preset]
    params = SCENARIOS[args.scenario].scaled(args.scale)
    workload = generate_workload(params, seed=args.seed)
    with Cluster(ClusterConfig(
        num_nodes=args.nodes, protocol=args.protocol, seed=args.seed,
        audit_accesses=False, trace=True, faults=plan,
        transport=args.transport, transport_processes=args.processes,
    )) as cluster:
        run = run_workload(cluster, workload)
        report = check_serializability(cluster)
        violations = run_invariants(cluster.trace_events)
        stats = cluster.fault_stats
        migration_stats = cluster.migration_stats
        print(f"preset {args.preset} on scenario {args.scenario} under "
              f"{args.protocol} over {args.transport} (seed {args.seed}, "
              f"scale {args.scale}, {args.nodes} nodes): "
              f"{run.committed} committed, {run.failed} failed\n")
        print(format_table(
            ["fault counter", "value"],
            [
                ["messages dropped", stats.messages_dropped],
                ["dropped at a partition", stats.partition_dropped],
                ["retransmissions", stats.retransmissions],
                ["messages duplicated", stats.messages_duplicated],
                ["delay injected (us)", round(stats.delay_injected_s * 1e6)],
                ["slow-node delay (us)", round(stats.slow_delay_s * 1e6)],
                ["lock timeouts", stats.lock_timeouts],
                ["crashes / recoveries",
                 f"{stats.crashes} / {stats.recoveries}"],
                ["crash-aborted families", stats.crash_aborted_families],
                ["GDO home failovers", stats.failovers],
                ["failover reroutes", stats.failover_reroutes],
                ["rejoin replayed / reclaimed / discarded",
                 f"{stats.rejoin_replayed_records} / "
                 f"{stats.rejoin_reclaimed_homes} / "
                 f"{stats.rejoin_discarded_holders}"],
                ["forwarded requests",
                 migration_stats.forwarded_requests
                 if migration_stats is not None else 0],
                ["deadlock retries", cluster.txn_stats.retries],
            ],
        ))
        if args.out:
            _write_json(run.summary(), args.out)
            print(f"\nwrote {args.out}")
        if args.trace_dir:
            error = _write_trace_artifacts(
                cluster, args.trace_dir,
                f"{args.scenario}-{args.protocol}-{args.preset}",
            )
            if error is not None:
                return error
        failed = False
        if report.equivalent:
            print(f"\nserializability: OK "
                  f"({report.committed_roots} committed roots replay clean)")
        else:
            failed = True
            print("\nserializability: FAILED", file=sys.stderr)
            for line in report.state_mismatches + report.result_mismatches:
                print(f"  {line}", file=sys.stderr)
        if violations:
            failed = True
            print(f"invariants: {len(violations)} violation(s)",
                  file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
        else:
            print("invariants: OK (single-writer, retained-descendants, "
                  "page-version, commit-order, liveness)")
        return 1 if failed else 0


def _split_csv(spec: str) -> list:
    return [item.strip() for item in spec.split(",") if item.strip()]


def _cmd_fuzz(args) -> int:
    protocols = (list(ALL_PROTOCOLS) if args.protocols == "all"
                 else _split_csv(args.protocols))
    for protocol in protocols:
        if protocol not in ALL_PROTOCOLS:
            print(f"error: unknown protocol {protocol!r}; known: "
                  f"{', '.join(ALL_PROTOCOLS)}", file=sys.stderr)
            return 2
    if args.presets == "all":
        presets = [None] + sorted(FAULT_PRESETS)
    else:
        presets = [None if name == "none" else name
                   for name in _split_csv(args.presets)]
        for preset in presets:
            if preset is not None and preset not in FAULT_PRESETS:
                print(f"error: unknown fault preset {preset!r}; known: "
                      f"{', '.join(sorted(FAULT_PRESETS))}",
                      file=sys.stderr)
                return 2
    if args.recovery:
        recovery_presets = ["crash-failover", "partition",
                            "crash-partition", "slow-node"]
        presets.extend(name for name in recovery_presets
                       if name not in presets)
    policies = _split_csv(args.policies)
    if not (protocols and presets and policies):
        print("error: --protocols, --presets, and --policies must each "
              "name at least one entry", file=sys.stderr)
        return 2

    def progress(report) -> None:
        verdict = "ok" if report.ok else "FAIL"
        print(f"  [{verdict}] {report.task.describe()}: "
              f"{report.committed} committed, {report.failed} failed")

    total = args.seeds * len(protocols) * len(presets)
    print(f"fuzz: {args.seeds} seeds x {len(protocols)} protocols x "
          f"{len(presets)} presets = {total} tasks "
          f"(scenario {args.scenario}, scale {args.scale}, "
          f"{args.nodes} nodes)")
    result = run_campaign(
        seeds=args.seeds, seed_base=args.seed_base,
        protocols=protocols, presets=presets, policies=policies,
        scenario=args.scenario, scale=args.scale, nodes=args.nodes,
        migration=args.migration, semantic=args.semantic,
        mutate=tuple(_split_csv(args.mutate)), out_dir=args.trace_dir,
        minimize_failures=not args.no_minimize,
        stop_on_failure=args.stop_on_failure,
        progress=None if args.quiet else progress,
    )
    print(f"\n{result.tasks_run} tasks, {result.committed} transactions "
          f"committed, {result.failed_txns} aborted")
    if args.out:
        _write_json({
            "tasks_run": result.tasks_run,
            "committed": result.committed,
            "failed_txns": result.failed_txns,
            "ok": result.ok,
            "failures": [failure.report.task.describe()
                         for failure in result.failures],
        }, args.out)
        print(f"wrote {args.out}")
    if result.ok:
        print("fuzz: all tasks clean (oracles, reference model, "
              "invariants)")
        return 0
    print(f"\nfuzz: {len(result.failures)} failing task(s)",
          file=sys.stderr)
    for failure in result.failures:
        print(f"\n  task: {failure.report.task.describe()}",
              file=sys.stderr)
        for line in failure.report.failure_summary():
            print(f"    {line}", file=sys.stderr)
        print(f"  repro: {failure.command}", file=sys.stderr)
        for path in failure.artifacts:
            print(f"  wrote {path}", file=sys.stderr)
    return 1


def _cmd_load(args) -> int:
    output_format = args.format or "table"
    load = build_load(args.scenario, seed=args.seed, scale=args.scale)
    scenario = load.scenario
    migration = None if args.no_migration else MigrationConfig()
    cluster = Cluster(ClusterConfig(
        num_nodes=scenario.clients, protocol="lotec", seed=args.seed,
        audit_accesses=False, trace=True, migration=migration,
    ))
    run = run_load(cluster, load)
    stats = cluster.network_stats
    policy = "static" if migration is None else "adaptive"
    print(f"load {args.scenario} (seed {args.seed}, scale {args.scale}, "
          f"{scenario.clients} clients, {policy} homes): "
          f"{run.committed} committed, {run.failed} failed, "
          f"{stats.directory_messages()} remote directory messages")
    if cluster.migration is not None:
        snapshot = cluster.migration.stats.snapshot()
        print(f"migrations: {snapshot['migrations']}, forwarded "
              f"requests: {snapshot['forwarded_requests']} "
              f"(considered {snapshot['considered']})")
    print(_lock_line(cluster))
    result = ExperimentResult(
        experiment=f"per-shard SLO — {args.scenario} ({policy})",
        x_label="shard",
        series=shard_slo_series(cluster.metrics.snapshot()),
        meta={
            "scenario": args.scenario, "seed": args.seed,
            "scale": args.scale, "clients": scenario.clients,
            "policy": policy,
            "committed": run.committed, "failed": run.failed,
            "remote_directory_messages": stats.directory_messages(),
            "migration": (
                cluster.migration.stats.snapshot()
                if cluster.migration is not None else None
            ),
        },
    )
    print()
    print(_render(result, output_format))
    if args.out:
        _write_result(result, args.out)
        print(f"\nwrote {args.out}")
    if args.trace_dir:
        error = _write_trace_artifacts(
            cluster, args.trace_dir, f"{args.scenario}-{policy}"
        )
        if error is not None:
            return error
    if args.check:
        return _check_gate(cluster)
    return 0


def _cmd_version(_args) -> int:
    print(_package_version())
    return 0


def _cmd_list(_args) -> int:
    print("experiments:")
    for key in sorted(EXPERIMENTS):
        print(f"  {key}")
    print("\nscenarios (for `compare`):")
    for key in sorted(SCENARIOS):
        print(f"  {key}")
    print("\nload scenarios (for `load`):")
    for key in sorted(LOAD_SCENARIOS):
        print(f"  {key}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "fuzz": _cmd_fuzz,
        "load": _cmd_load,
        "list": _cmd_list,
        "version": _cmd_version,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # Expected operational failures (bad configuration, protocol
        # invariant violations) are user-facing diagnostics, not bugs:
        # one line on stderr, nonzero exit, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
