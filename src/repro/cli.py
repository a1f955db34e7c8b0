"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiment <id>`` — regenerate one experiment of
  :data:`repro.bench.EXPERIMENTS` (``fig2`` … ``fig8``, ``tab-speedup``,
  ``msg-count``, ``compare``, or an ablation id from DESIGN.md §3) and
  print it as a table, ASCII chart, or JSON (``--format``); ``--out``
  writes the versioned JSON result.  Every run executes in process, in
  spec order.
* ``bench [ids…]`` — many experiments one after another (default:
  all), one ``BENCH_<id>.json`` each.
* ``compare`` — ``experiment compare`` with ``--scenario``: one
  workload scenario under all four protocols.
* ``run <scenario>`` — run one scenario once and print its summary, on
  the simulated wire or real localhost TCP (``--transport``),
  optionally under a fault preset of :data:`repro.faults.FAULT_PRESETS`
  (``--faults``), and print :func:`repro.obs.render_summary` of its run
  record (with a fault section under a preset).  ``--trace-dir`` or
  ``--check`` traces the run, which adds the peak concurrency and the
  lock-wait distribution.
* ``fuzz`` — schedule-exploration fuzzing (:mod:`repro.check`): seeds
  x protocols x fault presets with perturbed same-instant event
  ordering, every run judged; a failure prints a minimized one-line
  repro command (``--trace-dir`` also dumps its trace and a report).
  ``--migration`` / ``--semantic`` turn those features on in every
  task.
* ``load <scenario>`` — one open-loop load scenario (:mod:`repro.load`)
  on a one-node-per-client cluster with adaptive GDO home migration
  (``--no-migration`` for the static partition); prints the run's
  summary and the per-shard p50/p99/p999 request-latency SLO table.
* ``list`` — experiment ids and scenarios; ``version`` (or
  ``--version``) — the package version.

The artifact flags are uniform across ``run``, ``fuzz`` and ``load``:
``--out PATH`` writes the result as JSON (for ``run``, the
:func:`~repro.runtime.record.run_record` of the run), ``--trace-dir DIR``
writes the JSONL event log (with a clock header) and a Chrome trace,
and ``--check`` gates the exit code on :func:`repro.check.judge` — the
serial-replay oracle, the nested-O2PL reference model and the three
trace invariant checkers, which judge every ``fuzz`` task anyway.  A
``run`` artifact is named ``{scenario}-{protocol}``, plus ``-{preset}``
under a fault plan and ``-tcp`` over TCP.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.bench import (
    EXPERIMENTS,
    ExperimentResult,
    build_plan,
    format_bench_summary,
    run_experiment,
)
from repro.check import ALL_PROTOCOLS, DEFAULT_POLICIES, judge, run_campaign
from repro.faults import FAULT_PRESETS
from repro.gdo.migration import MigrationConfig
from repro.load import LOAD_SCENARIOS, build_load, run_load, shard_slo_series
from repro.obs import render_summary, write_chrome_trace, write_jsonl
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.record import run_record
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


def _add_artifact_arguments(parser: argparse.ArgumentParser,
                            check: bool = True) -> None:
    """The uniform artifact surface of every scenario-running command:
    ``--out`` (JSON result), ``--trace-dir`` (JSONL + Chrome trace),
    ``--check`` (the whole oracle stack)."""
    group = parser.add_argument_group(
        "artifacts", "uniform output flags shared by run/fuzz/load"
    )
    group.add_argument(
        "--out", metavar="PATH",
        help="write the result as JSON to this file: the run record "
             "(run), the per-shard SLO result (load) or the campaign "
             "summary (fuzz)",
    )
    group.add_argument(
        "--trace-dir", metavar="DIR",
        help="write trace artifacts (JSONL event log + Chrome "
             "trace) to this directory",
    )
    if check:
        group.add_argument(
            "--check", action="store_true",
            help="trace the run and gate on repro.check.judge: exit "
                 "nonzero unless the serial-replay oracle, the "
                 "reference model and every trace invariant pass",
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

    bench = sub.add_parser(
        "bench",
        help="run many experiments at once; write one BENCH_<id>.json each",
    )
    bench.add_argument(
        "ids", nargs="*", metavar="id",
        help="experiment ids to run (default: every experiment)",
    )
    _add_run_arguments(bench, experiments=True)
    bench.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="directory for the BENCH_<id>.json files (default: .)",
    )

    cmp_parser = sub.add_parser(
        "compare", help="the compare experiment: one scenario under all "
                        "four protocols"
    )
    cmp_parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                            default="medium-high")
    _add_run_arguments(cmp_parser, default_scale=0.5, experiments=True)
    _add_output_arguments(cmp_parser)
    cmp_parser.set_defaults(id="compare")

    run = sub.add_parser(
        "run",
        help="run one scenario, over sim or real localhost TCP, "
             "optionally faulted, traced, and judged",
    )
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_run_arguments(run, default_scale=0.25)
    run.add_argument("--protocol", default="lotec", choices=ALL_PROTOCOLS)
    run.add_argument("--transport", choices=("sim", "tcp"), default="sim",
                     help="wire backend: virtual-clock simulation "
                          "(default) or real localhost TCP sockets")
    run.add_argument("--faults", choices=sorted(FAULT_PRESETS),
                     help="run under this fault preset and print the "
                          "fault accounting")
    _add_artifact_arguments(run)

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
    # Every fuzz task is judged anyway, so no --check; its --trace-dir
    # collects *failing* traces.
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
    print(f"\nwrote {jsonl_path} ({len(cluster.trace_events):,} events)")
    print(f"wrote {chrome_path} (load in Perfetto / chrome://tracing)")
    return None


def _finish(args, cluster: Cluster, payload, stem: str) -> int:
    """The tail of every scenario-running command: the ``--out``
    envelope, the ``--trace-dir`` artifacts named ``stem``, and the
    ``--check`` gate on :func:`repro.check.judge`."""
    if args.out:
        _write_json(payload, args.out)
        print(f"\nwrote {args.out}")
    if args.trace_dir:
        error = _write_trace_artifacts(cluster, args.trace_dir, stem)
        if error is not None:
            return error
    if not args.check:
        return 0
    verdict = judge(cluster)
    if not verdict.ok:
        print("\ncheck: FAILED", file=sys.stderr)
        for line in verdict.failure_summary():
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nserializability: OK ({verdict.committed_roots} committed "
          f"roots replay clean)")
    print("invariants: OK (reference model, page-version, commit-order, "
          "liveness)")
    return 0


def _cmd_experiment(args) -> int:
    # `compare` is `experiment compare` with the scenario as a flag.
    options = {"scenario": args.scenario} if args.command == "compare" else {}
    result = run_experiment(
        args.id, seed=args.seed, scale=args.scale, num_nodes=args.nodes,
        **options,
    )
    print(_render(result, args.format or "table"))
    if args.out:
        _write_json(result.to_json(), args.out)
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
    entries = []
    for eid in ids:
        plan = build_plan(eid, seed=args.seed, scale=args.scale,
                          num_nodes=args.nodes)
        path = os.path.join(args.out_dir, f"BENCH_{eid}.json")
        _write_json(plan.run().to_json(), path)
        entries.append({"experiment": eid, "runs": len(plan.specs),
                        "path": path})
    print(format_bench_summary(entries))
    total = sum(entry["runs"] for entry in entries)
    print(f"\n{total} cluster runs")
    return 0


def _cmd_run(args) -> int:
    params = SCENARIOS[args.scenario].scaled(args.scale)
    workload = generate_workload(params, seed=args.seed)
    with Cluster(ClusterConfig(
        num_nodes=args.nodes, protocol=args.protocol, seed=args.seed,
        trace=bool(args.trace_dir or args.check),
        faults=FAULT_PRESETS[args.faults] if args.faults else None,
        transport=args.transport,
    )) as cluster:
        record = run_record(cluster, run_workload(cluster, workload))
        faults = f" with faults {args.faults}" if args.faults else ""
        print(f"scenario {args.scenario} under {args.protocol} over "
              f"{args.transport}{faults} (seed {args.seed}, scale "
              f"{args.scale}, {args.nodes} nodes): {record['committed']} "
              f"committed, {record['failed']} failed")
        if args.transport == "tcp":
            print(f"{len(cluster.network.delivered_log)} frames crossed "
                  f"real sockets")
        print(f"\n{render_summary(record)}")
        stem = "-".join(part for part in (
            args.scenario, args.protocol, args.faults,
            "tcp" if args.transport == "tcp" else None,
        ) if part)
        return _finish(args, cluster, record, stem)


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
        print("fuzz: all tasks clean (serial replay, reference model, "
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
    load = build_load(args.scenario, seed=args.seed, scale=args.scale)
    scenario = load.scenario
    migration = None if args.no_migration else MigrationConfig()
    cluster = Cluster(ClusterConfig(
        num_nodes=scenario.clients, protocol="lotec", seed=args.seed,
        trace=True, migration=migration,
    ))
    record = run_record(cluster, run_load(cluster, load))
    remote = record["network"]["directory_messages"]
    policy = "static" if migration is None else "adaptive"
    print(f"load {args.scenario} (seed {args.seed}, scale {args.scale}, "
          f"{scenario.clients} clients, {policy} homes): "
          f"{record['committed']} committed, {record['failed']} failed, "
          f"{remote} remote directory messages")
    moved = record["migration"]
    if moved is not None:
        print(f"migrations: {moved['migrations']}, forwarded "
              f"requests: {moved['forwarded_requests']} "
              f"(considered {moved['considered']})")
    print(f"\n{render_summary(record)}")
    result = ExperimentResult(
        experiment=f"per-shard SLO — {args.scenario} ({policy})",
        x_label="shard",
        series=shard_slo_series(record["metrics"]),
        meta={
            "scenario": args.scenario, "seed": args.seed,
            "scale": args.scale, "clients": scenario.clients,
            "policy": policy,
            "committed": record["committed"], "failed": record["failed"],
            "remote_directory_messages": remote,
            "migration": moved,
        },
    )
    print()
    print(_render(result, args.format or "table"))
    return _finish(args, cluster, result.to_json(),
                   f"{args.scenario}-{policy}")


def _cmd_version(_args) -> int:
    print(_package_version())
    return 0


def _cmd_list(_args) -> int:
    print("experiments:")
    for key in sorted(EXPERIMENTS):
        print(f"  {key}")
    print("\nscenarios (for `run` and `compare`):")
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
        "compare": _cmd_experiment,
        "run": _cmd_run,
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
