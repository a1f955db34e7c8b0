"""Trace and metrics exporters: JSONL, Chrome ``trace_event``, text.

Three consumers, three formats:

* **JSONL** — one :class:`~repro.obs.tracer.TraceEvent` per line, the
  lossless archival form; :func:`read_jsonl` reloads it bit-for-bit so
  analysis scripts work from files instead of live clusters.
* **Chrome trace** — the ``trace_event`` JSON object format, loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``: one
  Chrome *process* per simulated node, one *thread* per track
  (transaction family, gather lane, network link), timestamps in
  microseconds of virtual time.
* **Text summary** — the end-of-run table a terminal user reads first,
  rendered from the run record, so a traced and an untraced run print
  the same counts.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.tracer import TraceEvent

#: Chrome pid reserved for cluster-wide events (no owning node).
CLUSTER_PID = 0


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

#: Key of the optional first-line header object of a JSONL trace.
TRACE_HEADER_KEY = "trace_header"

#: Version of the JSONL trace layout (events are versioned separately
#: by their own fields; this covers the file-level framing).
TRACE_SCHEMA = 1


def trace_header(clock: str = "virtual") -> Dict[str, object]:
    """The file header recording what domain timestamps live in:
    ``"virtual"`` (simulation seconds) or ``"wall"`` (real elapsed
    seconds, traces collected over the TCP transport)."""
    return {"schema": TRACE_SCHEMA, "clock": clock}


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events, one JSON object per line."""
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n" for event in events
    )


def write_jsonl(events: Iterable[TraceEvent], path, clock=None) -> None:
    """Write a JSONL trace; with ``clock`` set, a ``trace_header``
    first line records the clock domain (event lines are unchanged, so
    header-unaware consumers that skip unknown shapes still work)."""
    with open(path, "w") as handle:
        if clock is not None:
            handle.write(json.dumps(
                {TRACE_HEADER_KEY: trace_header(clock)}, sort_keys=True
            ) + "\n")
        handle.write(events_to_jsonl(events))


def read_jsonl(path) -> List[TraceEvent]:
    """Inverse of :func:`write_jsonl`: reload the exact event objects
    (the optional header line is skipped; see :func:`read_jsonl_header`)."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if TRACE_HEADER_KEY in record:
                continue
            events.append(TraceEvent(**record))
    return events


def read_jsonl_header(path) -> Dict[str, object]:
    """The trace's header object; legacy headerless files (and any
    pre-header consumers' output) read as a virtual-clock trace."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            header = record.get(TRACE_HEADER_KEY)
            return header if header is not None else trace_header("virtual")
    return trace_header("virtual")


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

def _seconds_to_us(seconds: float) -> float:
    return seconds * 1e6


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, object]:
    """Convert events to the Chrome ``trace_event`` object format.

    Nodes become Chrome processes (pid = node value + 1; pid 0 is the
    cluster-wide lane) and tracks become threads, with ``M`` metadata
    records naming both so Perfetto's timeline is self-describing.
    """
    trace_events: List[Dict[str, object]] = []
    tids: Dict[tuple, int] = {}
    named_pids: Dict[int, str] = {}

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": track or "events"},
            })
        return tid

    def pid_for(node) -> int:
        pid = CLUSTER_PID if node is None else node + 1
        if pid not in named_pids:
            named_pids[pid] = "cluster" if node is None else f"node N{node}"
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": named_pids[pid]},
            })
        return pid

    for event in events:
        pid = pid_for(event.node)
        record: Dict[str, object] = {
            "name": event.name,
            "cat": event.category,
            "ph": event.phase,
            "ts": _seconds_to_us(event.ts),
            "pid": pid,
            "tid": tid_for(pid, event.track),
            "args": event.args,
        }
        if event.phase == "X":
            record["dur"] = _seconds_to_us(event.dur)
        elif event.phase == "i":
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(events), handle)


# ---------------------------------------------------------------------------
# Text summary
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value):,}"


def _total(metrics, kind: str, name: str):
    """The unlabelled instrument ``name`` of a registry snapshot."""
    return (metrics or {}).get(kind, {}).get(name, {}).get("total")


def render_summary(record: Dict[str, object]) -> str:
    """End-of-run text summary of one
    :func:`~repro.runtime.record.run_record`.

    Every count is the record's; a traced run's ``metrics`` add the peak
    concurrency and the lock-wait distribution, and a run under a fault
    plan gets a fault section.
    """
    metrics = record.get("metrics")
    lines: List[str] = []

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    def row(label: str, value) -> None:
        lines.append(f"{label:<30} {_fmt(value)}")

    txns = record["transactions"]
    section("transactions")
    row("root commits", txns["commits"])
    row("sub commits", txns["sub_commits"])
    for key, count in txns.items():
        if key.startswith("aborts_") and count:
            row(f"root aborts ({key[7:].replace('_', '-')})", count)
    row("sub aborts (any reason)", txns["sub_aborts"])
    row("retried attempts", txns["retries"])
    if txns["commits"]:
        row("mean root latency (us)", txns["mean_latency"] * 1e6)
    active = _total(metrics, "gauges", "txn.active")
    if active is not None:
        row("peak concurrent txns", active["high_water"])

    locks = record["locks"]
    section("locking")
    row("local grants", locks["local_acquisitions"])
    row("global requests", locks["global_acquisitions"])
    row("waits", locks["waits"])
    wait = _total(metrics, "histograms", "lock.wait_s")
    if wait is not None and wait["count"]:
        row("mean wait (us)", wait["mean"] * 1e6)
        row("max wait (us)", wait["max"] * 1e6)
    row("deadlock victims", locks["deadlocks"])
    row("cycle searches", locks["cycle_searches"])

    network = record["network"]
    section("network")
    row("total bytes", network["total_bytes"])
    row("total messages", network["total_messages"])
    for category, count in network["by_category_bytes"].items():
        row(f"bytes ({category})", count)

    prediction = record["prediction"]
    instances = prediction.get("instances", [prediction])
    predicted, shipped, demand = (
        sum(instance[key] for instance in instances)
        for key in ("predicted_pages", "transferred_pages", "demand_fetches")
    )
    section("data movement")
    row("consistency bytes", network["consistency_bytes"])
    row("predicted pages", predicted)
    row("shipped at acquisition", shipped)
    row("demand-fetched (misses)", demand)
    if shipped + demand:
        row("prediction coverage", f"{1.0 - demand / (shipped + demand):.1%}")

    faults = record["faults"]
    if faults["plan"] is not None:
        section(f"faults ({faults['plan']})")
        row("messages dropped", faults["messages_dropped"])
        row("dropped at a partition", faults["partition_dropped"])
        row("retransmissions", faults["retransmissions"])
        row("messages duplicated", faults["messages_duplicated"])
        row("delay injected (us)", round(faults["delay_injected_s"] * 1e6))
        row("slow-node delay (us)", round(faults["slow_delay_s"] * 1e6))
        row("lock timeouts", faults["lock_timeouts"])
        row("crashes / recoveries",
            f"{faults['crashes']} / {faults['recoveries']}")
        row("crash-aborted families", faults["crash_aborted_families"])
        row("GDO home failovers", faults["failovers"])
        row("failover reroutes", faults["failover_reroutes"])
        row("rejoin replay/reclaim/discard",
            f"{faults['rejoin_replayed_records']} / "
            f"{faults['rejoin_reclaimed_homes']} / "
            f"{faults['rejoin_discarded_holders']}")
    return "\n".join(lines)
