"""Metric and workload declarations, and the arithmetic behind each name.

This file is the source of the names: ``noise.py --write-benchmark``
copies them, with the measured bounds, into ``/BENCHMARK.json``.  It
imports nothing from ``repro``; it works on the JSON the children print.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

Metric = Tuple[str, str, str]  # name, unit, better

#: (name, why).  Loop kind, sizes and seeds are in workloads.SPECS.
WORKLOADS = (
    ("fig2-deadlock",
     "closed burst on 20 hot objects (paper Fig. 2): all roots in flight, "
     "deadlock search dominates; loads gdo cycle search and txn locks"),
    ("fig5-pages",
     "paced arrivals on 100 objects of 10-20 pages (paper Fig. 5): "
     "bytes moved per commit; loads runtime, memory, core, net, leaves "
     "the deadlock detector idle"),
    ("zipf-open",
     "open loop, Poisson 1500 tps, 16 clients, Zipf 1.0, home migration "
     "on: most events and roots per second; loads runtime, sim, gdo "
     "directory and migration"),
    ("tcp-closed",
     "closed loop, one client, real localhost TCP sockets: the only "
     "wall-clock latency; loads net/tcp, message framing, sim/realtime"),
)

END_TO_END: Tuple[Metric, ...] = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("py_calls", "count", "lower"),
    ("committed_share", "ratio", "higher"),
    ("root_latency_p50_ms", "ms", "lower"),
    ("root_latency_p95_ms", "ms", "lower"),
    ("commits_per_s", "1/s", "higher"),
    ("bytes_per_commit", "B", "lower"),
    ("msgs_per_commit", "count", "lower"),
    ("events_per_commit", "count", "lower"),
)

#: Host-time metrics: everything else repeats exactly for a given seed
#: on the virtual-clock workloads.
HOST_TIME = ("wall_s", "setup_s", "peak_rss_mb")

LAYERS = ("sim", "gdo", "txn", "core", "net", "runtime", "memory",
          "objects", "obs", "faults", "workload", "util", "builtins", "proc")

PER_LAYER: Tuple[Metric, ...] = tuple(
    metric
    for layer in LAYERS
    for metric in ((f"{layer}.self_share", "ratio", "lower"),
                   (f"{layer}.calls", "count", "lower"))
) + (
    ("gdo.find_cycle_calls", "count", "lower"),
    ("gdo.find_cycle_cum_share", "ratio", "lower"),
    ("gdo.update_entry_calls", "count", "lower"),
    ("gdo.deadlocks", "count", "lower"),
    ("gdo.migrations", "count", "lower"),
    ("gdo.forwarded_requests", "count", "lower"),
    ("gdo.directory_msgs_per_commit", "count", "lower"),
    ("gdo.request_latency_mean_us", "us", "lower"),
    ("txn.acquire_calls", "count", "lower"),
    ("txn.lock_waits", "count", "lower"),
    ("txn.retries_per_commit", "count", "lower"),
    ("txn.global_acquisitions", "count", "lower"),
    ("txn.local_acquisitions", "count", "higher"),
    ("txn.lock_wait_share", "ratio", "lower"),
    ("core.transferred_pages", "count", "lower"),
    ("core.demand_fetches", "count", "lower"),
    ("core.predicted_pages", "count", "lower"),
    ("core.gather_share", "ratio", "lower"),
    ("net.page_data_bytes_per_commit", "B", "lower"),
    ("net.lock_msgs_per_commit", "count", "lower"),
    ("net.record_calls", "count", "lower"),
    ("net.send_calls", "count", "lower"),
    ("net.host_us_per_msg", "us", "lower"),
    ("net.frames_delivered", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.run_cum_share", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.trace_events", "count", "lower"),
    ("obs.check_s", "s", "lower"),
    ("proc.gc_share", "ratio", "lower"),
    ("proc.gc_gen2", "count", "lower"),
    ("proc.import_s", "s", "lower"),
    ("proc.build_s", "s", "lower"),
)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest rank, as ``TxnStats.latency_percentile``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def samples_beyond(count: int, fraction: float) -> int:
    return count - 1 - min(count - 1, int(fraction * count))


def spread(values: List[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as the driver computes it."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def pool(batches: List[Dict]) -> Tuple[Dict[str, float], List[float]]:
    """Counters summed, and root latencies pooled, over batches."""
    total: Dict[str, float] = {}
    latencies: List[float] = []
    for batch in batches:
        for key, value in batch["counters"].items():
            if key == "latencies":
                latencies.extend(value)
            else:
                total[key] = total.get(key, 0) + value
    return total, latencies


def end_to_end(setup_s: float, timing: Dict, py_calls: int) -> Dict[str, float]:
    """The eleven end-to-end values from the timing child's batches."""
    batches = timing["batches"]
    total, latencies = pool(batches)
    commits = total["commits"]
    wall_s = statistics.median(batch["wall_s"] for batch in batches)
    if timing["clock"] == "host":
        # The makespan of a batch is the time it took; the median batch
        # keeps one disturbed batch out of the rate.
        makespan_s = wall_s * len(batches)
    else:
        makespan_s = total["makespan_s"]  # virtual seconds
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": timing["peak_rss_mb"],
        "py_calls": py_calls,
        "committed_share": commits / total["submitted"],
        "root_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "root_latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "commits_per_s": commits / makespan_s,
        "bytes_per_commit": total["bytes"] / commits,
        "msgs_per_commit": total["messages"] / commits,
        "events_per_commit": total["events"] / commits,
    }


def per_layer(layers: Dict) -> Dict[str, float]:
    """The per-layer values from a traced layers child."""
    profile = layers["profile"]
    counters = layers["counters"]
    attribution = layers["attribution"]
    total_s = profile["total_s"]
    commits = counters["commits"]
    plain_s = layers["plain_s"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_share"] = profile["self_s"][layer] / total_s
        values[f"{layer}.calls"] = profile["calls"][layer]
    hot = profile["hot"]
    values.update({
        "gdo.find_cycle_calls": hot["gdo.find_cycle"]["calls"],
        "gdo.find_cycle_cum_share":
            hot["gdo.find_cycle"]["cum_s"] / profile["phase_s"],
        "gdo.update_entry_calls": hot["gdo.update_entry"]["calls"],
        "gdo.deadlocks": counters["deadlocks"],
        "gdo.migrations": counters["migrations"],
        "gdo.forwarded_requests": counters["forwarded_requests"],
        "gdo.directory_msgs_per_commit":
            counters["directory_messages"] / commits,
        "gdo.request_latency_mean_us":
            1e6 * attribution["gdo_request_s"]
            / max(1, attribution["gdo_requests"]),
        "txn.acquire_calls": hot["txn.acquire"]["calls"],
        "txn.lock_waits": counters["lock_waits"],
        "txn.retries_per_commit": counters["retries"] / commits,
        "txn.global_acquisitions": counters["global_acquisitions"],
        "txn.local_acquisitions": counters["local_acquisitions"],
        "txn.lock_wait_share":
            attribution["lock_wait_s"] / attribution["txn_latency_s"],
        "core.transferred_pages": counters["transferred_pages"],
        "core.demand_fetches": counters["demand_fetches"],
        "core.predicted_pages": counters["predicted_pages"],
        "core.gather_share":
            attribution["gather_s"] / attribution["txn_latency_s"],
        "net.page_data_bytes_per_commit":
            counters["page_data_bytes"] / commits,
        "net.lock_msgs_per_commit": counters["lock_messages"] / commits,
        "net.record_calls": hot["net.record"]["calls"],
        "net.send_calls": hot["net.send"]["calls"],
        "net.host_us_per_msg": 1e6 * plain_s / counters["messages"],
        "net.frames_delivered": counters["frames_delivered"],
        "sim.events": counters["events"],
        "sim.host_us_per_event": 1e6 * plain_s / counters["events"],
        "sim.run_cum_share": hot["sim.run"]["cum_s"] / profile["phase_s"],
        "obs.trace_overhead_ratio": layers["traced_s"] / plain_s,
        "obs.trace_events": attribution["trace_events"],
        "obs.check_s": layers["check_s"],
        "proc.gc_share": layers["gc_s"] / plain_s,
        "proc.gc_gen2": layers["gc_collections"][2],
        "proc.import_s": layers["import_s"],
        "proc.build_s": layers["generate_s"] + layers["build_s"],
    })
    return values
