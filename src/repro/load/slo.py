"""Per-shard SLO tables from :mod:`repro.obs` metric snapshots.

A *shard* here is a directory home node: the lock manager labels its
``gdo.request_latency_s`` histograms and ``gdo.queue_depth`` gauges
with ``shard=<node>``.  This module turns a JSON-ready
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` into the
p50/p99/p999 latency and queue-depth series the bench report and the
``repro load`` CLI print — working from the *snapshot* (not the live
registry) so a run record or a written bench envelope can be rendered
without re-running anything.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.obs.metrics import DEFAULT_BUCKETS, percentile_from_counts

LATENCY_METRIC = "gdo.request_latency_s"
QUEUE_METRIC = "gdo.queue_depth"


def snapshot_percentile(snapshot: Mapping[str, object], q: float) -> float:
    """Nearest-rank percentile recomputed from a histogram snapshot.

    Snapshots elide zero-count buckets, so the bucket bounds are
    reconstructed as the union of :data:`DEFAULT_BUCKETS` and whatever
    bounds the snapshot recorded (future-proof against non-default
    bucket layouts).  Matches :meth:`Histogram.percentile` exactly for
    default-bucket histograms.
    """
    count = int(snapshot.get("count", 0))
    if count <= 0:
        return 0.0
    recorded = {
        float(bound): int(value)
        for bound, value in snapshot.get("buckets", {}).items()
    }
    bounds = sorted(set(DEFAULT_BUCKETS) | set(recorded))
    counts = [recorded.get(bound, 0) for bound in bounds]
    counts.append(int(snapshot.get("overflow", 0)))
    return percentile_from_counts(
        bounds, counts, count,
        float(snapshot.get("min", 0.0)), float(snapshot.get("max", 0.0)), q,
    )


def _shard_of(label: str) -> Optional[int]:
    """Extract the shard id from a rendered label like ``"shard=3"``."""
    for part in label.split(","):
        key, _, value = part.partition("=")
        if key == "shard":
            try:
                return int(value)
            except ValueError:
                return None
    return None


def shard_slo_series(
    metrics_snapshot: Mapping[str, object],
) -> Dict[str, Dict[object, float]]:
    """Per-shard SLO series, ready for ``format_series_table``.

    Returns ``{series_name: {shard: value}}`` with shard keys inserted
    in numeric order (``format_series_table`` renders x-values in
    first-insertion order, so the table comes out sorted).  Latencies
    are reported in microseconds; shards that saw no remote requests
    are omitted.
    """
    histograms = metrics_snapshot.get("histograms", {})
    gauges = metrics_snapshot.get("gauges", {})
    latency = histograms.get(LATENCY_METRIC, {})
    queue = gauges.get(QUEUE_METRIC, {})
    per_shard: Dict[int, Mapping[str, object]] = {}
    for label, snapshot in latency.items():
        shard = _shard_of(label)
        if shard is not None:
            per_shard[shard] = snapshot
    high_water: Dict[int, float] = {}
    for label, gauge in queue.items():
        shard = _shard_of(label)
        if shard is not None:
            high_water[shard] = float(gauge.get("high_water", 0.0))
    series: Dict[str, Dict[object, float]] = {
        "requests": {}, "p50_us": {}, "p99_us": {}, "p999_us": {},
        "queue_high_water": {},
    }
    for shard in sorted(per_shard):
        snapshot = per_shard[shard]
        series["requests"][shard] = float(snapshot.get("count", 0))
        for name, q in (("p50_us", 0.50), ("p99_us", 0.99),
                        ("p999_us", 0.999)):
            series[name][shard] = round(
                snapshot_percentile(snapshot, q) * 1e6, 1
            )
        series["queue_high_water"][shard] = high_water.get(shard, 0.0)
    return series
