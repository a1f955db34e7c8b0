"""Metrics registry: counters, gauges, and histograms with labels.

The paper's evaluation reasons about *aggregates per cause* — bytes
moved to satisfy a prediction versus bytes demand-fetched after a miss,
lock operations served locally versus at the GDO home, wait time spent
behind other families.  :class:`MetricsRegistry` is the accumulation
surface for those aggregates: instruments are created on demand, keyed
by ``(name, labels)``, so instrumentation sites never pre-declare
anything and disabled runs allocate nothing.

All instruments are plain Python accumulators (no background threads,
no exposition server): a registry belongs to one simulated cluster and
is read at the end of the run by the exporters in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, object], ...]

#: Default histogram bucket upper bounds (seconds): spans microseconds
#: to minutes, the full range of simulated waits and latencies.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)


@dataclass
class Counter:
    """Monotonic accumulator (events, bytes, pages)."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Instantaneous level (active transactions, queue depth)."""

    value: float = 0
    high_water: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


def percentile_from_counts(bounds: Sequence[float], counts: Sequence[int],
                           count: int, minimum: float, maximum: float,
                           q: float) -> float:
    """Percentile estimate from fixed-bucket counts.

    ``counts`` holds one entry per bound plus a trailing overflow
    bucket.  The estimate is the upper bound of the bucket containing
    the target rank, clamped into ``[minimum, maximum]`` — so a
    single-sample histogram returns the exact sample, an overflowing
    rank returns the true maximum, and no estimate can leave the
    observed range (the failure mode of a naive bucket walk on small
    counts).  Shared by :meth:`Histogram.percentile` and the SLO
    tables' snapshot-side computation (:mod:`repro.load.slo`).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    if count <= 0:
        return 0.0
    # Rank of the q-th percentile, 1-based (nearest-rank definition).
    target = max(1, math.ceil(q * count))
    cumulative = 0
    for bound, bucket_count in zip(bounds, counts):
        cumulative += bucket_count
        if cumulative >= target:
            return min(max(bound, minimum), maximum)
    return maximum  # rank falls in the overflow bucket


@dataclass
class Histogram:
    """Fixed-bucket distribution (lock-wait time, root latency)."""

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            # One count per bound plus the overflow bucket.
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate (``q`` in ``[0, 1]``).

        Empty histograms report 0.0; a single sample reports itself
        exactly (the clamp collapses every bucket bound onto it); any
        rank past the tracked bounds reports the true maximum.  With
        fewer than ``1/(1-q)`` samples the answer degenerates to the
        maximum — the correct nearest-rank value, e.g. p999 of 10
        samples is the largest one.
        """
        return percentile_from_counts(
            self.buckets, self.counts, self.count, self.min, self.max, q
        )

    def snapshot(self) -> Dict[str, object]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(bound): count
                for bound, count in zip(self.buckets, self.counts)
                if count
            },
            "overflow": self.counts[-1],
        }


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """On-demand instrument store, keyed by metric name + label set."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument access ---------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                buckets=buckets or DEFAULT_BUCKETS
            )
        return instrument

    # -- aggregate reads -----------------------------------------------------

    def counter_total(self, name: str, **fixed_labels) -> float:
        """Sum of one counter over every label set matching the fixed
        labels (e.g. total ``net.bytes`` across categories)."""
        wanted = set(fixed_labels.items())
        return sum(
            counter.value
            for (metric, labels), counter in self._counters.items()
            if metric == name and wanted <= set(labels)
        )

    def counter_series(self, name: str, label: str) -> Dict[object, float]:
        """Per-label-value breakdown of one counter (other labels summed)."""
        series: Dict[object, float] = {}
        for (metric, labels), counter in self._counters.items():
            if metric != name:
                continue
            for key, value in labels:
                if key == label:
                    series[value] = series.get(value, 0) + counter.value
        return series

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict dump of every instrument, JSON-ready."""

        def render(labels: LabelKey) -> str:
            if not labels:
                return "total"
            return ",".join(f"{key}={value}" for key, value in labels)

        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), counter in sorted(self._counters.items()):
            out["counters"].setdefault(name, {})[render(labels)] = counter.value
        for (name, labels), gauge in sorted(self._gauges.items()):
            out["gauges"].setdefault(name, {})[render(labels)] = {
                "value": gauge.value, "high_water": gauge.high_water,
            }
        for (name, labels), histogram in sorted(self._histograms.items()):
            out["histograms"].setdefault(name, {})[render(labels)] = (
                histogram.snapshot()
            )
        return out
