"""repro.obs — observability for the simulated DSM.

Virtual-clock tracing (:mod:`repro.obs.tracer`), a registry of the
gauges and latency histograms no stats object keeps
(:mod:`repro.obs.metrics`), and exporters (:mod:`repro.obs.export`)
that write JSONL, Chrome ``trace_event`` JSON for Perfetto, and the
text summary of a run record.  Enable per cluster with ``ClusterConfig(trace=True)`` or
from the command line with ``python -m repro run <scenario>
--trace-dir DIR``.
"""

from repro.obs.export import (
    chrome_trace,
    events_to_jsonl,
    read_jsonl,
    read_jsonl_header,
    render_summary,
    trace_header,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    sanitize,
)

__all__ = [
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "events_to_jsonl",
    "read_jsonl",
    "read_jsonl_header",
    "render_summary",
    "sanitize",
    "trace_header",
    "write_chrome_trace",
    "write_jsonl",
]
