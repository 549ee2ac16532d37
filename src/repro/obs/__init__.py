"""Structured observability: spans, metrics, exporters, dashboard.

The unified instrumentation layer over synthesis, the trace-replay
runtime, and the reconfiguration control plane.  Every observer — the
:mod:`repro.perf` recorder, the span tracer, the event bus — and the
cache store sit in one run context (:mod:`repro.obs.context`) that
instrumented code reads with one global read and that pool workers
ship home as one snapshot.  The perf counters stay the zero-dependency
hot-path accumulator (:meth:`MetricsRegistry.absorb_perf` lifts them
into the registry); this package adds what they cannot express:
*where* time went (hierarchical spans, cross-process), *how values
distribute* (histograms), and *how a run looked* (dashboard, Perfetto
traces).

Determinism contract: span identity and ordering never touch the wall
clock, every exporter orders its output canonically, and timing fields
can be dropped at export (``timing=False``) — so byte-identical runs
export byte-identical event sequences, which ``tests/test_obs.py`` and
``tests/test_stream.py`` gate.
"""

from .dashboard import (
    cache_lines,
    counter_lines,
    island_gantt_lines,
    phase_breakdown_lines,
    recovery_timeline_lines,
    render_dashboard,
    render_html,
)
from .live import (
    LiveRenderer,
    LiveStatus,
    follow_render,
    status_lines,
)
from .export import (
    chrome_trace_events,
    chrome_trace_json,
    prometheus_text,
    span_log_lines,
    telemetry_log_lines,
    write_lines,
)
from .metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    publish_metrics,
    record_cache_hit_rates,
    record_cache_metrics,
    record_control_metrics,
    record_runtime_metrics,
)
from .spans import (
    SpanRecord,
    SpanRecorder,
    span,
    stable_span_id,
    tracing,
)
from .stream import (
    EVENT_KINDS,
    CallbackSink,
    EventBus,
    JsonlSink,
    MemorySink,
    ObsEvent,
    canonical_events,
    emit,
    event_from_record,
    event_lines,
    event_record,
    follow_events,
    read_events,
    streaming,
)

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "EVENT_KINDS",
    "CallbackSink",
    "Counter",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LiveRenderer",
    "LiveStatus",
    "MemorySink",
    "MetricsRegistry",
    "ObsEvent",
    "SpanRecord",
    "SpanRecorder",
    "cache_lines",
    "canonical_events",
    "chrome_trace_events",
    "chrome_trace_json",
    "counter_lines",
    "emit",
    "event_from_record",
    "event_lines",
    "event_record",
    "follow_events",
    "follow_render",
    "island_gantt_lines",
    "phase_breakdown_lines",
    "prometheus_text",
    "publish_metrics",
    "read_events",
    "record_cache_hit_rates",
    "record_cache_metrics",
    "record_control_metrics",
    "record_runtime_metrics",
    "recovery_timeline_lines",
    "render_dashboard",
    "render_html",
    "span",
    "span_log_lines",
    "stable_span_id",
    "status_lines",
    "streaming",
    "telemetry_log_lines",
    "tracing",
    "write_lines",
]
