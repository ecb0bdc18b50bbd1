"""Observability: metrics, spans, and live telemetry for the pipeline.

The paper's headline numbers come out of sharded, retrying runs; this
package is how those runs describe themselves.  Everything is
dependency-free and deterministic where it matters:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, histograms) whose :class:`MetricsSnapshot` is picklable and
  JSON-exportable with sorted keys;
* :mod:`repro.obs.trace` — :class:`SpanTracer`, a thread-safe
  context-manager span stack with wall-time, nesting, trace-context
  identity, and JSON export;
* :mod:`repro.obs.tracectx` — distributed-tracing glue:
  :class:`TraceContext` (the ``X-Repro-Traceparent`` wire encoding),
  :class:`TraceIdSource` (seeded deterministic trace/span ids),
  :class:`TraceStore` (span assembly grouped by trace id from live
  tracers, worker-shipped records, or replayed ``span`` events), and
  :func:`certificate_lifecycles` (the Sec. 6 submit → SCT → merge →
  inclusion → detection timeline read out of spans alone);
* :mod:`repro.obs.export` — :func:`render_prometheus` (deterministic
  Prometheus text exposition of a snapshot) and
  :class:`TelemetryServer`, a stdlib HTTP endpoint serving
  ``/metrics``, ``/health``, and ``/events/tail`` for long-running
  loops;
* :mod:`repro.obs.events` — :class:`EventLog`, a structured JSONL
  event stream (run/shard lifecycle, per-log fetch outcomes) with
  per-run correlation IDs, :func:`record` (one call per operation:
  its event, and the counters, gauges and histograms
  :data:`EVENT_METRICS` derives from its fields), :func:`replay_metrics`
  to fold the stream back into that snapshot, and
  :class:`SnapshotDeltaFlusher` for interval-based live counter deltas;
* :mod:`repro.obs.health` — the per-log SLO engine:
  :func:`evaluate_stats` folds fetch counters into
  ``healthy|degraded|failing`` verdicts under an :class:`SloPolicy`.

Telemetry is never absent: :data:`NULL_METRICS`, :data:`NULL_EVENTS`
and :data:`NULL_TRACER` are the defaults of every ``metrics=``,
``events=`` and ``tracer=`` parameter.  They accept every recording
call and keep nothing, so instrumented code records unconditionally
and has one code path.

Wired consumers: :class:`repro.pipeline.PipelineEngine` (per-shard
duration, queue wait, attempts, degraded shards, checkpoint resume hit
rate, lifecycle events), :class:`repro.ct.CertFeed` and the Section 6
monitors (per-log fetch latency, entries, error/retry counters,
``feed_poll``/``monitor_fetch`` events, health reports),
:class:`repro.ct.LogAuditor` (poll latency, consistency pass/fail,
tree-size gauge), :class:`repro.resilience.RetryPolicy`
(attempt/backoff histograms), :class:`repro.ct.storage.
HarvestCheckpoint` (record accounting), the CLI (``--metrics-out`` /
``--trace`` / ``--trace-out`` / ``--events-out`` and the ``status``
artifact), and the benchmark harness (JSON sidecars).
"""

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_METRICS,
    EVENT_SCHEMA_VERSION,
    NULL_EVENTS,
    EventLog,
    SnapshotDeltaFlusher,
    counter_delta,
    new_run_id,
    read_events,
    record,
    replay_metrics,
)
from repro.obs.export import (
    EXPOSITION_CONTENT_TYPE,
    TelemetryServer,
    escape_label_value,
    format_number,
    parse_exposition,
    prometheus_name,
    render_prometheus,
    split_metric_key,
)
from repro.obs.health import (
    DEFAULT_POLICY,
    HealthReport,
    LogHealth,
    SloPolicy,
    WritePathHealth,
    WritePathReport,
    evaluate_log,
    evaluate_stats,
    evaluate_write_path,
)
from repro.obs.metrics import (
    COUNT_BOUNDS,
    DEFAULT_TIME_BOUNDS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
)
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Span, SpanTracer
from repro.obs.tracectx import (
    SPAN_KINDS,
    SPAN_RECORD_FIELDS,
    TRACEPARENT_HEADER,
    TraceContext,
    TraceIdSource,
    TraceStore,
    certificate_lifecycles,
    normalize_span_record,
    render_lifecycles,
)

__all__ = [
    "COUNT_BOUNDS",
    "DEFAULT_POLICY",
    "DEFAULT_TIME_BOUNDS",
    "EVENT_KINDS",
    "EVENT_METRICS",
    "EVENT_SCHEMA_VERSION",
    "EXPOSITION_CONTENT_TYPE",
    "NULL_EVENTS",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "SPAN_KINDS",
    "SPAN_RECORD_FIELDS",
    "TRACEPARENT_HEADER",
    "Counter",
    "EventLog",
    "Gauge",
    "HealthReport",
    "Histogram",
    "LogHealth",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SloPolicy",
    "SnapshotDeltaFlusher",
    "Span",
    "SpanTracer",
    "TelemetryServer",
    "TraceContext",
    "TraceIdSource",
    "TraceStore",
    "WritePathHealth",
    "WritePathReport",
    "certificate_lifecycles",
    "counter_delta",
    "escape_label_value",
    "evaluate_log",
    "evaluate_stats",
    "evaluate_write_path",
    "format_number",
    "metric_key",
    "new_run_id",
    "normalize_span_record",
    "parse_exposition",
    "prometheus_name",
    "read_events",
    "record",
    "render_lifecycles",
    "render_prometheus",
    "replay_metrics",
    "split_metric_key",
]
