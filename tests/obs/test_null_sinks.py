"""Contract tests for the null telemetry sinks.

``NULL_METRICS``, ``NULL_EVENTS`` and ``NULL_TRACER`` are the defaults
of every ``metrics=`` / ``events=`` / ``tracer=`` parameter, so
instrumented code records unconditionally.  They must accept every call
that code makes on the real classes, keep nothing, and survive the
process-pool boundary as the same objects.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    EventLog,
    MetricsRegistry,
    MetricsSnapshot,
    Span,
    SpanTracer,
    TraceContext,
)
from repro.pipeline import PipelineEngine
from repro.resilience import RetryPolicy

#: (null sink, real instance, methods instrumented code calls on it).
CONTRACTS = [
    (
        NULL_METRICS,
        MetricsRegistry(),
        ("counter", "gauge", "histogram", "inc", "set_gauge", "observe",
         "snapshot"),
    ),
    (NULL_EVENTS, EventLog(), ("emit", "tail", "close")),
    (NULL_TRACER, SpanTracer(), ("span", "current_context", "to_records")),
    (NULL_SPAN, Span("s", 0, None, 0, 0.0), ("set",)),
]


@pytest.mark.parametrize(
    "null,real,method",
    [(null, real, name) for null, real, names in CONTRACTS for name in names],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__,
)
def test_null_sink_matches_the_real_signature(null, real, method):
    assert inspect.signature(getattr(null, method)) == inspect.signature(
        getattr(real, method)
    )


def test_null_metrics_records_nothing():
    NULL_METRICS.inc("c", 2, log="a")
    NULL_METRICS.set_gauge("g", 5, log="a")
    NULL_METRICS.observe("h", 0.1, bounds=(1.0,), log="a")
    NULL_METRICS.counter("c2").inc()
    NULL_METRICS.histogram("h2", (1.0,)).observe(0.5)
    assert NULL_METRICS.snapshot() == MetricsSnapshot()
    assert len(NULL_METRICS) == 0


def test_null_events_writes_nothing():
    NULL_EVENTS.emit("feed_poll", log="a", ok=True)
    NULL_EVENTS.close()
    NULL_EVENTS.emit("feed_poll", log="a", ok=False)
    assert NULL_EVENTS.emitted == 0
    assert NULL_EVENTS.tail(10) == []
    assert NULL_EVENTS.path is None


def test_null_tracer_hands_out_one_inert_span():
    remote = TraceContext("0" * 32, "0" * 16)
    with NULL_TRACER.span("a", kind="server", parent=remote) as a:
        with NULL_TRACER.span("b", links=[remote]) as b:
            assert a is b is NULL_SPAN
            assert NULL_TRACER.current_context() is None
    NULL_SPAN.name = "server.get-sth"
    NULL_SPAN.set("status", 200)
    assert NULL_SPAN.context.to_header() == ""
    assert TraceContext.parse(NULL_SPAN.context.to_header()) is None
    assert NULL_TRACER.spans == []


@pytest.mark.parametrize("null", [NULL_METRICS, NULL_EVENTS, NULL_TRACER])
def test_null_sinks_pickle_back_to_the_singleton(null):
    assert pickle.loads(pickle.dumps(null)) is null


def test_retry_policy_defaults_to_null_metrics_across_pickling():
    clone = pickle.loads(pickle.dumps(RetryPolicy()))
    assert clone.metrics is NULL_METRICS


def _square(task):
    return task * task


def test_retry_policy_with_a_real_registry_crosses_a_process_pool():
    registry = MetricsRegistry()
    registry.inc("before")
    engine = PipelineEngine(
        workers=2,
        executor="process",
        retry=RetryPolicy(max_attempts=2, metrics=registry),
    )
    assert engine.map_reduce(_square, [1, 2, 3, 4], sum) == 30
    # Workers record into their copies; the parent's registry is intact
    # and still usable.
    registry.inc("after")
    assert registry.snapshot().counters == {"before": 1, "after": 1}


def _telemetry_parameters():
    """Every defaulted ``metrics`` / ``events`` / ``tracer`` parameter in src."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isclass(obj):
                candidates = [
                    (f"{name}.{attr}", getattr(fn, "__func__", fn))
                    for attr, fn in vars(obj).items()
                    if inspect.isfunction(getattr(fn, "__func__", fn))
                ]
            elif inspect.isfunction(obj):
                candidates = [(name, obj)]
            else:
                continue
            for qualname, fn in candidates:
                for param in inspect.signature(fn).parameters.values():
                    if param.name in ("metrics", "events", "tracer") and (
                        param.default is not inspect.Parameter.empty
                    ):
                        yield f"{info.name}.{qualname}", param


#: The one defaulted sink that stays optional: a TelemetryServer without
#: an event log answers ``/events/tail`` with 404.
OPTIONAL = {"repro.obs.export.TelemetryServer.__init__"}


def test_every_telemetry_parameter_defaults_to_a_null_sink():
    nulls = {"metrics": NULL_METRICS, "events": NULL_EVENTS, "tracer": NULL_TRACER}
    found = {}
    for where, param in _telemetry_parameters():
        if where in OPTIONAL:
            continue
        found[f"{where}({param.name}=)"] = param.default is nulls[param.name]
    assert len(found) > 30
    assert {where for where, ok in found.items() if not ok} == set()
