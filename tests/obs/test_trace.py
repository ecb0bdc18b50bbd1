"""Unit tests for the span tracer."""

import json
import threading

from repro.obs import NULL_SPAN, NULL_TRACER, EventLog, SpanTracer, TraceContext


def test_spans_record_nesting_and_order():
    tracer = SpanTracer()
    with tracer.span("outer", shards=2):
        with tracer.span("inner-a"):
            pass
        with tracer.span("inner-b"):
            pass
    names = [span.name for span in tracer.spans]
    assert names == ["outer", "inner-a", "inner-b"]  # start order
    outer, inner_a, inner_b = tracer.spans
    assert outer.parent is None and outer.depth == 0
    assert inner_a.parent == outer.index and inner_a.depth == 1
    assert inner_b.parent == outer.index and inner_b.depth == 1
    assert outer.attrs == {"shards": 2}
    assert all(span.duration_s is not None for span in tracer.spans)
    assert outer.duration_s >= inner_a.duration_s


def test_spans_carry_trace_context():
    tracer = SpanTracer(seed=7, name="t")
    with tracer.span("outer") as outer:
        assert tracer.current_context() == outer.context
        with tracer.span("inner") as inner:
            assert inner.trace_id == outer.trace_id  # one trace
            assert inner.parent_span_id == outer.span_id
            assert tracer.current_context() == inner.context
    with tracer.span("other-root") as other:
        assert other.trace_id != outer.trace_id  # new trace
        assert other.parent_span_id is None
    assert tracer.current_context() is None
    assert tracer.spans[0].kind == "internal"


def test_seeded_ids_are_deterministic():
    first = SpanTracer(seed=11, name="same")
    second = SpanTracer(seed=11, name="same")
    other = SpanTracer(seed=11, name="different")
    for t in (first, second, other):
        with t.span("a"):
            with t.span("b"):
                pass
    assert [s.span_id for s in first.spans] == [s.span_id for s in second.spans]
    assert first.spans[0].trace_id == second.spans[0].trace_id
    assert other.spans[0].span_id != first.spans[0].span_id


def test_remote_parent_and_links():
    tracer = SpanTracer(seed=3)
    remote = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
    link = TraceContext(trace_id="12" * 16, span_id="34" * 8)
    with tracer.span("server.request", kind="server", parent=remote):
        pass
    with tracer.span("merge", kind="consumer", links=[link]) as merge:
        pass
    server = tracer.spans[0]
    assert server.trace_id == remote.trace_id
    assert server.parent_span_id == remote.span_id
    assert server.parent is None  # no *local* parent
    assert server.kind == "server"
    assert merge.links == (link.to_dict(),)


def test_span_duration_set_even_on_error():
    tracer = SpanTracer()
    try:
        with tracer.span("failing"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert tracer.spans[0].duration_s is not None
    assert tracer.current_context() is None  # stack unwound


def test_span_set_attribute():
    tracer = SpanTracer()
    with tracer.span("work") as span:
        span.set("items", 12)
    assert tracer.spans[0].attrs["items"] == 12


def test_to_json_replays_tree():
    tracer = SpanTracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    data = json.loads(tracer.to_json())
    assert [item["name"] for item in data] == ["a", "b"]
    assert data[1]["parent"] == 0
    assert data[0]["started_at"] <= data[1]["started_at"]


def test_render_indents_by_depth():
    tracer = SpanTracer()
    with tracer.span("outer", n=1):
        with tracer.span("inner"):
            pass
    lines = tracer.render().splitlines()
    assert lines[0].endswith("outer n=1")
    assert "  inner" in lines[1]
    assert "ms" in lines[0]


def test_render_uses_parent_links_not_start_order():
    # Two threads interleave: global start order is root-a, root-b,
    # child-a — start order no longer implies tree order, but the
    # rendered tree must still nest child-a under root-a.
    tracer = SpanTracer()
    started = threading.Event()
    release = threading.Event()

    def slow_root():
        with tracer.span("root-a"):
            started.set()
            release.wait(timeout=60)
            with tracer.span("child-a"):
                pass

    worker = threading.Thread(target=slow_root)
    worker.start()
    assert started.wait(timeout=60)
    with tracer.span("root-b"):
        pass
    release.set()
    worker.join(timeout=60)
    names = [span.name for span in tracer.spans]
    assert names == ["root-a", "root-b", "child-a"]  # interleaved
    lines = tracer.render().splitlines()
    assert lines[0].endswith("root-a")
    assert lines[1].endswith("  child-a")  # nested under its parent
    assert lines[2].endswith("root-b")


def test_concurrent_spans_keep_per_thread_stacks():
    # Regression: one tracer shared by many threads (the LogServer
    # middleware case) must not cross-wire parents between threads.
    tracer = SpanTracer(seed=5)
    barrier = threading.Barrier(8)
    errors = []

    def hammer(worker_id):
        try:
            barrier.wait(timeout=60)
            for i in range(25):
                with tracer.span(f"outer-{worker_id}", worker=worker_id) as outer:
                    with tracer.span(f"inner-{worker_id}-{i}") as inner:
                        assert inner.parent == outer.index
                        assert inner.parent_span_id == outer.span_id
                        assert inner.trace_id == outer.trace_id
                assert tracer.current_context() is None
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []
    assert len(tracer.spans) == 8 * 25 * 2
    assert len({span.span_id for span in tracer.spans}) == len(tracer.spans)
    assert all(span.duration_s is not None for span in tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            parent = tracer.spans[span.parent]
            # Parent/child always belong to the same worker's trace.
            assert parent.attrs["worker"] == int(span.name.split("-")[1])


def test_closed_spans_serialize_as_span_events():
    events = EventLog()
    tracer = SpanTracer(seed=9, events=events)
    with tracer.span("outer", n=1):
        with tracer.span("inner"):
            pass
    kinds = [event["kind"] for event in events.tail(10)]
    assert kinds == ["span", "span"]  # inner closes first
    inner_event, outer_event = events.tail(10)
    assert inner_event["name"] == "inner"
    assert outer_event["name"] == "outer"
    assert outer_event["span_kind"] == "internal"
    assert inner_event["parent_span_id"] == outer_event["span_id"]
    assert outer_event["attrs"] == {"n": 1}


def test_record_remote_files_and_emits():
    events = EventLog()
    worker = SpanTracer(seed=1, name="worker")
    with worker.span("storm.op", client="c1"):
        pass
    home = SpanTracer(seed=1, name="home", events=events)
    shipped = worker.to_records()
    span = home.record_remote(shipped[0])
    assert span.name == "storm.op"
    assert span.span_id == worker.spans[0].span_id
    assert home.spans[-1] is span
    assert events.tail(1)[0]["name"] == "storm.op"


def test_null_tracer_span_is_inert():
    with NULL_TRACER.span("ignored", kind="client", anything=1) as span:
        assert span is NULL_SPAN
        span.set("status", 200)
        span.name = "renamed"
        assert span.context.to_header() == ""
        assert NULL_TRACER.current_context() is None
    assert NULL_TRACER.spans == []
    assert NULL_TRACER.to_records() == []


def test_null_tracer_parents_nothing_under_a_real_tracer():
    tracer = SpanTracer()
    with tracer.span("real", kind="client"):
        with NULL_TRACER.span("ignored"):
            assert tracer.current_context() is not None
    assert [span.name for span in tracer.spans] == ["real"]
    assert tracer.spans[0].kind == "client"
