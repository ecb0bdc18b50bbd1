"""End-to-end distributed tracing across the HTTP boundary.

A seeded storm with tracing on runs against a live sequencer-backed
:class:`~repro.ct.server.LogServer`; the trace context crosses the
wire in the ``X-Repro-Traceparent`` header, the sequencer links every
merge back to the submissions it folded, and a traced light-weight
monitor closes the loop.  From span events alone we must be able to
rebuild every certificate's full lifecycle — submit → SCT → merge →
inclusion → detection — with zero orphan spans, and replaying the
event log must rebuild an identical :class:`~repro.obs.TraceStore`.
"""

import json
import urllib.error
import urllib.request
from datetime import datetime, timezone

import pytest

from repro.ct.monitor import HttpTransport, LightweightMonitor
from repro.obs import (
    EventLog,
    SpanTracer,
    TelemetryServer,
    TraceStore,
    certificate_lifecycles,
    render_lifecycles,
)
from repro.workloads.loadgen import LoadStormConfig
from repro.workloads.scenario import Scenario

SEED = 2018
SCENARIO = Scenario(
    log_entries=4,
    storm=LoadStormConfig(seed=SEED, browsers=2, monitors=1, submitters=2),
    merge_interval=0.05,
)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read().decode("utf-8"))


@pytest.fixture(scope="module")
def traced_run():
    """One traced storm + monitor poll, shared across the module."""
    events = EventLog(tail_size=16384)
    tracer = SpanTracer(seed=SEED, name="lifecycle", events=events)
    with SCENARIO.serve(events=events, tracer=tracer) as world:
        report = world.storm()
        # The monitor watches every claimed name; lifecycles key off
        # each certificate's primary (first) name, the ``www.``-less one.
        names = world.submitted_domains()
        monitor = LightweightMonitor(
            "itest-monitor", names, key=world.log.key, tracer=tracer
        )
        transport = HttpTransport(
            world.url,
            world.log.name,
            timeout=30.0,
            client_id="itest-monitor",
            tracer=tracer,
        )
        monitor.poll(transport, datetime.now(timezone.utc))
    return {
        "store": world.trace_store,
        "events": events,
        "report": report,
        "submitted": [name for name in names if not name.startswith("www.")],
    }


class TestCrossBoundaryAssembly:
    def test_no_orphan_spans(self, traced_run):
        # Every server-side span's parent must resolve to a shipped
        # client span in the same trace: the header crossed the wire.
        assert traced_run["store"].orphan_spans() == []

    def test_server_spans_parented_by_client_spans(self, traced_run):
        store = traced_run["store"]
        spans = store.all_spans()
        by_id = {
            (s["trace_id"], s["span_id"]): s for s in spans
        }
        server_spans = [s for s in spans if s["kind"] == "server"]
        assert server_spans, "storm produced no server spans"
        for span in server_spans:
            parent = by_id[(span["trace_id"], span["parent_span_id"])]
            assert parent["kind"] == "client"

    def test_merge_spans_link_submissions(self, traced_run):
        spans = traced_run["store"].all_spans()
        merges = [s for s in spans if s["name"] == "sequencer.merge"]
        assert merges, "sequencer never merged under a span"
        linked = {
            (link["trace_id"], link["span_id"])
            for merge in merges
            for link in merge["links"]
        }
        submissions = {
            (s["trace_id"], s["span_id"])
            for s in spans
            if s["name"] == "server.add-pre-chain"
        }
        assert linked == submissions

    def test_replay_rebuilds_identical_store(self, traced_run):
        events = traced_run["events"]
        replayed = TraceStore.from_events(events.tail(events.emitted))
        assert replayed == traced_run["store"]

    def test_every_submitted_domain_completes_the_chain(self, traced_run):
        lifecycles = certificate_lifecycles(traced_run["store"])
        assert [item["domain"] for item in lifecycles] == traced_run[
            "submitted"
        ]
        for item in lifecycles:
            assert item["complete"], item
            # Timeline is causally ordered within each certificate.
            assert 0.0 <= item["sct_ms"] <= item["inclusion_ms"]
            assert item["merge_ms"] <= item["inclusion_ms"]
            assert item["detection_ms"] >= 0.0

    def test_render_mentions_every_domain(self, traced_run):
        lifecycles = certificate_lifecycles(traced_run["store"])
        text = render_lifecycles(lifecycles)
        for domain in traced_run["submitted"]:
            assert domain in text
        count = len(lifecycles)
        assert f"{count}/{count} certificates completed" in text

    def test_storm_results_unaffected_by_tracing(self, traced_run):
        # Tracing observes the storm, it does not change it.
        report = traced_run["report"]
        assert all(result.errors == [] for result in report.results)
        assert all(
            op.status == 200 for result in report.results for op in result.ops
        )


class TestSpansEndpoint:
    def test_without_trace_source_404s(self):
        with TelemetryServer(lambda: {}) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/spans")
            assert excinfo.value.code == 404

    def test_summary_and_per_trace_fetch(self, traced_run):
        store = traced_run["store"]
        with TelemetryServer(lambda: {}, trace_source=lambda: store) as server:
            summary = _get(server.url + "/spans")
            listed = {row["trace_id"]: row["spans"] for row in summary["traces"]}
            assert sorted(listed) == list(store.trace_ids())
            trace_id = store.trace_ids()[0]
            payload = _get(server.url + "/spans?trace_id=" + trace_id)
            assert payload["trace_id"] == trace_id
            assert payload["spans"] == store.spans_for(trace_id)
            assert len(payload["spans"]) == listed[trace_id]

    def test_unknown_trace_id_404s(self, traced_run):
        store = traced_run["store"]
        with TelemetryServer(lambda: {}, trace_source=lambda: store) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/spans?trace_id=" + "f" * 32)
            assert excinfo.value.code == 404
