"""Tests for the Prometheus exposition renderer and telemetry server."""

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    EXPOSITION_CONTENT_TYPE,
    EventLog,
    MetricsRegistry,
    TelemetryServer,
    escape_label_value,
    evaluate_stats,
    format_number,
    parse_exposition,
    prometheus_name,
    render_prometheus,
    split_metric_key,
)


def _fixed_registry():
    registry = MetricsRegistry()
    registry.inc("feed.entries", 3, log="Pilot")
    registry.inc("feed.entries", 2, log="Rocketeer")
    registry.inc("feed.poll_errors", 1, log="Pilot")
    registry.set_gauge("auditor.tree_size", 42, log="Pilot")
    registry.observe("fetch.seconds", 0.5, bounds=(1.0, 2.0))
    registry.observe("fetch.seconds", 1.5, bounds=(1.0, 2.0))
    registry.observe("fetch.seconds", 5.0, bounds=(1.0, 2.0))
    return registry


GOLDEN = """\
# TYPE repro_feed_entries_total counter
repro_feed_entries_total{log="Pilot"} 3
repro_feed_entries_total{log="Rocketeer"} 2
# TYPE repro_feed_poll_errors_total counter
repro_feed_poll_errors_total{log="Pilot"} 1
# TYPE repro_auditor_tree_size gauge
repro_auditor_tree_size{log="Pilot"} 42
# TYPE repro_fetch_seconds histogram
repro_fetch_seconds_bucket{le="1"} 1
repro_fetch_seconds_bucket{le="2"} 2
repro_fetch_seconds_bucket{le="+Inf"} 3
repro_fetch_seconds_sum 7
repro_fetch_seconds_count 3
"""


def test_golden_exposition_text():
    assert render_prometheus(_fixed_registry().snapshot()) == GOLDEN


def test_render_is_deterministic():
    first = render_prometheus(_fixed_registry().snapshot())
    second = render_prometheus(_fixed_registry().snapshot())
    assert first == second


def test_empty_snapshot_renders_empty():
    assert render_prometheus(MetricsRegistry().snapshot()) == ""


def test_parse_exposition_inverts_render():
    samples = parse_exposition(GOLDEN)
    assert samples['repro_feed_entries_total{log="Pilot"}'] == 3
    assert samples['repro_fetch_seconds_bucket{le="+Inf"}'] == 3
    assert samples["repro_fetch_seconds_sum"] == 7
    # Cumulative buckets are monotone up to the +Inf bucket == _count.
    assert samples['repro_fetch_seconds_bucket{le="1"}'] <= samples[
        'repro_fetch_seconds_bucket{le="2"}'
    ]


def test_parse_exposition_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_exposition("this is { not a sample\n")
    with pytest.raises(ValueError):
        parse_exposition("# HELP something helpful\n")


def test_prometheus_name_sanitizes():
    assert prometheus_name("feed.poll_errors") == "repro_feed_poll_errors"
    assert prometheus_name("weird-name.x", prefix="") == "weird_name_x"
    assert prometheus_name("9lives", prefix="")[0] == "_"


def test_format_number():
    assert format_number(3) == "3"
    assert format_number(7.0) == "7"
    assert format_number(0.25) == "0.25"


def test_label_values_escaped():
    registry = MetricsRegistry()
    registry.inc("weird.metric", 1, log='na"me\\with\nnewline')
    text = render_prometheus(registry.snapshot())
    assert 'log="na\\"me\\\\with\\nnewline"' in text
    assert parse_exposition(text)  # still well-formed


def test_escape_label_value_order():
    # Backslashes escape first, so escaped quotes aren't double-escaped.
    assert escape_label_value('a\\"b') == 'a\\\\\\"b'
    assert escape_label_value("line\nbreak") == "line\\nbreak"


def test_split_metric_key_round_trip():
    assert split_metric_key("plain") == ("plain", {})
    assert split_metric_key("m{log=Pilot,monitor=m1}") == (
        "m",
        {"log": "Pilot", "monitor": "m1"},
    )
    # A comma inside a label value re-joins onto the preceding pair.
    assert split_metric_key("m{log=a,b}") == ("m", {"log": "a,b"})


def _random_increments(rnd):
    increments = []
    for _ in range(rnd.randint(0, 20)):
        name = rnd.choice(["a.counter", "b.feed", "c.pipeline"])
        labels = {}
        if rnd.random() < 0.7:
            labels["log"] = rnd.choice(
                ["pilot", "rocketeer", 'we"ird', "back\\slash"]
            )
        if rnd.random() < 0.3:
            labels["monitor"] = rnd.choice(["m1", "m2"])
        increments.append((name, rnd.randint(1, 5), labels))
    return increments


def _render(*streams):
    registry = MetricsRegistry()
    for stream in streams:
        for name, amount, labels in stream:
            registry.inc(name, amount, **labels)
    return parse_exposition(render_prometheus(registry.snapshot()))


def test_property_render_of_merge_sums_counter_lines():
    """Rendering one registry fed two increment streams gives the
    summed counter samples of rendering each stream alone."""
    rnd = random.Random(20180418)
    for _ in range(25):
        a, b = _random_increments(rnd), _random_increments(rnd)
        merged = _render(a, b)
        left, right = _render(a), _render(b)
        summed = {
            key: left.get(key, 0) + right.get(key, 0)
            for key in set(left) | set(right)
        }
        assert merged == summed


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


class TestTelemetryServer:
    def test_metrics_endpoint_serves_exposition(self):
        registry = _fixed_registry()
        with TelemetryServer(registry.snapshot) as server:
            status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE
        assert body == GOLDEN

    def test_health_endpoint_and_failing_is_503(self):
        healthy = evaluate_stats({"pilot": {"successes": 3, "entries": 3}})
        failing = evaluate_stats({"pilot": {"consecutive_failures": 5}})
        report = {"value": healthy}
        with TelemetryServer(
            MetricsRegistry().snapshot,
            health_source=lambda: report["value"],
        ) as server:
            status, _, body = _get(server.url + "/health")
            assert status == 200
            payload = json.loads(body)
            assert payload["overall"] == "healthy"
            assert payload["logs"]["pilot"]["verdict"] == "healthy"
            report["value"] = failing
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/health")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["overall"] == "failing"

    def test_events_tail_endpoint_serves_ndjson(self):
        events = EventLog(run_id="testrun")
        for index in range(5):
            events.emit("feed_poll", log="pilot", ok=True, entries=index)
        with TelemetryServer(
            MetricsRegistry().snapshot, events=events
        ) as server:
            status, headers, body = _get(server.url + "/events/tail?n=2")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in body.splitlines()]
        assert [line["entries"] for line in lines] == [3, 4]
        assert all(line["run"] == "testrun" for line in lines)

    def test_missing_sources_answer_404(self):
        with TelemetryServer(MetricsRegistry().snapshot) as server:
            for route in ("/health", "/events/tail", "/analytics", "/nonsense"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server.url + route)
                assert excinfo.value.code == 404

    def test_analytics_endpoint_serves_version1_json(self):
        snapshot = {
            "version": 1,
            "records_folded": 3,
            "batches_folded": 1,
            "sections": {"growth": {"CA": [["2018-04-01", 3]]}},
        }
        with TelemetryServer(
            MetricsRegistry().snapshot, analytics_source=lambda: snapshot
        ) as server:
            status, headers, body = _get(server.url + "/analytics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body.endswith("\n")
        assert json.loads(body) == snapshot
        # Deterministic rendering: keys arrive sorted.
        assert body == json.dumps(snapshot, sort_keys=True) + "\n"

    def test_analytics_source_may_return_a_to_dict_object(self):
        class Live:
            def to_dict(self):
                return {"version": 1, "sections": {}}

        with TelemetryServer(
            MetricsRegistry().snapshot, analytics_source=Live
        ) as server:
            status, _, body = _get(server.url + "/analytics")
        assert status == 200
        assert json.loads(body) == {"version": 1, "sections": {}}

    def test_analytics_reflects_source_updates_between_scrapes(self):
        state = {"version": 1, "records_folded": 0}
        with TelemetryServer(
            MetricsRegistry().snapshot, analytics_source=lambda: dict(state)
        ) as server:
            _, _, before = _get(server.url + "/analytics")
            state["records_folded"] = 42
            _, _, after = _get(server.url + "/analytics")
        assert json.loads(before)["records_folded"] == 0
        assert json.loads(after)["records_folded"] == 42

    def test_bad_tail_parameter_answers_400(self):
        with TelemetryServer(
            MetricsRegistry().snapshot, events=EventLog()
        ) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/events/tail?n=potato")
            assert excinfo.value.code == 400

    def test_ephemeral_port_and_restart_guard(self):
        server = TelemetryServer(MetricsRegistry().snapshot)
        assert server.port > 0
        assert server.url.startswith("http://127.0.0.1:")
        with server:
            with pytest.raises(RuntimeError):
                server.start()
        server.stop()  # idempotent after context exit
