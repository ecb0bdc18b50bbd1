"""Live telemetry: scrape a *running* monitoring loop over HTTP.

The acceptance bar for the live-export layer: while a feed loop is
mid-run, ``GET /metrics`` serves valid Prometheus exposition text,
``GET /health`` answers with per-log SLO verdicts, ``GET /events/tail``
streams the most recent events — and once the loop finishes, replaying
the event log reproduces the final snapshot's counters exactly.
"""

import json
import os
import threading
import urllib.request
from datetime import timedelta

import pytest

from repro.ct.feed import CertFeed
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    MetricsRegistry,
    TelemetryServer,
    parse_exposition,
    replay_metrics,
)
from repro.pipeline import PipelineEngine
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)

# CI's telemetry-smoke job pins one executor per matrix leg via
# REPRO_EXECUTOR; locally both run.
EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def test_scrape_feed_loop_while_running():
    logs = [
        CTLog(name="Live A", operator="T", key=log_key("Live A", 256)),
        CTLog(name="Live B", operator="T", key=log_key("Live B", 256)),
    ]
    ca = CertificateAuthority("Live CA", key_bits=256)
    metrics = MetricsRegistry()
    events = EventLog()
    feed = CertFeed(
        logs, metrics=metrics, events=events, flush_interval_s=0.0
    )
    feed.subscribe("sink", lambda event: None)

    # The registry is not thread-safe; the loop and the scrape handlers
    # share one lock, exactly as a real loop owner would wire it.
    lock = threading.Lock()
    mid_loop = threading.Event()
    scraped = threading.Event()
    rounds = 12

    def loop():
        for round_no in range(rounds):
            when = NOW + timedelta(minutes=round_no)
            with lock:
                for log in logs:
                    ca.issue(
                        IssuanceRequest((f"r{round_no}.live.example",)),
                        [log],
                        when,
                    )
                feed.run_once(when)
            if round_no == rounds // 2:
                mid_loop.set()
                scraped.wait(timeout=30)
        with lock:
            feed.flush_telemetry()

    def locked_snapshot():
        with lock:
            return metrics.snapshot()

    def locked_health():
        with lock:
            return feed.health_report()

    worker = threading.Thread(target=loop)
    with TelemetryServer(
        locked_snapshot, health_source=locked_health, events=events
    ) as server:
        worker.start()
        try:
            assert mid_loop.wait(timeout=30), "loop never reached midpoint"
            # --- scrape /metrics mid-run: valid, non-trivial exposition
            status, text = _get(server.url + "/metrics")
            assert status == 200
            samples = parse_exposition(text)  # raises on malformed lines
            live_entries = sum(
                value for key, value in samples.items()
                if key.startswith("repro_feed_entries_total")
            )
            assert 0 < live_entries < 2 * rounds  # genuinely mid-run
            # --- /health mid-run: all logs answering -> healthy
            status, body = _get(server.url + "/health")
            assert status == 200
            health = json.loads(body)
            assert health["overall"] == "healthy"
            assert set(health["logs"]) == {"Live A", "Live B"}
            # --- /events/tail mid-run: NDJSON of the latest events
            status, body = _get(server.url + "/events/tail?n=4")
            assert status == 200
            tail = [json.loads(line) for line in body.splitlines()]
            assert len(tail) == 4
            assert all(event["v"] == EVENT_SCHEMA_VERSION for event in tail)
        finally:
            scraped.set()
            worker.join(timeout=60)
        assert not worker.is_alive()

        # --- after the loop: final scrape equals the final snapshot
        status, text = _get(server.url + "/metrics")
        final = parse_exposition(text)
        assert final[
            'repro_feed_entries_total{log="Live A"}'
        ] == rounds

    # --- replay equality: the event stream IS the counter history
    replayed = replay_metrics(events.tail(100_000)).counters
    counters = metrics.snapshot().counters
    for family in ("feed.entries", "feed.poll_errors", "feed.poll_retries"):
        expected = {
            key: value for key, value in counters.items()
            if key.startswith(family)
        }
        got = {
            key: value for key, value in replayed.items()
            if key.startswith(family)
        }
        assert got == expected, family
    # ...and the flushed deltas sum to the same counters.
    flushed = {}
    for event in events.tail(100_000):
        if event["kind"] != "metrics_flush":
            continue
        for key, moved in event["counters"].items():
            flushed[key] = flushed.get(key, 0) + moved
    assert flushed == counters


def _square(n):
    return n * n


@pytest.mark.parametrize("executor", EXECUTORS)
def test_scrape_engine_run(executor):
    """The engine's registry is scrapeable after a real parallel run."""
    metrics = MetricsRegistry()
    events = EventLog()
    engine = PipelineEngine(
        workers=2,
        shard_size=64,
        executor=executor,
        metrics=metrics,
        events=events,
    )
    squares = engine.map(_square, list(range(1_000)))
    assert squares == [n * n for n in range(1_000)]
    with TelemetryServer(metrics.snapshot, events=events) as server:
        status, text = _get(server.url + "/metrics")
        assert status == 200
        samples = parse_exposition(text)
        planned = samples["repro_pipeline_shards_planned_total"]
        assert planned == samples["repro_pipeline_shards_completed_total"]
        assert planned > 1
    replayed = replay_metrics(events.tail(10_000)).counters
    assert replayed["pipeline.shards_planned"] == planned
    assert replayed["pipeline.shards_completed"] == planned
