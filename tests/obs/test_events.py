"""Tests for the structured event log, replay, and delta flushing."""

import base64
import json
import random
import sys
import threading
from collections import Counter
from datetime import timedelta

import pytest

from repro.ct.auditor import LogAuditor
from repro.ct.feed import CertFeed
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.monitor import LightweightMonitor, StreamingMonitor
from repro.ct.sequencer import LogSequencer
from repro.ct.server import LogServer
from repro.ct.storage import certificate_to_dict
from repro.obs import (
    EVENT_KINDS,
    EVENT_METRICS,
    EVENT_SCHEMA_VERSION,
    EventLog,
    MetricsRegistry,
    MetricsSnapshot,
    SnapshotDeltaFlusher,
    counter_delta,
    new_run_id,
    read_events,
    record,
    replay_metrics,
)
from repro.obs.events import ENVELOPE_FIELDS
from tests.obs.derived import FAMILIES, derived, families
from repro.pipeline import PipelineEngine
from repro.resilience import FlakyLog, RetryPolicy, TransientLogError
from repro.util.rng import SeededRng
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)


class TestEventLog:
    def test_envelope_fields_and_gapless_seq(self):
        events = EventLog(run_id="abc", clock=lambda: 12.3456789)
        first = events.emit("run_start", artifact="fig1a")
        second = events.emit("run_finish", ok=True)
        assert first["v"] == EVENT_SCHEMA_VERSION == 2
        assert first["run"] == "abc"
        assert first["ts"] == 12.345679  # rounded to microseconds
        assert [first["seq"], second["seq"]] == [0, 1]
        assert events.emitted == 2
        assert list(first)[: len(ENVELOPE_FIELDS)] == list(ENVELOPE_FIELDS)

    def test_emit_rejects_envelope_shadowing(self):
        events = EventLog()
        with pytest.raises(ValueError, match="shadow"):
            events.emit("run_start", seq=99)

    def test_jsonl_file_is_flushed_live(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path, run_id="live") as events:
            events.emit("feed_poll", log="pilot", ok=True, entries=2)
            # Readable *before* close: each line is flushed as written.
            live = read_events(path)
            assert len(live) == 1
            assert live[0]["kind"] == "feed_poll"
            events.emit("feed_poll", log="pilot", ok=False, error="boom")
        replayed = read_events(path)
        assert [event["seq"] for event in replayed] == [0, 1]
        assert replayed == events.tail(10)

    def test_tail_ring_buffer(self):
        events = EventLog(tail_size=3)
        for index in range(5):
            events.emit("feed_poll", log="pilot", ok=True, entries=index)
        tail = events.tail(10)
        assert [event["entries"] for event in tail] == [2, 3, 4]
        assert [event["entries"] for event in events.tail(2)] == [3, 4]
        assert events.tail(0) == []
        with pytest.raises(ValueError):
            events.tail(-1)
        with pytest.raises(ValueError):
            EventLog(tail_size=0)

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()
        assert len(new_run_id()) == 12


def test_event_kinds_are_stable():
    # Removing or renaming a kind is a schema break; additions append.
    assert set(EVENT_KINDS) >= {
        "run_start", "run_finish", "map_start", "map_finish",
        "shard_finish", "shard_failed", "checkpoint_resume", "degraded",
        "feed_poll", "monitor_fetch", "auditor_poll", "audit_finding",
        "metrics_flush",
    }


def _counters(snapshot, prefix):
    return {
        key: value
        for key, value in snapshot.counters.items()
        if key.startswith(prefix)
    }


class TestReplayEquality:
    """Events mirror metric increments: replay == final snapshot."""

    def _world(self):
        log_a = CTLog(name="Replay A", operator="T", key=log_key("Replay A", 256))
        log_b = CTLog(name="Replay B", operator="T", key=log_key("Replay B", 256))
        rng = SeededRng(3, "replay")
        flaky = FlakyLog(log_b, rng, failure_rate=0.6, max_consecutive=1)
        ca = CertificateAuthority("Replay CA", key_bits=256)
        return log_a, flaky, ca, rng

    def test_feed_replay_matches_snapshot(self):
        log_a, flaky, ca, rng = self._world()
        metrics = MetricsRegistry()
        events = EventLog()
        feed = CertFeed(
            [log_a, flaky],
            retry=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, rng=rng.fork("retry")
            ),
            metrics=metrics,
            events=events,
        )
        for round_no in range(8):
            when = NOW + timedelta(minutes=round_no)
            ca.issue(IssuanceRequest((f"r{round_no}.example",)), [log_a], when)
            ca.issue(IssuanceRequest((f"f{round_no}.example",)), [flaky], when)
            feed.poll(when)
        replayed = replay_metrics(events.tail(10_000)).counters
        snapshot = metrics.snapshot()
        assert _counters(snapshot, "feed.entries") == {
            key: value
            for key, value in replayed.items()
            if key.startswith("feed.entries")
        }
        for family in ("feed.poll_errors", "feed.poll_retries"):
            assert _counters(snapshot, family) == {
                key: value
                for key, value in replayed.items()
                if key.startswith(family)
            }, family
        # The run actually exercised both outcomes.
        assert any(key.startswith("feed.entries") for key in replayed)

    def test_monitor_replay_matches_snapshot(self):
        log_a, flaky, ca, rng = self._world()
        metrics = MetricsRegistry()
        events = EventLog()
        monitor = StreamingMonitor(
            "certstream",
            rng,
            retry=RetryPolicy(
                max_attempts=2, base_delay_s=0.0, rng=rng.fork("mon-retry")
            ),
            metrics=metrics,
            events=events,
        )
        for round_no in range(8):
            when = NOW + timedelta(minutes=round_no)
            ca.issue(IssuanceRequest((f"m{round_no}.example",)), [flaky], when)
            monitor.observe(flaky)
            ca.issue(IssuanceRequest((f"n{round_no}.example",)), [log_a], when)
            monitor.observe(log_a)
        replayed = replay_metrics(events.tail(10_000)).counters
        snapshot = metrics.snapshot()
        monitor_families = {
            key: value
            for key, value in replayed.items()
            if key.startswith("monitor.")
        }
        assert monitor_families == _counters(snapshot, "monitor.")

    def test_pipeline_replay_matches_snapshot(self):
        metrics = MetricsRegistry()
        events = EventLog()
        engine = PipelineEngine(
            workers=1, shard_size=4, metrics=metrics, events=events
        )
        results = engine.map(_double, list(range(17)))
        assert results == [2 * n for n in range(17)]
        replayed = replay_metrics(events.tail(10_000)).counters
        snapshot = metrics.snapshot()
        for family in (
            "pipeline.shards_planned",
            "pipeline.shards_completed",
            "pipeline.shard_attempts",
        ):
            assert replayed.get(family) == snapshot.counters.get(family), family
        kinds = [event["kind"] for event in events.tail(100)]
        assert kinds[0] == "map_start"
        assert kinds[-1] == "map_finish"


def _double(n):
    return 2 * n


class _FlakyDouble:
    """Doubles ``n``; shard 2 fails once, shard 3 always."""

    def __init__(self):
        self.calls = Counter()

    def __call__(self, n):
        self.calls[n] += 1
        if n == 3 or (n == 2 and self.calls[n] == 1):
            raise TransientLogError(f"shard {n} failed")
        return 2 * n


class _ResumedCheckpoint:
    """A checkpoint that already holds shard 0."""

    def completed(self):
        return {0: 0}

    def record(self, index, payload, *, attempts=1):
        pass

    def record_degraded(self, report):
        pass


def _submit(server, ca, log, name):
    pair = ca.issue(IssuanceRequest((name,)), [log], NOW)
    body = {
        "chain": [certificate_to_dict(pair.precertificate)],
        "issuer_key_hash": base64.b64encode(ca.issuer_key_hash).decode(),
    }
    return server.handle_request(
        "POST", "/ct/v1/add-pre-chain", "", json.dumps(body).encode()
    )[0]


def test_every_derived_counter_replays_from_one_world():
    """One run through every kind :data:`EVENT_METRICS` derives from:
    the replayed events equal the snapshot on every family it names,
    counters, gauges and histograms alike."""
    metrics, events = MetricsRegistry(), EventLog()
    rng = SeededRng(5, "parity")
    ca = CertificateAuthority("Parity CA", key_bits=256)
    scratch = CTLog(name="Parity Scratch", operator="T", key=log_key("S", 256))

    # A feed and a replay monitor over a flaky log.
    tailed = CTLog(name="Parity Tail", operator="T", key=log_key("T", 256))
    flaky = FlakyLog(tailed, rng, failure_rate=0.6, max_consecutive=3)
    retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, rng=rng.fork("retry"))
    feed = CertFeed([flaky], retry=retry, metrics=metrics, events=events)
    monitor = StreamingMonitor(
        "stream", rng.fork("monitor"), retry=retry, metrics=metrics, events=events
    )
    for round_no in range(10):
        when = NOW + timedelta(minutes=round_no)
        ca.issue(IssuanceRequest((f"t{round_no}.watched.example",)), [flaky], when)
        feed.poll(when)
        monitor.observe(flaky)

    # A light-weight monitor that matches entries, and one that finds
    # a head signed by another key.
    for key in (tailed.key, scratch.key):
        LightweightMonitor(
            "light", ["watched.example"], key=key, metrics=metrics, events=events
        ).poll(tailed, NOW)

    # An auditor polling the tailed log's head.
    LogAuditor(tailed, metrics=metrics, events=events).poll(NOW)

    # A log server answering 200, 429 and 410 in-process.
    capped = CTLog(
        name="Parity Capped", operator="T", key=log_key("C", 256),
        capacity_per_day=1, strict_capacity=True,
    )
    server = LogServer(capped, clock=lambda: NOW, metrics=metrics, events=events)
    statuses = [_submit(server, ca, scratch, f"s{i}.example") for i in range(2)]
    capped.disqualify()
    statuses.append(_submit(server, ca, scratch, "s2.example"))
    assert statuses == [200, 429, 410]

    # A sequencer merge.
    sequencer = LogSequencer(
        CTLog(name="Parity Seq", operator="T", key=log_key("Q", 256)),
        clock=lambda: NOW,
        metrics=metrics,
        events=events,
    )
    for i in range(3):
        pair = ca.issue(IssuanceRequest((f"q{i}.example",)), [scratch], NOW)
        sequencer.submit_pre_chain(pair.precertificate, ca.issuer_key_hash, NOW)
    sequencer.merge(NOW)

    # A degraded pipeline run, resumed from a checkpoint, with one
    # retried and one failing shard.
    engine = PipelineEngine(
        shard_size=1,
        executor="serial",
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, rng=rng.fork("map")),
        on_error="degrade",
        metrics=metrics,
        events=events,
    )
    mapped = engine.map(
        _FlakyDouble(), [0, 1, 2, 3], checkpoint=_ResumedCheckpoint()
    )
    assert list(mapped) == [0, 2, 4, None]

    snapshot = derived(metrics.snapshot())
    assert derived(replay_metrics(events.tail(10_000))) == snapshot
    # The world moved every family the table names.
    assert families(snapshot) == FAMILIES


class TestDeltaFlushing:
    def test_counter_delta(self):
        old = MetricsSnapshot(counters={"a": 1, "b": 2})
        new = MetricsSnapshot(counters={"a": 4, "b": 2, "c": 7})
        assert counter_delta(old, new) == {"a": 3, "c": 7}

    def test_interval_gating_with_fake_clock(self):
        metrics = MetricsRegistry()
        events = EventLog()
        tick = {"now": 0.0}
        flusher = SnapshotDeltaFlusher(
            metrics, events, interval_s=5.0, clock=lambda: tick["now"]
        )
        metrics.inc("feed.entries", 2, log="pilot")
        tick["now"] = 1.0
        assert flusher.maybe_flush() is False
        tick["now"] = 6.0
        assert flusher.maybe_flush() is True
        assert flusher.maybe_flush() is False  # interval restarts
        flushes = [
            event for event in events.tail(10)
            if event["kind"] == "metrics_flush"
        ]
        assert len(flushes) == 1
        assert flushes[0]["counters"] == {"feed.entries{log=pilot}": 2}

    def test_flushed_deltas_sum_to_final_counters(self):
        metrics = MetricsRegistry()
        events = EventLog()
        flusher = SnapshotDeltaFlusher(metrics, events, interval_s=0.0)
        for round_no in range(5):
            metrics.inc("feed.entries", round_no + 1, log="pilot")
            if round_no % 2 == 0:
                metrics.inc("feed.poll_errors", 1, log="other")
            flusher.maybe_flush()
        totals = {}
        for event in events.tail(100):
            for key, moved in event["counters"].items():
                totals[key] = totals.get(key, 0) + moved
        assert totals == metrics.snapshot().counters

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            SnapshotDeltaFlusher(MetricsRegistry(), EventLog(), interval_s=-1)

    def test_feed_wires_flusher_and_final_flush(self):
        log_a = CTLog(name="Flush A", operator="T", key=log_key("Flush A", 256))
        ca = CertificateAuthority("Flush CA", key_bits=256)
        metrics = MetricsRegistry()
        events = EventLog()
        feed = CertFeed(
            [log_a], metrics=metrics, events=events, flush_interval_s=0.0
        )
        ca.issue(IssuanceRequest(("flush.example",)), [log_a], NOW)
        feed.poll(NOW)
        assert feed.flush_telemetry() is True
        totals = {}
        for event in events.tail(100):
            if event["kind"] != "metrics_flush":
                continue
            for key, moved in event["counters"].items():
                totals[key] = totals.get(key, 0) + moved
        assert totals == metrics.snapshot().counters

    def test_feed_flush_interval_requires_events_and_metrics(self):
        log_a = CTLog(name="Flush B", operator="T", key=log_key("Flush B", 256))
        with pytest.raises(ValueError, match="flush_interval_s"):
            CertFeed([log_a], flush_interval_s=1.0)
        feed = CertFeed([log_a])
        assert feed.flush_telemetry() is False


def _random_fields(rng):
    """Every field any :data:`EVENT_METRICS` rule reads, at random."""
    return {
        "log": rng.choice(("a", "b")),
        "monitor": rng.choice(("m1", "m2")),
        "endpoint": rng.choice(("get-sth", "get-entries")),
        "status": rng.choice((200, 400)),
        "finding": "split-view",
        "shard": rng.randrange(3),
        "ok": rng.random() < 0.7,
        "attempts": rng.randint(1, 3),
        "hit_rate": rng.random(),
        **{
            field: rng.randrange(50)
            for field in (
                "entries", "retried", "wire_entries", "wire_bytes",
                "matches", "tree_size", "batch", "shards",
            )
        },
        **{
            field: round(rng.uniform(0, 80), 3)
            for field in ("duration_ms", "max_lag_ms", "queue_wait_ms")
        },
    }


def test_threads_recording_one_stream_replay_it_exactly(tmp_path):
    """Four threads record random events into one registry and one
    event file; the file replays to the registry's snapshot, float
    sums and last gauge writes included."""
    metrics, path = MetricsRegistry(), tmp_path / "events.jsonl"
    kinds = sorted(EVENT_METRICS)

    def work(seed):
        rng = random.Random(seed)
        for _ in range(300):
            record(metrics, events, rng.choice(kinds), **_random_fields(rng))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads often
    try:
        with EventLog(path) as events:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(read_events(path)) == 4 * 300
    snapshot = derived(metrics.snapshot())
    assert derived(replay_metrics(read_events(path))) == snapshot
    assert families(snapshot) == FAMILIES
