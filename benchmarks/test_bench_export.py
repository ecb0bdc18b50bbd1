"""Cost of live telemetry export: events + interval flushing vs off.

Two identical end-to-end monitoring loops (issue certificates into a
pair of logs, poll the feed, fan entries out to a subscriber) run
round by round; one bare, one with the full live-export stack
attached — a metrics registry, a JSONL event log on disk (flushed per
line), and a zero-interval snapshot-delta flusher (one
``metrics_flush`` per poll, the worst case).  The gate: live export
must cost < ``OVERHEAD_CEILING`` over the bare loop.  The artifact
records the timings plus the event/flush volume.
"""

import time
from datetime import timedelta

from conftest import record_artifact

from repro.ct.feed import CertFeed
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.obs import EventLog, MetricsRegistry, replay_metrics
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)
ROUNDS = 30
CERTS_PER_LOG = 4
REPEATS = 3
OVERHEAD_CEILING = 0.05


def _build_world(tag):
    logs = [
        CTLog(
            name=f"Bench {tag} {suffix}",
            operator="T",
            key=log_key(f"Bench {tag} {suffix}", 256),
        )
        for suffix in ("A", "B")
    ]
    ca = CertificateAuthority(f"Bench CA {tag}", key_bits=256)
    return logs, ca


def _run_loop(feed, logs, ca):
    """One full monitoring loop: issue, poll, fan out — all timed."""
    seen = []
    feed.subscribe("sink", lambda event: seen.append(len(event.dns_names)))
    started = time.perf_counter()
    for round_no in range(ROUNDS):
        when = NOW + timedelta(minutes=round_no)
        for log in logs:
            for cert_no in range(CERTS_PER_LOG):
                ca.issue(
                    IssuanceRequest(
                        (
                            f"r{round_no}c{cert_no}.bench.example",
                            f"www.r{round_no}c{cert_no}.bench.example",
                        )
                    ),
                    [log],
                    when,
                )
        feed.run_once(when)
    feed.flush_telemetry()
    spent = time.perf_counter() - started
    assert len(seen) == ROUNDS * CERTS_PER_LOG * len(logs)
    return spent


def test_bench_live_export_overhead(request, tmp_path):
    runs = []
    for repeat in range(REPEATS):
        base_logs, base_ca = _build_world(f"off{repeat}")
        bare = CertFeed(base_logs)
        bare_seconds = _run_loop(bare, base_logs, base_ca)

        live_logs, live_ca = _build_world(f"on{repeat}")
        metrics = MetricsRegistry()
        events = EventLog(tmp_path / f"bench-events-{repeat}.jsonl")
        live = CertFeed(
            live_logs,
            metrics=metrics,
            events=events,
            flush_interval_s=0.0,  # flush every poll: worst case
        )
        live_seconds = _run_loop(live, live_logs, live_ca)
        events.close()
        runs.append((bare_seconds, live_seconds, metrics, events))

    # The live stream is complete: replay == final snapshot counters.
    _, _, metrics, events = runs[-1]
    replayed = replay_metrics(events.tail(100_000)).counters
    counters = metrics.snapshot().counters
    assert {
        key: value
        for key, value in replayed.items()
        if key.startswith("feed.entries")
    } == {
        key: value
        for key, value in counters.items()
        if key.startswith("feed.entries")
    }
    assert events.emitted > ROUNDS  # per-poll events plus flushes

    # Min over repeats: scheduler noise only ever inflates a run.
    overhead = min(
        live_seconds / bare_seconds - 1.0
        for bare_seconds, live_seconds, _, _ in runs
    )
    bare_best = min(run[0] for run in runs)
    live_best = min(run[1] for run in runs)

    smoke = request.config.getoption("--benchmark-disable", default=False)
    if not smoke:
        assert overhead < OVERHEAD_CEILING, (
            f"live export overhead {overhead:.1%} exceeds the "
            f"{OVERHEAD_CEILING:.0%} ceiling"
        )

    entries = ROUNDS * CERTS_PER_LOG * 2
    lines = [
        f"Live telemetry export — {ROUNDS} poll rounds, {entries} entries, "
        f"flush every poll",
        f"  telemetry off  {bare_best * 1e3:8.2f} ms",
        f"  telemetry on   {live_best * 1e3:8.2f} ms   "
        f"({events.emitted} events, {overhead:+.1%})",
        f"  ceiling        {OVERHEAD_CEILING:.0%}",
    ]
    record_artifact(
        "export",
        "\n".join(lines),
        data={
            "rounds": ROUNDS,
            "entries": entries,
            "repeats": REPEATS,
            "bare_seconds": bare_best,
            "live_seconds": live_best,
            "overhead": overhead,
            "ceiling": OVERHEAD_CEILING,
            "events_emitted": events.emitted,
        },
    )
