"""One log tail, two kinds of consumer.

:class:`~repro.ct.feed.CertFeed` and the replay monitors tail logs
through the same :class:`~repro.ct.monitor.LogTail`; every test here
runs the same seeded, fault-injected run through each of them.
"""

from dataclasses import dataclass
from datetime import timedelta
from typing import Dict, List, Tuple

import pytest

from repro.ct.feed import CertFeed
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.monitor import BatchMonitor, StreamingMonitor
from repro.obs.events import EventLog, replay_metrics
from repro.obs.metrics import MetricsRegistry
from repro.resilience import FlakyLog, RetryPolicy
from repro.util.rng import SeededRng
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest

NOW = utc_datetime(2018, 5, 1, 10, 0)
ROUNDS = 10

CONSUMERS = ("feed", "streaming", "batch")

#: The counter families each consumer's tail writes (and replays).
FAMILIES = {
    "feed": ("feed.entries", "feed.poll_errors", "feed.poll_retries"),
    "streaming": ("monitor.entries", "monitor.errors", "monitor.retries"),
    "batch": ("monitor.entries", "monitor.errors", "monitor.retries"),
}

#: ``log_health()`` after the run, as the pre-``LogTail`` code printed
#: it: the feed reports its logs in the order it was given them, the
#: monitors sorted by name.
_FAULTY = {
    "cursor": 11, "entries": 11, "errors": 6, "retries": 8,
    "successes": 5, "consecutive_failures": 0,
}
_CLEAN = {
    "cursor": 11, "entries": 11, "errors": 0, "retries": 0,
    "successes": 11, "consecutive_failures": 0,
}
EXPECTED_HEALTH = {
    "feed": {"Tail B": _FAULTY, "Tail A": _CLEAN},
    "streaming": {"Tail A": _CLEAN, "Tail B": _FAULTY},
    "batch": {"Tail A": _CLEAN, "Tail B": _FAULTY},
}

#: The faulty log's (cursor, errors, successes, streak) after each
#: round, the same for every consumer and as the pre-``LogTail`` code
#: counted them.
EXPECTED_FAULTY_ROUNDS = [
    (1, 0, 1, 0), (1, 1, 1, 1), (3, 1, 2, 0), (4, 1, 3, 0),
    (4, 2, 3, 1), (4, 3, 3, 2), (4, 4, 3, 3), (4, 5, 3, 4),
    (9, 5, 4, 0), (9, 6, 4, 1), (11, 6, 5, 0),
]


@dataclass
class TailRun:
    issued: List[Tuple[str, str]]
    seen: List[List[Tuple[str, str]]]  # everything delivered, per round
    health: List[Dict[str, Dict[str, int]]]  # log_health() per round
    metrics: MetricsRegistry
    events: EventLog


def run_tail(kind: str) -> TailRun:
    """``ROUNDS`` fault-injected rounds, then one clean round."""
    log_a = CTLog(name="Tail A", operator="T", key=log_key("Tail A", 256))
    log_b = CTLog(name="Tail B", operator="T", key=log_key("Tail B", 256))
    rng = SeededRng(5, "tail")
    flaky = FlakyLog(log_b, rng, failure_rate=0.6, max_consecutive=3)
    logs = [flaky, log_a]  # not in name order
    retry = RetryPolicy(max_attempts=2, base_delay_s=0.0, rng=rng.fork("retry"))
    metrics, events = MetricsRegistry(), EventLog()
    seen: List[Tuple[str, str]] = []
    if kind == "feed":
        consumer = CertFeed(logs, retry=retry, metrics=metrics, events=events)
        consumer.subscribe(
            "tail", lambda event: seen.append((event.log_name, event.dns_names[0]))
        )
        poll = consumer.run_once
    else:
        monitor_cls = StreamingMonitor if kind == "streaming" else BatchMonitor
        consumer = monitor_cls(
            "tail", rng.fork(kind), retry=retry, metrics=metrics, events=events
        )

        def poll(_when):
            for log in logs:
                seen.extend(
                    (obs.log_name, obs.dns_names[0]) for obs in consumer.observe(log)
                )

    ca = CertificateAuthority("Tail CA", key_bits=256)
    run = TailRun([], [], [], metrics, events)
    for round_no in range(ROUNDS + 1):
        when = NOW + timedelta(minutes=round_no)
        if round_no == ROUNDS:
            flaky.failure_rate = 0.0  # the clean round drains everything
        for log in logs:
            name = f"r{round_no}.{log.name[-1].lower()}.example"
            ca.issue(IssuanceRequest((name,)), [log], when)
            run.issued.append((log.name, name))
        poll(when)
        run.seen.append(list(seen))
        run.health.append(consumer.log_health())
    return run


@pytest.fixture(scope="module", params=CONSUMERS)
def tail_run(request):
    return request.param, run_tail(request.param)


def _per_log(pairs, log_name):
    return [name for log, name in pairs if log == log_name]


def test_cursor_never_skips(tail_run):
    _, run = tail_run
    for log_name in ("Tail A", "Tail B"):
        issued = _per_log(run.issued, log_name)
        for seen in run.seen:
            delivered = _per_log(seen, log_name)
            # Always a prefix of what was issued: in order, no gaps.
            assert delivered == issued[: len(delivered)]
        # The clean round delivers everything exactly once.
        assert _per_log(run.seen[-1], log_name) == issued
    assert run.health[-1]["Tail B"]["cursor"] == ROUNDS + 1


def test_failure_streak_resets_after_success(tail_run):
    _, run = tail_run
    previous = dict.fromkeys(("errors", "successes", "consecutive_failures"), 0)
    resets = 0
    for health in run.health:
        stats = health.get("Tail B", previous)
        if stats["successes"] > previous["successes"]:
            assert stats["consecutive_failures"] == 0
            resets += previous["consecutive_failures"] > 0
        elif stats["errors"] > previous["errors"]:
            assert (
                stats["consecutive_failures"]
                == previous["consecutive_failures"] + 1
            )
        previous = stats
    assert resets, "the run never recovered from a failure"


def test_log_health_matches_the_pre_tail_output(tail_run):
    kind, run = tail_run
    health = run.health[-1]
    assert health == EXPECTED_HEALTH[kind]
    assert list(health) == list(EXPECTED_HEALTH[kind])
    for stats in health.values():
        assert list(stats) == list(_CLEAN)
    fields = ("cursor", "errors", "successes", "consecutive_failures")
    assert [
        tuple(round_health["Tail B"][field] for field in fields)
        for round_health in run.health
    ] == EXPECTED_FAULTY_ROUNDS


def test_replayed_events_equal_the_snapshot_counters(tail_run):
    kind, run = tail_run
    families = FAMILIES[kind]

    def tail_counters(counters):
        return {
            key: value
            for key, value in counters.items()
            if key.split("{")[0] in families
        }

    snapshot = tail_counters(run.metrics.snapshot().counters)
    assert tail_counters(replay_metrics(run.events.tail(10_000)).counters) == snapshot
    # Every family was exercised.
    assert {key.split("{")[0] for key in snapshot} == set(families)
