"""Tests for streaming and batch log monitors."""

from datetime import timedelta

import pytest

from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.monitor import BatchMonitor, StreamingMonitor, watch_logs
from repro.resilience import FlakyLog, RetryPolicy
from repro.util.rng import SeededRng
from repro.x509.ca import CertificateAuthority, IssuanceRequest


@pytest.fixture()
def log_with_entries(now):
    log = CTLog(name="Mon Log", operator="T", key=log_key("Mon Log", 256))
    ca = CertificateAuthority("Mon CA", key_bits=256)
    for i in range(5):
        ca.issue(
            IssuanceRequest((f"mon{i}.example",)), [log],
            now + timedelta(minutes=i),
        )
    return log


def test_streaming_latency_within_range(log_with_entries):
    monitor = StreamingMonitor("s", SeededRng(1), latency_range_s=(60, 180))
    observations = monitor.observe(log_with_entries)
    assert len(observations) == 5
    for obs in observations:
        assert 60 <= obs.latency_seconds <= 180


def test_streaming_cursor_advances(log_with_entries):
    monitor = StreamingMonitor("s", SeededRng(1))
    assert len(monitor.observe(log_with_entries)) == 5
    assert monitor.observe(log_with_entries) == []


def test_streaming_sees_only_new_entries(log_with_entries, now):
    monitor = StreamingMonitor("s", SeededRng(1))
    monitor.observe(log_with_entries)
    ca = CertificateAuthority("Late CA", key_bits=256)
    ca.issue(IssuanceRequest(("late.example",)), [log_with_entries],
             now + timedelta(hours=1))
    fresh = monitor.observe(log_with_entries)
    assert len(fresh) == 1
    assert "late.example" in fresh[0].dns_names


def test_streaming_base_offset(log_with_entries):
    slow = StreamingMonitor("slow", SeededRng(1), latency_range_s=(10, 20),
                            base_offset_s=1_000)
    for obs in slow.observe(log_with_entries):
        assert obs.latency_seconds >= 1_000


def test_batch_observes_at_next_poll_tick(log_with_entries):
    monitor = BatchMonitor("b", SeededRng(2), interval=timedelta(hours=2))
    observations = monitor.observe(log_with_entries)
    assert len(observations) == 5
    for obs in observations:
        assert obs.latency_seconds <= 2 * 3600 + monitor.processing_delay_s
        assert obs.latency_seconds > 0


def test_batch_next_poll_is_after_moment(now):
    monitor = BatchMonitor("b", SeededRng(3), interval=timedelta(hours=1))
    tick = monitor.next_poll_after(now)
    assert tick > now
    assert (tick - now) <= timedelta(hours=1)


def test_batch_polls_are_periodic(now):
    monitor = BatchMonitor("b", SeededRng(4), interval=timedelta(hours=2))
    first = monitor.next_poll_after(now)
    second = monitor.next_poll_after(first)
    # Microsecond truncation in timedelta may wobble the tick by <1 ms.
    assert abs((second - first) - timedelta(hours=2)) < timedelta(milliseconds=1)


def test_observation_exposes_dns_names(log_with_entries):
    monitor = StreamingMonitor("s", SeededRng(5))
    obs = monitor.observe(log_with_entries)[0]
    assert obs.dns_names == ["mon0.example"]
    assert obs.log_name == "Mon Log"


def test_watch_logs_sorts_by_time(log_with_entries):
    fast = StreamingMonitor("fast", SeededRng(6), latency_range_s=(1, 2))
    slow = StreamingMonitor("slow", SeededRng(7), latency_range_s=(500, 600))
    observations = watch_logs([fast, slow], [log_with_entries])
    times = [obs.observed_at for obs in observations]
    assert times == sorted(times)
    assert len(observations) == 10


# -- cursor regressions under injected failures ----------------------------


def fail_first_fetch():
    calls = {"n": 0}

    def predicate(method, _args):
        if method != "get_entries":
            return False
        calls["n"] += 1
        return calls["n"] == 1

    return predicate


def test_failed_fetch_does_not_advance_cursor(log_with_entries, now):
    flaky = FlakyLog(
        log_with_entries,
        SeededRng(8),
        failure_rate=0.0,
        fail_when=fail_first_fetch(),
    )
    monitor = StreamingMonitor("s", SeededRng(8))
    assert monitor.observe(flaky) == []  # fetch failed, cursor holds
    health = monitor.log_health()["Mon Log"]
    assert health["errors"] == 1
    assert health["cursor"] == 0

    # Every entry — including one issued after the failure — arrives
    # exactly once on the next observation.
    ca = CertificateAuthority("Late CA", key_bits=256)
    ca.issue(
        IssuanceRequest(("late.example",)), [log_with_entries],
        now + timedelta(hours=1),
    )
    fresh = monitor.observe(flaky)
    assert [obs.dns_names[0] for obs in fresh] == [
        "mon0.example", "mon1.example", "mon2.example",
        "mon3.example", "mon4.example", "late.example",
    ]
    assert monitor.observe(flaky) == []  # and never twice


def test_monitor_retry_policy_recovers(log_with_entries):
    flaky = FlakyLog(
        log_with_entries,
        SeededRng(9),
        failure_rate=1.0,
        max_consecutive=1,
        methods=("get_entries",),
    )
    monitor = StreamingMonitor(
        "s", SeededRng(9),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
    )
    assert len(monitor.observe(flaky)) == 5
    health = monitor.log_health()["Mon Log"]
    assert health["errors"] == 0
    assert health["retries"] == 1


def test_batch_monitor_counts_errors_too(log_with_entries):
    broken = FlakyLog(
        log_with_entries,
        SeededRng(10),
        failure_rate=0.0,
        fail_when=lambda method, args: method == "get_entries",
    )
    monitor = BatchMonitor("b", SeededRng(10), interval=timedelta(hours=2))
    assert monitor.observe(broken) == []
    assert monitor.observe(broken) == []
    assert monitor.log_health()["Mon Log"]["errors"] == 2


def test_cursor_exact_across_incremental_growth(log_with_entries, now):
    monitor = StreamingMonitor("s", SeededRng(11))
    seen = list(monitor.observe(log_with_entries))
    ca = CertificateAuthority("Inc CA", key_bits=256)
    for i in range(3):
        ca.issue(
            IssuanceRequest((f"inc{i}.example",)), [log_with_entries],
            now + timedelta(hours=2 + i),
        )
        seen.extend(monitor.observe(log_with_entries))
    names = [obs.dns_names[0] for obs in seen]
    assert names == [f"mon{i}.example" for i in range(5)] + [
        f"inc{i}.example" for i in range(3)
    ]
