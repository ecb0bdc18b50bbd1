"""Verifiable light-weight monitoring (Dahlberg & Pulls).

A :class:`~repro.ct.monitor.LightweightMonitor` subscribes to a domain
set and per poll verifies the STH, walks signed batch digests, and
fetches *only* matching entry bodies plus their inclusion proofs.  The
suites here pin the two halves of that claim: nothing subscribed is
ever missed, and nothing unsubscribed is ever downloaded.
"""

from dataclasses import replace
from datetime import timedelta

import pytest

from repro.ct.auditor import make_split_view_log
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.monitor import (
    HttpTransport,
    InMemoryTransport,
    LightweightMonitor,
    domain_matches,
)
from repro.ct.sequencer import LogSequencer
from repro.ct.server import LogServer
from repro.obs import EventLog, MetricsRegistry, replay_metrics
from repro.x509.ca import CertificateAuthority, IssuanceRequest


@pytest.fixture()
def log(now):
    log = CTLog(name="LW Log", operator="T", key=log_key("LW Log", 256))
    ca = CertificateAuthority("LW CA", key_bits=256)
    # Two subscribed entries among ten.
    for i in range(10):
        name = (
            f"shop{i}.watched.example" if i in (3, 7)
            else f"other{i}.example"
        )
        ca.issue(
            IssuanceRequest((name,)), [log], now + timedelta(minutes=i)
        )
    return log


def grow(log, names, start):
    ca = CertificateAuthority("LW Late CA", key_bits=256)
    for i, name in enumerate(names):
        ca.issue(
            IssuanceRequest((name,)), [log], start + timedelta(minutes=i)
        )


def _precerts(count, tag, now):
    ca = CertificateAuthority(f"LW Submit CA {tag}", key_bits=256)
    scratch = CTLog(
        name=f"lw-scratch-{tag}",
        operator="T",
        key=log_key(f"lw-scratch-{tag}", 256),
    )
    pairs = [
        ca.issue(IssuanceRequest((f"s{i}.{tag}",)), [scratch], now)
        for i in range(count)
    ]
    return [pair.precertificate for pair in pairs], ca.issuer_key_hash


def test_domain_matches():
    assert domain_matches("watched.example", "watched.example")
    assert domain_matches("watched.example", "shop.watched.example")
    assert domain_matches("watched.example", "a.b.watched.example")
    assert domain_matches("Watched.Example", "SHOP.WATCHED.EXAMPLE")
    assert not domain_matches("watched.example", "notwatched.example")
    assert not domain_matches("watched.example", "watched.example.evil")
    assert domain_matches("*.watched.example", "shop.watched.example")


def test_subscription_normalizes_domains():
    monitor = LightweightMonitor("m", ["*.Watched.Example.", "B.example"])
    assert monitor.domains == ("b.example", "watched.example")


def test_fetches_only_matching_entries(log, now):
    monitor = LightweightMonitor(
        "m", ["watched.example"], key=log.key
    )
    transport = InMemoryTransport(log)
    observations = monitor.poll(transport, now + timedelta(hours=1))
    assert [obs.entry.index for obs in observations] == [3, 7]
    assert monitor.clean
    # Exactly the two matching bodies crossed the transport — the
    # eight non-matching entries were never downloaded.
    assert transport.entries_fetched == 2
    assert transport.stats()["entries"] == 2
    assert monitor.sths_verified == 1
    assert monitor.digests_verified == 1
    assert monitor.proofs_verified == 2
    assert monitor.entries_matched == 2


def test_incremental_polls_track_growth(log, now):
    monitor = LightweightMonitor("m", ["watched.example"], key=log.key)
    transport = InMemoryTransport(log)
    assert len(monitor.poll(transport, now + timedelta(hours=1))) == 2
    # Nothing new: no entry bodies move.
    assert monitor.poll(transport, now + timedelta(hours=2)) == []
    assert transport.entries_fetched == 2
    grow(
        log,
        ["late.watched.example", "late.other.example"],
        now + timedelta(hours=3),
    )
    fresh = monitor.poll(transport, now + timedelta(hours=4))
    assert [obs.entry.index for obs in fresh] == [10]
    assert fresh[0].dns_names == ["late.watched.example"]
    assert transport.entries_fetched == 3
    assert monitor.clean


def test_wrong_key_flags_sth_signature(log, now):
    monitor = LightweightMonitor(
        "m", ["watched.example"], key=log_key("Some Other Log", 256)
    )
    assert monitor.poll(log, now) == []
    assert [f.kind for f in monitor.findings] == ["bad-sth-signature"]
    assert not monitor.clean


def test_tampered_digest_flagged_and_cursor_held(log, now):
    class TamperingTransport(InMemoryTransport):
        def get_batch_digest(self, start):
            digest = super().get_batch_digest(start)
            return replace(
                digest, signature=b"\x00" * len(digest.signature)
            )

    monitor = LightweightMonitor("m", ["watched.example"], key=log.key)
    transport = TamperingTransport(log)
    assert monitor.poll(transport, now) == []
    assert [f.kind for f in monitor.findings] == ["bad-sth-signature"]
    # The tampered digest was rejected before any body was fetched,
    # and the cursor did not move past the unverified range.
    assert transport.entries_fetched == 0
    honest = LightweightMonitor("m2", ["watched.example"], key=log.key)
    assert len(honest.poll(InMemoryTransport(log), now)) == 2


def test_split_view_yields_inconsistent_history(log, now):
    monitor = LightweightMonitor("m", ["watched.example"], key=log.key)
    assert len(monitor.poll(log, now + timedelta(hours=1))) == 2
    # The log operator swaps this client onto an equivocating twin of
    # the same size: the two-roots-one-size check fires.
    twin = make_split_view_log(log, fork_at=5, pad_to=log.size)
    assert monitor.poll(twin, now + timedelta(hours=2)) == []
    assert [f.kind for f in monitor.findings] == ["inconsistent-history"]
    assert "two roots" in monitor.findings[0].detail


def test_fetch_error_finding_when_log_unreachable(log):
    with LogServer(log) as server:
        url = server.log_url(log.name)
    monitor = LightweightMonitor("m", ["watched.example"], key=log.key)
    transport = HttpTransport(url, log.name, timeout=0.5)
    assert monitor.poll(transport) == []
    assert [f.kind for f in monitor.findings] == ["fetch-error"]


def test_http_end_to_end_with_batched_digests(log, now):
    sequencer = LogSequencer(log, max_batch=64)
    metrics = MetricsRegistry()
    monitor = LightweightMonitor(
        "m", ["watched.example"], key=log.key, metrics=metrics
    )
    with LogServer(sequencer) as server:
        transport = HttpTransport(server.log_url(log.name), log.name)
        first = monitor.poll(transport, now + timedelta(hours=1))
        assert [obs.entry.index for obs in first] == [3, 7]

        # Two more merge batches land, one matching entry in each.
        precerts, issuer_key_hash = _precerts(3, "watched.example", now)
        sequencer.submit_pre_chain(precerts[0], issuer_key_hash)
        other, other_hash = _precerts(2, "elsewhere.example", now)
        sequencer.submit_pre_chain(other[0], other_hash)
        sequencer.merge(now + timedelta(hours=2))
        sequencer.submit_pre_chain(precerts[1], issuer_key_hash)
        sequencer.merge(now + timedelta(hours=3))

        fresh = monitor.poll(transport, now + timedelta(hours=4))
        assert len(fresh) == 2
        assert all(
            "watched.example" in name
            for obs in fresh
            for name in obs.dns_names
        )
        stats = transport.stats()
    assert monitor.clean
    # 2 + 2 matching bodies over a 14-entry tree; batch digests walked
    # across two merge boundaries without fetching the rest.
    assert stats["entries"] == 4
    assert monitor.digests_verified >= 3
    assert stats["bytes"] > 0
    # The per-poll deltas add up to the transport's cumulative ledger.
    labels = f"{{log={log.name},monitor=m}}"
    assert metrics.snapshot().counters[f"monitor.wire_bytes{labels}"] == (
        stats["bytes"]
    )


def test_obs_wiring_and_replay_parity(log, now):
    metrics = MetricsRegistry()
    events = EventLog()
    monitor = LightweightMonitor(
        "m", ["watched.example"], key=log.key,
        metrics=metrics, events=events,
    )
    monitor.poll(log, now + timedelta(hours=1))
    grow(log, ["x.watched.example"], now + timedelta(hours=2))
    monitor.poll(log, now + timedelta(hours=3))
    records = events.tail(1_000)
    polls = [r for r in records if r["kind"] == "lightweight_poll"]
    assert len(polls) == 2
    assert all(p["ok"] for p in polls)
    # The monitor.* counter family replays exactly from the event log.
    snapshot = metrics.snapshot()
    live = {
        key: value for key, value in snapshot.counters.items()
        if key.startswith("monitor.")
    }
    replayed = {
        key: value
        for key, value in replay_metrics(records).counters.items()
        if key.startswith("monitor.")
    }
    assert live == replayed
    assert sum(v for k, v in live.items() if k.startswith("monitor.matches")) == 3


def test_observe_alias_for_watch_logs(log, now):
    from repro.ct.monitor import watch_logs

    monitor = LightweightMonitor("m", ["watched.example"], key=log.key)
    observations = watch_logs([monitor], [log])
    assert [obs.entry.index for obs in observations] == [3, 7]
    assert observations[0].monitor == "m"
