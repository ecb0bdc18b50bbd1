"""Tests for log auditing and split-view gossip."""

from datetime import timedelta

import pytest

from repro.ct.auditor import GossipPool, LogAuditor, make_split_view_log
from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.merkle import leaf_hash
from repro.ct.loglist import log_key
from repro.x509.ca import CertificateAuthority, IssuanceRequest


@pytest.fixture()
def log():
    return CTLog(name="Audited Log", operator="T", key=log_key("Audited Log", 256))


@pytest.fixture()
def ca256():
    return CertificateAuthority("Audit CA", key_bits=256)


def grow(ca, log, count, start, prefix="g"):
    for i in range(count):
        ca.issue(
            IssuanceRequest((f"{prefix}{i}.example",)), [log],
            start + timedelta(minutes=i),
        )


def test_honest_log_audits_clean(log, ca256, now):
    auditor = LogAuditor(log)
    auditor.poll(now)
    grow(ca256, log, 5, now)
    auditor.poll(now + timedelta(hours=1))
    grow(ca256, log, 7, now + timedelta(hours=2))
    auditor.poll(now + timedelta(hours=3))
    assert auditor.report.clean
    assert auditor.report.sths_verified == 3
    assert auditor.report.consistency_checks == 2


def test_shrinking_tree_flagged(log, ca256, now):
    auditor = LogAuditor(log)
    grow(ca256, log, 4, now)
    big = log.get_sth(now + timedelta(minutes=30))
    auditor.observe_sth(big, now + timedelta(minutes=30))
    # Fabricate an older/smaller STH presented later.
    small_root = log.tree.root(2)
    payload = SignedTreeHead.signed_payload(2, 0, small_root)
    from repro.x509 import crypto

    small = SignedTreeHead(2, 0, small_root, crypto.sign(log.key, payload))
    auditor.observe_sth(small, now + timedelta(hours=1))
    assert any(f.kind == "inconsistent-history" for f in auditor.report.findings)


def test_bad_sth_signature_flagged(log, now):
    auditor = LogAuditor(log)
    sth = log.get_sth(now)
    from dataclasses import replace

    forged = replace(sth, signature=b"\x00" * len(sth.signature))
    auditor.observe_sth(forged, now)
    assert any(f.kind == "bad-sth-signature" for f in auditor.report.findings)


def test_sct_inclusion_audit_passes(log, ca256, now):
    pair = ca256.issue(IssuanceRequest(("inc.example",)), [log], now)
    auditor = LogAuditor(log)
    assert auditor.audit_sct_inclusion(
        pair.precertificate, pair.scts[0], ca256.issuer_key_hash,
        now + timedelta(hours=1),
    )
    assert auditor.report.clean


def test_broken_promise_within_mmd_is_missing_entry(log, ca256, now):
    pair = ca256.issue(IssuanceRequest(("gone.example",)), [log], now)
    # Simulate a log that dropped the entry.
    log.entries.clear()
    auditor = LogAuditor(log)
    assert not auditor.audit_sct_inclusion(
        pair.precertificate, pair.scts[0], ca256.issuer_key_hash,
        now + timedelta(hours=1),
    )
    assert auditor.report.findings[0].kind == "missing-entry"


def test_broken_promise_after_mmd_is_violation(log, ca256, now):
    pair = ca256.issue(IssuanceRequest(("late.example",)), [log], now)
    log.entries.clear()
    auditor = LogAuditor(log)
    auditor.audit_sct_inclusion(
        pair.precertificate, pair.scts[0], ca256.issuer_key_hash,
        now + timedelta(hours=25),  # past the 24h MMD
    )
    assert auditor.report.findings[0].kind == "mmd-violation"


class TestGossip:
    def test_consistent_views_are_clean(self, log, ca256, now):
        grow(ca256, log, 3, now)
        pool = GossipPool({log.name: log.key})
        sth = log.get_sth(now + timedelta(hours=1))
        assert pool.submit(log.name, sth, "vantage-a") is None
        assert pool.submit(log.name, sth, "vantage-b") is None
        assert pool.clean
        assert pool.sths_gossiped == 2

    def test_split_view_detected(self, log, ca256, now):
        grow(ca256, log, 6, now)
        # Pad the twin to the honest log's size: same tree size,
        # different content — the equivocation gossip catches.
        twin = make_split_view_log(log, fork_at=4, pad_to=log.size)
        pool = GossipPool({log.name: log.key})
        honest_sth = log.get_sth(now + timedelta(hours=2))
        twin_sth = twin.get_sth(now + timedelta(hours=2))
        assert honest_sth.tree_size == twin_sth.tree_size
        assert pool.submit(log.name, honest_sth, "vantage-a") is None
        finding = pool.submit(log.name, twin_sth, "vantage-b")
        assert finding is not None
        assert finding.kind == "split-view"
        assert not pool.clean

    def test_forged_sth_is_not_proof_of_equivocation(self, log, ca256, now):
        from dataclasses import replace

        grow(ca256, log, 6, now)
        pool = GossipPool({log.name: log.key})
        honest = log.get_sth(now + timedelta(hours=1))
        forged = replace(
            honest, root_hash=b"\x00" * 32, signature=b"not a signature"
        )
        assert pool.submit(log.name, honest, "vantage-a") is None
        finding = pool.submit(log.name, forged, "vantage-b")
        assert finding is not None
        assert finding.kind == "bad-sth-signature"
        assert pool.equivocations == []
        # Never stored: a forged head seen first cannot frame the honest one.
        first = GossipPool({log.name: log.key})
        assert first.submit(log.name, forged, "vantage-b").kind == (
            "bad-sth-signature"
        )
        assert first.submit(log.name, honest, "vantage-a") is None
        assert first.equivocations == []
        # A log the pool holds no key for cannot be vouched for either.
        unknown = first.submit("Unknown Log", honest, "vantage-a")
        assert unknown.kind == "bad-sth-signature"
        assert first.sths_gossiped == 3

    def test_same_root_from_many_reporters_stays_clean(self, log, ca256, now):
        grow(ca256, log, 4, now)
        pool = GossipPool({log.name: log.key})
        sth = log.get_sth(now + timedelta(minutes=30))
        for reporter in (f"vantage-{i}" for i in range(12)):
            assert pool.submit(log.name, sth, reporter) is None
        assert pool.clean
        assert pool.sths_gossiped == 12

    def test_multiple_forks_each_yield_a_finding(self, log, ca256, now):
        grow(ca256, log, 6, now)
        fork_a = make_split_view_log(log, fork_at=3, pad_to=log.size)
        fork_b = make_split_view_log(log, fork_at=5, pad_to=log.size)
        assert fork_a.tree.root() != fork_b.tree.root()
        pool = GossipPool({log.name: log.key})
        when = now + timedelta(hours=1)
        pool.submit(log.name, log.get_sth(when), "honest-client")
        assert pool.submit(log.name, fork_a.get_sth(when), "victim-a")
        assert pool.submit(log.name, fork_b.get_sth(when), "victim-b")
        assert len(pool.findings) == 2
        assert len(pool.equivocations) == 2
        assert {f.kind for f in pool.findings} == {"split-view"}

    def test_repeated_equivocating_sth_not_duplicated(self, log, ca256, now):
        grow(ca256, log, 6, now)
        twin = make_split_view_log(log, fork_at=4, pad_to=log.size)
        pool = GossipPool({log.name: log.key})
        when = now + timedelta(hours=1)
        pool.submit(log.name, log.get_sth(when), "honest-client")
        twin_sth = twin.get_sth(when)
        assert pool.submit(log.name, twin_sth, "victim-a") is not None
        # The same equivocating root reported again — by the same or
        # another vantage — must not produce a second finding.
        assert pool.submit(log.name, twin_sth, "victim-a") is None
        assert pool.submit(log.name, twin_sth, "victim-b") is None
        later = twin.get_sth(when + timedelta(minutes=5))
        assert pool.submit(log.name, later, "victim-c") is None
        assert len(pool.findings) == 1

    def test_findings_carry_timestamp_and_obs(self, log, ca256, now):
        from repro.obs import EventLog, MetricsRegistry

        grow(ca256, log, 6, now)
        twin = make_split_view_log(log, fork_at=4, pad_to=log.size)
        metrics = MetricsRegistry()
        events = EventLog()
        pool = GossipPool({log.name: log.key}, metrics=metrics, events=events)
        when = now + timedelta(hours=1)
        pool.submit(log.name, log.get_sth(when), "vantage-a", now=when)
        finding = pool.submit(log.name, twin.get_sth(when), "vantage-b", now=when)
        assert finding is not None
        assert finding.observed_at == when
        snapshot = metrics.snapshot()
        assert (
            snapshot.counters[f"auditor.findings{{kind=split-view,log={log.name}}}"]
            == 1
        )
        assert snapshot.counters[f"gossip.sths{{log={log.name}}}"] == 2
        kinds = [record["kind"] for record in events.tail()]
        assert kinds.count("audit_finding") == 1

    def test_split_view_twin_is_servable(self, log, ca256, now):
        grow(ca256, log, 6, now)
        twin = make_split_view_log(log, fork_at=4, pad_to=log.size)
        # The fabricated tail is made of full LogEntry records: the
        # tree and the entry list agree, so the twin can answer
        # get-entries/get-sth like any honest log.
        assert twin.tree.size == len(twin.entries) == log.size
        tail = twin.get_entries(4, twin.size - 1)
        assert [entry.index for entry in tail] == list(range(4, twin.size))
        for entry in tail:
            assert entry.certificate.dns_names()
            assert twin.tree.leaf_index(leaf_hash(entry.leaf_input)) == entry.index

    def test_make_split_view_requires_divergence(self, log, ca256, now):
        grow(ca256, log, 4, now)
        with pytest.raises(ValueError):
            make_split_view_log(log, fork_at=3, pad_to=3)

    def test_different_sizes_do_not_conflict(self, log, ca256, now):
        grow(ca256, log, 2, now)
        pool = GossipPool({log.name: log.key})
        first = log.get_sth(now + timedelta(minutes=5))
        grow(ca256, log, 2, now + timedelta(minutes=10))
        second = log.get_sth(now + timedelta(minutes=20))
        pool.submit(log.name, first, "a")
        assert pool.submit(log.name, second, "b") is None
        assert pool.clean
