"""One rule for accepting a signed tree head, shared by every reader.

:class:`~repro.ct.auditor.LogAuditor` and
:class:`~repro.ct.monitor.LightweightMonitor` both accept STHs through
:func:`~repro.ct.auditor.check_sth`: the signature verifies, the tree
never shrinks, one size has one root, and growth comes with a valid
consistency proof.  Driving both readers through the same STH
sequences must give the same ``(kind, detail)`` findings.
"""

from dataclasses import replace
from datetime import timedelta

import pytest

from repro.ct.auditor import LogAuditor, make_split_view_log
from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.loglist import log_key
from repro.ct.monitor import InMemoryTransport, LightweightMonitor
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest


@pytest.fixture()
def log():
    return CTLog(name="Rule Log", operator="T", key=log_key("Rule Log", 256))


def grow(log, count, start, tag):
    ca = CertificateAuthority(f"Rule CA {tag}", key_bits=256)
    for i in range(count):
        ca.issue(
            IssuanceRequest((f"{tag}{i}.rule.example",)), [log],
            start + timedelta(minutes=i),
        )


class _ServedSth(InMemoryTransport):
    """An in-memory transport that serves one given STH."""

    def __init__(self, log, sth):
        super().__init__(log)
        self._sth = sth

    def get_sth(self, now=None):
        self.requests += 1
        return self._sth


def honest_growth(log, now):
    grow(log, 3, now, "a")
    yield log.get_sth(now)
    grow(log, 3, now, "b")
    yield log.get_sth(now + timedelta(hours=1))


def unchanged_size(log, now):
    grow(log, 6, now, "a")
    yield log.get_sth(now)
    yield log.get_sth(now + timedelta(hours=1))


def shrink(log, now):
    grow(log, 6, now, "a")
    yield log.get_sth(now)
    root = log.tree.root(3)
    payload = SignedTreeHead.signed_payload(3, 0, root)
    yield SignedTreeHead(3, 0, root, crypto.sign(log.key, payload))


def same_size_fork(log, now):
    grow(log, 6, now, "a")
    yield log.get_sth(now)
    yield make_split_view_log(log, fork_at=3, pad_to=6).get_sth(now)


def bad_consistency_proof(log, now):
    grow(log, 3, now, "a")
    yield log.get_sth(now)
    grow(log, 3, now, "b")
    log.get_consistency = lambda first, second: [b"\x00" * 32]
    yield log.get_sth(now + timedelta(hours=1))


def bad_signature(log, now):
    grow(log, 3, now, "a")
    sth = log.get_sth(now)
    yield replace(sth, signature=b"\x00" * len(sth.signature))


SEQUENCES = {
    "honest-growth": (honest_growth, []),
    "unchanged-size": (unchanged_size, []),
    "shrink": (
        shrink, [("inconsistent-history", "tree shrank from 6 to 3")]
    ),
    "same-size-fork": (
        same_size_fork, [("inconsistent-history", "two roots at tree size 6")]
    ),
    "bad-consistency-proof": (
        bad_consistency_proof,
        [("inconsistent-history", "no valid consistency proof from size 3 to 6")],
    ),
    "bad-signature": (
        bad_signature,
        [("bad-sth-signature", "STH for tree size 3 has an invalid signature")],
    ),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_auditor_and_monitor_reach_the_same_verdicts(name, log, now):
    sequence, expected = SEQUENCES[name]
    auditor = LogAuditor(log)
    monitor = LightweightMonitor("m", [], key=log.key)
    for sth in sequence(log, now):
        auditor.observe_sth(sth, now)
        monitor.poll(_ServedSth(log, sth), now)
    audited = [(f.kind, f.detail) for f in auditor.report.findings]
    monitored = [(f.kind, f.detail) for f in monitor.findings]
    assert audited == monitored
    assert len(audited) == len(expected)
    for (kind, detail), (want_kind, prefix) in zip(audited, expected):
        assert (kind, detail[: len(prefix)]) == (want_kind, prefix)
    assert auditor.report.sths_verified == monitor.sths_verified


def test_same_size_compares_roots_without_a_proof(log, now):
    from repro.ct.auditor import check_sth

    def no_proof(first, second):
        raise AssertionError(f"fetched a ({first}, {second}) proof")

    grow(log, 4, now, "a")
    sth = log.get_sth(now)
    later = log.get_sth(now + timedelta(hours=1))
    assert check_sth(sth, later, log.key, no_proof) is None
    fork = make_split_view_log(log, fork_at=2, pad_to=4).get_sth(now)
    kind, detail = check_sth(sth, fork, log.key, no_proof)
    assert kind == "inconsistent-history"
    assert detail.startswith("two roots at tree size 4: ")


def test_failed_proof_fetch_is_a_fetch_error(log, now):
    from repro.ct.auditor import check_sth

    def unreachable(first, second):
        raise ConnectionError("log went away")

    grow(log, 2, now, "a")
    old = log.get_sth(now)
    grow(log, 2, now, "b")
    assert check_sth(old, log.get_sth(now), None, unreachable) == (
        "fetch-error",
        "get-consistency failed: ConnectionError('log went away')",
    )
