"""CT auditing: verifying that logs keep their promises.

Section 2 of the paper: "Logs are append-only and use Merkle Hash
Trees, which allows to detect tampering with a log's history."  This
module is the machinery that actually does the detecting:

* :func:`check_sth` is the one rule for accepting a signed tree head
  (Dahlberg & Pulls): its signature verifies, and it is consistent
  with the last head the reader accepted — the tree never shrinks,
  the root never changes at one size, and growth comes with a valid
  consistency proof.  :class:`LogAuditor` and
  :class:`~repro.ct.monitor.LightweightMonitor` both apply it;
* :class:`LogAuditor` follows one log over time through that rule and
  audits SCTs for inclusion within the log's maximum merge delay;
* :class:`GossipPool` cross-checks STHs observed by *different*
  vantage points, catching split-view attacks where a log shows
  diverging histories to different clients (the attack CT's design
  must prevent for the "full view" claim to hold).  It holds the key
  of every log it vouches for and drops STHs whose signature fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ct import merkle
from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.sct import (
    SignedCertificateTimestamp,
    precert_signing_input,
    x509_signing_input,
    SctEntryType,
)
from repro.obs.events import NULL_EVENTS, EventLog, record
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.timeutil import from_timestamp_ms
from repro.x509.certificate import Certificate
from repro.x509.crypto import KeyPair

#: Finding kind of a head (or digest, or SCT) whose signature fails.
BAD_SIGNATURE = "bad-sth-signature"


@dataclass(frozen=True)
class AuditFinding:
    """One problem an auditor observed."""

    log_name: str
    kind: str  # bad-sth-signature | inconsistent-history | missing-entry | mmd-violation | split-view
    detail: str
    observed_at: Optional[datetime] = None


def record_finding(
    finding: AuditFinding, metrics: MetricsRegistry, events: EventLog
) -> None:
    """The one obs record of a finding, whoever made it: an
    ``audit_finding`` event, counted as ``auditor.findings{log=,kind=}``."""
    record(
        metrics, events, "audit_finding",
        log=finding.log_name, finding=finding.kind, detail=finding.detail,
    )


def check_sth(
    previous: Optional[SignedTreeHead],
    sth: SignedTreeHead,
    key: Optional[KeyPair],
    fetch_consistency: Callable[[int, int], Sequence[bytes]],
) -> Optional[Tuple[str, str]]:
    """Whether a reader may accept ``sth`` after ``previous``.

    ``previous`` is the last head the reader accepted (``None`` for the
    first); ``key`` pins the log's key (``None`` skips the signature);
    ``fetch_consistency(first, second)`` asks the log for a consistency
    proof and is called only when the tree grew.  Returns ``None`` when
    the head is acceptable, else the ``(kind, detail)`` of the finding.
    """
    if key is not None and not sth.verify(key):
        return (
            BAD_SIGNATURE,
            f"STH for tree size {sth.tree_size} has an invalid signature",
        )
    if previous is None:
        return None
    old, new = previous.tree_size, sth.tree_size
    if new < old:
        return "inconsistent-history", f"tree shrank from {old} to {new}"
    if new == old:
        if sth.root_hash == previous.root_hash:
            return None
        return (
            "inconsistent-history",
            f"two roots at tree size {new}: "
            f"{previous.root_hash.hex()[:16]}… then "
            f"{sth.root_hash.hex()[:16]}…",
        )
    try:
        proof = fetch_consistency(old, new)
    except Exception as exc:
        return "fetch-error", f"get-consistency failed: {exc!r}"
    if not merkle.verify_consistency_proof(
        old, new, previous.root_hash, sth.root_hash, proof
    ):
        return (
            "inconsistent-history",
            f"no valid consistency proof from size {old} to {new}",
        )
    return None


@dataclass
class AuditReport:
    """Accumulated findings of an audit run."""

    findings: List[AuditFinding] = field(default_factory=list)
    sths_verified: int = 0
    consistency_checks: int = 0
    inclusion_checks: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def add(self, finding: AuditFinding) -> None:
        self.findings.append(finding)


class LogAuditor:
    """Follows a single log and verifies its behaviour over time.

    Into ``metrics`` the auditor records a ``auditor.poll_seconds{log=}``
    latency histogram, a ``auditor.tree_size{log=}`` gauge,
    consistency-check pass/fail counters, and an
    ``auditor.findings{log=,kind=}`` counter per finding; ``events``
    receives one ``auditor_poll`` event per poll and one
    ``audit_finding`` event per problem.
    """

    def __init__(
        self,
        log: CTLog,
        *,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
    ) -> None:
        self._log = log
        self._last_sth: Optional[SignedTreeHead] = None
        self.report = AuditReport()
        self.metrics = metrics
        self.events = events

    def _inc(self, name: str, **labels: object) -> None:
        self.metrics.inc(name, log=self._log.name, **labels)

    def _add_finding(self, finding: AuditFinding) -> None:
        self.report.add(finding)
        record_finding(finding, self.metrics, self.events)

    def _fetch_consistency(self, first: int, second: int) -> List[bytes]:
        proof = self._log.get_consistency(first, second)
        self.report.consistency_checks += 1
        return proof

    def observe_sth(self, sth: SignedTreeHead, now: datetime) -> None:
        """Accept ``sth`` if :func:`check_sth` passes, else record why not."""
        previous = self._last_sth
        problem = check_sth(
            previous, sth, self._log.key, self._fetch_consistency
        )
        if problem is None or problem[0] != BAD_SIGNATURE:
            self.report.sths_verified += 1
            self._inc("auditor.sths_verified")
            if previous is not None:
                self._inc(
                    "auditor.consistency_failed"
                    if problem
                    else "auditor.consistency_ok"
                )
        if problem is not None:
            self._add_finding(AuditFinding(self._log.name, *problem, now))
            return
        self._last_sth = sth

    def poll(self, now: datetime) -> SignedTreeHead:
        """Fetch and verify the log's current STH."""
        findings_before = len(self.report.findings)
        started = time.perf_counter()
        sth = self._log.get_sth(now)
        self.observe_sth(sth, now)
        record(
            self.metrics, self.events, "auditor_poll",
            log=self._log.name,
            tree_size=sth.tree_size,
            ok=len(self.report.findings) == findings_before,
            duration_ms=round((time.perf_counter() - started) * 1e3, 3),
        )
        return sth

    def audit_sct_inclusion(
        self,
        certificate: Certificate,
        sct: SignedCertificateTimestamp,
        issuer_key_hash: bytes,
        now: datetime,
    ) -> bool:
        """Check that an SCT's promise has been kept.

        Verifies the SCT signature, locates the corresponding entry in
        the log, and verifies an inclusion proof against a fresh STH.
        Flags an MMD violation when the entry is missing although the
        maximum merge delay has passed.
        """
        if sct.entry_type is SctEntryType.PRECERT_ENTRY:
            entry_input = precert_signing_input(certificate, issuer_key_hash)
        else:
            entry_input = x509_signing_input(certificate)
        if not sct.verify(self._log.key, entry_input):
            self._add_finding(
                AuditFinding(
                    self._log.name,
                    BAD_SIGNATURE,
                    "SCT signature invalid for presented certificate",
                    now,
                )
            )
            return False
        self.report.inclusion_checks += 1
        index = next(
            (
                entry.index
                for entry in self._log.entries
                if entry.leaf_input == entry_input
            ),
            None,
        )
        if index is None:
            deadline = from_timestamp_ms(sct.timestamp_ms) + timedelta(
                hours=self._log.mmd_hours
            )
            kind = "mmd-violation" if now > deadline else "missing-entry"
            self._inc("auditor.inclusion_failed")
            self._add_finding(
                AuditFinding(
                    self._log.name,
                    kind,
                    f"no log entry for SCT issued at {sct.timestamp}",
                    now,
                )
            )
            return False
        sth = self._log.get_sth(now)
        proof = self._log.get_proof_by_hash(index, sth.tree_size)
        ok = merkle.verify_inclusion_proof(
            entry_input, index, sth.tree_size, proof, sth.root_hash
        )
        if not ok:
            self._inc("auditor.inclusion_failed")
            self._add_finding(
                AuditFinding(
                    self._log.name,
                    "missing-entry",
                    f"inclusion proof for entry {index} does not verify",
                    now,
                )
            )
        else:
            self._inc("auditor.inclusion_ok")
        return ok


@dataclass(frozen=True)
class Equivocation:
    """One cryptographically proven split view: two roots, one size."""

    log_name: str
    tree_size: int
    first_root: bytes
    first_reporter: str
    second_root: bytes
    second_reporter: str
    observed_at: Optional[datetime] = None


class GossipPool:
    """Cross-vantage STH gossip for split-view detection.

    Vantage points submit the STHs they observed; for any two STHs of
    the same log with the same tree size but different root hashes the
    log has equivocated — cryptographic proof of misbehaviour.  The
    proof holds only for signed heads: ``keys`` maps each log name the
    pool vouches for to its key, and an STH whose signature does not
    verify under it (or names a log the pool holds no key for) is
    recorded as a ``bad-sth-signature`` finding and is never stored or
    compared, so a forged head cannot frame an honest log.

    Reports through the same obs surface as :class:`LogAuditor`: every
    gossiped STH counts into ``gossip.sths{log=}`` and every finding
    into ``auditor.findings{log=,kind=}`` plus one ``audit_finding``
    event.  Resubmitting an already-flagged equivocating root does not
    duplicate the finding.
    """

    def __init__(
        self,
        keys: Mapping[str, KeyPair],
        *,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
    ) -> None:
        self._keys = dict(keys)
        # (log name, tree size) -> (root hash, first reporter)
        self._seen: Dict[Tuple[str, int], Tuple[bytes, str]] = {}
        # (log name, tree size, root) of forks already reported.
        self._flagged: set = set()
        self.findings: List[AuditFinding] = []
        self.equivocations: List[Equivocation] = []
        self.sths_gossiped = 0
        self.metrics = metrics
        self.events = events

    def submit(
        self,
        log_name: str,
        sth: SignedTreeHead,
        reporter: str,
        now: Optional[datetime] = None,
    ) -> Optional[AuditFinding]:
        """Record an observed STH; returns a finding on a bad signature
        or an equivocation."""
        self.sths_gossiped += 1
        self.metrics.inc("gossip.sths", log=log_name)
        log_key = self._keys.get(log_name)
        if log_key is None or not sth.verify(log_key):
            return self._find(
                AuditFinding(
                    log_name,
                    BAD_SIGNATURE,
                    f"{reporter} gossiped an STH for tree size "
                    f"{sth.tree_size} that does not verify",
                    now,
                )
            )
        key = (log_name, sth.tree_size)
        known = self._seen.get(key)
        if known is None:
            self._seen[key] = (sth.root_hash, reporter)
            return None
        root, first_reporter = known
        if root == sth.root_hash:
            return None
        flag_key = (log_name, sth.tree_size, sth.root_hash)
        if flag_key in self._flagged:
            return None
        self._flagged.add(flag_key)
        finding = AuditFinding(
            log_name,
            "split-view",
            f"tree size {sth.tree_size}: {first_reporter} saw root "
            f"{root.hex()[:16]}…, {reporter} saw {sth.root_hash.hex()[:16]}…",
            now,
        )
        self.equivocations.append(
            Equivocation(
                log_name=log_name,
                tree_size=sth.tree_size,
                first_root=root,
                first_reporter=first_reporter,
                second_root=sth.root_hash,
                second_reporter=reporter,
                observed_at=now,
            )
        )
        return self._find(finding)

    def _find(self, finding: AuditFinding) -> AuditFinding:
        self.findings.append(finding)
        record_finding(finding, self.metrics, self.events)
        return finding

    @property
    def clean(self) -> bool:
        return not self.findings


def _fabricated_entry(log: CTLog, index: int) -> "LogEntry":
    """A deterministic entry that exists only in the equivocating view."""
    from repro.ct.log import LogEntry
    from repro.util.timeutil import utc_datetime
    from repro.x509.certificate import GeneralName, SanType

    name = f"equivocation{index}.{log.name.lower().replace(' ', '-')}.invalid"
    certificate = Certificate(
        serial=0x5EED_0000 + index,
        issuer_cn=f"{log.operator} Shadow CA",
        issuer_org=log.operator,
        subject_cn=name,
        san=(GeneralName(SanType.DNS, name),),
        not_before=utc_datetime(2018, 1, 1),
        not_after=utc_datetime(2019, 1, 1),
    )
    return LogEntry(
        index=index,
        submitted_at=utc_datetime(2018, 1, 1),
        entry_type=SctEntryType.X509_ENTRY,
        certificate=certificate,
        leaf_input=f"equivocation-entry:{log.name}:{index}".encode(),
    )


def make_split_view_log(
    log: CTLog, fork_at: int, pad_to: Optional[int] = None
) -> CTLog:
    """Build an equivocating twin of ``log`` for testing/demonstration.

    The twin shares ``log``'s history up to ``fork_at`` entries and
    then diverges — the classic split-view attack setup.  It uses the
    same key (the attacker *is* the log operator).

    The fabricated tail consists of full :class:`~repro.ct.log.LogEntry`
    records, so ``tree_size == len(entries)`` always holds and the twin
    can be mounted on a :class:`~repro.ct.server.LogServer` and answer
    ``get-entries`` like any honest log.  ``pad_to`` sets the twin's
    final size (default ``fork_at + 1``); pad to the honest log's size
    to stage the same-size/different-root equivocation gossip catches.
    """
    from repro.ct.merkle import MerkleTree

    target = pad_to if pad_to is not None else fork_at + 1
    if target <= fork_at:
        raise ValueError(
            f"pad_to={target} must exceed fork_at={fork_at} — the twin "
            f"has to diverge"
        )
    twin = CTLog(
        name=log.name,
        operator=log.operator,
        key=log.key,
        chrome_inclusion=log.chrome_inclusion,
        url=log.url,
        mmd_hours=log.mmd_hours,
    )
    twin.tree = MerkleTree()
    for entry in log.entries[:fork_at]:
        twin.tree.append(entry.leaf_input)
        twin.entries.append(entry)
    # Diverge: fabricated entries not present in the honest view.
    for index in range(fork_at, target):
        entry = _fabricated_entry(log, index)
        twin.tree.append(entry.leaf_input)
        twin.entries.append(entry)
    return twin
