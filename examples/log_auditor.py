#!/usr/bin/env python3
"""Auditing CT logs: append-only proofs, gossip, and split views.

CT's security story (paper Section 2) rests on logs being append-only
Merkle trees whose misbehaviour is *detectable*.  This example shows
the detection actually working:

1. an auditor follows a log across growth, verifying STH signatures
   and consistency proofs;
2. SCT inclusion promises are audited against the maximum merge delay;
3. two vantage points gossip their observed STHs and catch a log that
   equivocates (shows different histories to different clients);
4. a log harvest is persisted to disk and restored with its Merkle
   root verified.

Run:  python examples/log_auditor.py
"""

from datetime import timedelta
from pathlib import Path
import tempfile

from repro.ct.auditor import GossipPool, LogAuditor, make_split_view_log
from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.storage import dump_log, load_log
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest


def main() -> None:
    log = CTLog(name="Audited Log", operator="Demo", key=log_key("Audited Log", 256))
    ca = CertificateAuthority("Demo CA", key_bits=256)
    start = utc_datetime(2018, 4, 1, 8, 0)

    # 1. Follow the log while it grows.
    auditor = LogAuditor(log)
    pair = None
    for hour in range(4):
        for i in range(5):
            pair = ca.issue(
                IssuanceRequest((f"h{hour}-{i}.example",)), [log],
                start + timedelta(hours=hour, minutes=i),
            )
        sth = auditor.poll(start + timedelta(hours=hour, minutes=30))
        print(f"poll {hour}: tree size {sth.tree_size}, "
              f"findings so far: {len(auditor.report.findings)}")
    print(f"consistency checks passed: {auditor.report.consistency_checks}, "
          f"clean: {auditor.report.clean}")

    # 2. Audit the last SCT's inclusion promise.
    ok = auditor.audit_sct_inclusion(
        pair.precertificate, pair.scts[0], ca.issuer_key_hash,
        start + timedelta(hours=5),
    )
    print(f"SCT inclusion promise kept: {ok}")

    # 3. Split-view detection via gossip.
    pool = GossipPool({log.name: log.key})
    honest_sth = log.get_sth(start + timedelta(hours=6))
    evil = make_split_view_log(log, fork_at=10)
    while evil.tree.size < honest_sth.tree_size:
        evil.tree.append(b"fabricated")
    evil_sth = evil.get_sth(start + timedelta(hours=6))
    pool.submit(log.name, honest_sth, "vantage-berkeley")
    finding = pool.submit(log.name, evil_sth, "vantage-sydney")
    print(f"gossip finding: {finding.kind} — {finding.detail}")

    # 4. Persist and restore the harvest, root-verified.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "harvest.jsonl"
        count = dump_log(log, path)
        restored = CTLog(name=log.name, operator=log.operator, key=log.key)
        load_log(path, restored)
        print(f"harvest of {count} entries restored; roots match: "
              f"{restored.tree.root() == log.tree.root()}")


if __name__ == "__main__":
    main()
