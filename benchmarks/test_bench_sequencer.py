"""Batched write pipeline throughput: the MMD sequencer under storm.

Same seeded client population as ``test_bench_server.py``, but the
server mounts the log behind a :class:`repro.ct.sequencer.LogSequencer`
(``merge_interval`` background merges, batched Merkle appends).  The
write path no longer holds the read lock across RSA signing or
per-entry tree updates, so accepted submissions/sec must clear **twice
the per-entry baseline's committed floor** while read p99 stays under
the same ceiling — and the batching must be real: fewer merges than
submissions, every SCT's leaf proven included after the storm.

Submitters keep ``await_inclusion`` on here: the recorded artifact
reports SCT latency (time-to-promise) separately from merge lag
(time-to-inclusion), the split that defines MMD semantics.
"""

from conftest import record_artifact

from repro.ct.log import CTLog
from repro.ct.server import LogServer
from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import LoadStormConfig, plan_storm, run_storm
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest

SEED_ENTRIES = 48
#: Same reader population as the per-entry benchmark, but a heavier
#: submission burst: the batched pipeline's whole point is sustaining
#: write volume (Section 2's storm) without starving readers.
CONFIG = LoadStormConfig(
    seed=2018,
    browsers=8,
    monitors=3,
    submitters=4,
    audits_per_browser=10,
    pages_per_monitor=8,
    page_size=8,
    submissions_per_submitter=24,
    await_inclusion=True,
)
WORKERS = 8
MERGE_INTERVAL_S = 0.02
MAX_BATCH = 512

#: The per-entry baseline gates >= 20 accepted submissions/sec
#: (test_bench_server.py); the batched pipeline must double it.
PER_ENTRY_BASELINE_SUBS_PER_SEC = 20.0
MIN_SUBMISSIONS_PER_SEC = 2.0 * PER_ENTRY_BASELINE_SUBS_PER_SEC
MAX_READ_P99_S = 0.25


def _seeded_log():
    log = CTLog(
        name="Bench Batched Log",
        operator="Repro",
        key=crypto.KeyPair.generate("bench-batched-log", 256),
    )
    ca = CertificateAuthority("Bench Batch CA", key_bits=256)
    now = utc_datetime(2018, 5, 1, 9, 0)
    for index in range(SEED_ENTRIES):
        ca.issue(
            IssuanceRequest(
                (f"seed{index}.batch.example", f"www.seed{index}.batch.example")
            ),
            [log],
            now,
        )
    return log


def test_bench_batched_write_pipeline(request):
    log = _seeded_log()
    plans = plan_storm(CONFIG, log)
    with LogServer(
        log, merge_interval=MERGE_INTERVAL_S, max_batch=MAX_BATCH
    ) as server:
        report = run_storm(
            plans,
            server.log_url(log.name),
            executor="thread",
            workers=WORKERS,
        )
        server.drain_writes()
        stats = server.sequencer_stats()[next(iter(server.slugs))]

    # Correctness invariants hold in every mode: every submission was
    # accepted, every read verified, and every submitter saw all of its
    # leaves merged and proven included before giving up.
    assert report.transport_errors == 0
    assert report.verification_failures == 0
    assert report.submissions_ok == CONFIG.planned_submissions
    assert report.inclusions_verified == CONFIG.submitters
    assert log.size == SEED_ENTRIES + CONFIG.planned_submissions

    # The batching must be real, not per-entry merges in disguise.
    assert stats["entries_merged"] == CONFIG.planned_submissions
    assert stats["merges"] < CONFIG.planned_submissions
    assert stats["max_batch_merged"] >= 2
    assert stats["pending"] == 0 and stats["queued"] == 0

    smoke = request.config.getoption("--benchmark-disable", default=False)
    if not smoke:
        assert report.submissions_per_sec >= MIN_SUBMISSIONS_PER_SEC, (
            f"batched path sustained {report.submissions_per_sec:.1f} "
            f"submissions/s — under 2x the per-entry baseline floor "
            f"({MIN_SUBMISSIONS_PER_SEC:.0f}/s)"
        )
        assert report.read_p99 < MAX_READ_P99_S, (
            f"read p99 {report.read_p99:.3f}s exceeds the "
            f"{MAX_READ_P99_S:.2f}s ceiling during the write storm"
        )

    lines = [
        f"Batched write pipeline under storm — {CONFIG.clients} clients "
        f"({CONFIG.browsers} browsers, {CONFIG.monitors} monitors, "
        f"{CONFIG.submitters} submitters), {SEED_ENTRIES}-entry seed, "
        f"merges every {MERGE_INTERVAL_S * 1e3:.0f} ms",
        report.render(),
        f"  sequencer    {stats['merges']:.0f} merges, "
        f"max batch {stats['max_batch_merged']:.0f}, "
        f"{stats['dedup_hits']:.0f} dedup hits",
        f"  gates        >= {MIN_SUBMISSIONS_PER_SEC:.0f} subs/s "
        f"(2x per-entry floor), p99 < {MAX_READ_P99_S:.2f}s",
    ]
    record_artifact(
        "server_batched",
        "\n".join(lines),
        data={
            "clients": CONFIG.clients,
            "seed_entries": SEED_ENTRIES,
            "workers": WORKERS,
            "merge_interval_s": MERGE_INTERVAL_S,
            "max_batch": MAX_BATCH,
            "reads_ok": report.reads_ok,
            "reads_per_sec": report.reads_per_sec,
            "read_p50_s": report.read_p50,
            "read_p99_s": report.read_p99,
            "submissions_ok": report.submissions_ok,
            "submissions_per_sec": report.submissions_per_sec,
            "sct_p50_s": report.sct_p50,
            "sct_p99_s": report.sct_p99,
            "merge_lag_max_s": report.merge_lag_max_s,
            "merge_lag_mean_s": report.merge_lag_mean_s,
            "inclusions_verified": report.inclusions_verified,
            "merge_count": stats["merges"],
            "max_batch_merged": stats["max_batch_merged"],
            "gate_min_submissions_per_sec": MIN_SUBMISSIONS_PER_SEC,
            "gate_max_read_p99_s": MAX_READ_P99_S,
        },
    )
