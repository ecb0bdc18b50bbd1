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

from dataclasses import replace

from conftest import record_artifact
from test_bench_server import SCENARIO as PER_ENTRY

#: Same world and reader population as the per-entry benchmark, but a
#: heavier submission burst through the batched write path: its whole
#: point is sustaining write volume (Section 2's storm) without
#: starving readers.
SCENARIO = replace(
    PER_ENTRY,
    storm=replace(
        PER_ENTRY.storm,
        submitters=4,
        submissions_per_submitter=24,
        await_inclusion=True,
    ),
    merge_interval=0.02,
    max_batch=512,
)
CONFIG = SCENARIO.storm

#: The per-entry baseline gates >= 20 accepted submissions/sec
#: (test_bench_server.py); the batched pipeline must double it.
PER_ENTRY_BASELINE_SUBS_PER_SEC = 20.0
MIN_SUBMISSIONS_PER_SEC = 2.0 * PER_ENTRY_BASELINE_SUBS_PER_SEC
MAX_READ_P99_S = 0.25


def test_bench_batched_write_pipeline(request):
    # Leaving the world checks the standing invariants in every mode:
    # every read verified, and every submitter saw all of its leaves
    # merged and proven included before giving up.
    with SCENARIO.serve() as world:
        report = world.storm()
    stats = world.server.sequencer_stats()[next(iter(world.server.slugs))]

    # Every submission was accepted and merged into the tree.
    assert report.submissions_ok == CONFIG.planned_submissions
    assert world.log.size == SCENARIO.log_entries + CONFIG.planned_submissions

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
        f"{CONFIG.submitters} submitters), {SCENARIO.log_entries}-entry seed, "
        f"merges every {SCENARIO.merge_interval * 1e3:.0f} ms",
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
            "seed_entries": SCENARIO.log_entries,
            "workers": SCENARIO.workers,
            "merge_interval_s": SCENARIO.merge_interval,
            "max_batch": SCENARIO.max_batch,
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
