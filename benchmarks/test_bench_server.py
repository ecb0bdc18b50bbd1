"""Served-log throughput and latency under a seeded client storm.

Boots a real :class:`repro.ct.server.LogServer` on an ephemeral port,
seeds it with precertificates, and drives the deterministic
:mod:`repro.workloads.loadgen` population over real sockets: auditing
browsers, tailing monitors, and bursty CA submitters racing on a
thread pool.  Two gates (hard outside smoke mode):

* sustained accepted submissions/sec >= ``MIN_SUBMISSIONS_PER_SEC``;
* read p99 latency < ``MAX_READ_P99_S``.

The throughput floor is deliberately loose for shared CI runners — it
exists to catch order-of-magnitude regressions (an accidental
per-request tree rebuild, a lock held across a socket write), not to
benchmark the host.  The p99 ceiling sits below the ~1 s a client
waits for a SYN retransmit, so a listen backlog that overflows under
the storm's connection burst fails it.  The artifact also records the
server's STH/proof memo hit rate, which must be doing real work under
a read-heavy storm.
"""

from conftest import record_artifact

from repro.ct.log import CTLog
from repro.ct.server import LogServer
from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import LoadStormConfig, plan_storm, run_storm
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest

SEED_ENTRIES = 48
CONFIG = LoadStormConfig(
    seed=2018,
    browsers=8,
    monitors=3,
    submitters=3,
    audits_per_browser=10,
    pages_per_monitor=8,
    page_size=8,
    submissions_per_submitter=12,
    # The per-entry write path merges synchronously; inclusion polling
    # would only re-measure request latency.  The batched pipeline's
    # benchmark (test_bench_sequencer.py) keeps it on.
    await_inclusion=False,
)
WORKERS = 8
MIN_SUBMISSIONS_PER_SEC = 20.0
MAX_READ_P99_S = 0.25
MIN_MEMO_HIT_RATE = 0.25


def _seeded_log():
    log = CTLog(
        name="Bench Served Log",
        operator="Repro",
        key=crypto.KeyPair.generate("bench-served-log", 256),
    )
    ca = CertificateAuthority("Bench Serve CA", key_bits=256)
    now = utc_datetime(2018, 5, 1, 9, 0)
    for index in range(SEED_ENTRIES):
        ca.issue(
            IssuanceRequest(
                (f"seed{index}.bench.example", f"www.seed{index}.bench.example")
            ),
            [log],
            now,
        )
    return log


def test_bench_log_server_storm(request):
    log = _seeded_log()
    plans = plan_storm(CONFIG, log)
    with LogServer(log) as server:
        report = run_storm(
            plans,
            server.log_url(log.name),
            executor="thread",
            workers=WORKERS,
        )
        memo = server.memo_stats()[next(iter(server.slugs))]

    # Correctness invariants hold in every mode: each planned request
    # completed, every proof verified, every submission was accepted.
    assert report.transport_errors == 0
    assert report.verification_failures == 0
    assert report.submissions_ok == CONFIG.planned_submissions
    assert report.reads_ok == sum(plan.reads for plan in plans)

    lookups = memo["hits"] + memo["misses"]
    hit_rate = memo["hits"] / lookups if lookups else 0.0

    smoke = request.config.getoption("--benchmark-disable", default=False)
    if not smoke:
        assert report.submissions_per_sec >= MIN_SUBMISSIONS_PER_SEC, (
            f"sustained {report.submissions_per_sec:.1f} submissions/s "
            f"under the {MIN_SUBMISSIONS_PER_SEC:.0f}/s floor"
        )
        assert report.read_p99 < MAX_READ_P99_S, (
            f"read p99 {report.read_p99:.3f}s exceeds the "
            f"{MAX_READ_P99_S:.2f}s ceiling"
        )
        assert hit_rate >= MIN_MEMO_HIT_RATE, (
            f"memo hit rate {hit_rate:.1%} under {MIN_MEMO_HIT_RATE:.0%} — "
            "the proof/STH cache is not absorbing the read storm"
        )

    lines = [
        f"Served log under storm — {CONFIG.clients} clients "
        f"({CONFIG.browsers} browsers, {CONFIG.monitors} monitors, "
        f"{CONFIG.submitters} submitters), {SEED_ENTRIES}-entry seed",
        report.render(),
        f"  memo         {memo['hits']} hits / {memo['misses']} misses "
        f"({hit_rate:.0%} hit rate)",
        f"  gates        >= {MIN_SUBMISSIONS_PER_SEC:.0f} subs/s, "
        f"p99 < {MAX_READ_P99_S:.2f}s, memo >= {MIN_MEMO_HIT_RATE:.0%}",
    ]
    record_artifact(
        "server",
        "\n".join(lines),
        data={
            "clients": CONFIG.clients,
            "seed_entries": SEED_ENTRIES,
            "workers": WORKERS,
            "reads_ok": report.reads_ok,
            "reads_per_sec": report.reads_per_sec,
            "read_p50_s": report.read_p50,
            "read_p99_s": report.read_p99,
            "submissions_ok": report.submissions_ok,
            "submissions_per_sec": report.submissions_per_sec,
            "memo_hits": memo["hits"],
            "memo_misses": memo["misses"],
            "memo_hit_rate": hit_rate,
            "gate_min_submissions_per_sec": MIN_SUBMISSIONS_PER_SEC,
            "gate_max_read_p99_s": MAX_READ_P99_S,
            "gate_min_memo_hit_rate": MIN_MEMO_HIT_RATE,
        },
    )
