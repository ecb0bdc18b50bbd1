"""Cost of fault tolerance: flaky harvesting vs the fault-free run.

Runs the live-log section graph three ways over the same 40-entry log:
fault-free, through a seeded :class:`FlakyLog` failing 20% of fetches
under a retry budget (output must stay bit-identical), and degraded
(tail shards permanently dead, run completes with a report).  The
artifact records the retry/degradation overhead.
"""

import time

from conftest import record_artifact

from repro.core import leakage
from repro.dataset import analyze, sections_graph
from repro.pipeline import PipelineEngine
from repro.resilience import DegradedResult, FlakyLog, RetryPolicy
from repro.util.rng import SeededRng

SHARD_SIZE = 8
FAILURE_RATE = 0.2


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _dead_tail(method, args):
    """Permanently fail fetches in the last two shards (index >= 24)."""
    return method == "get_entries" and args[0] >= 24


def test_bench_degraded_harvest(fresh_harvest_log):
    log = fresh_harvest_log
    retry = RetryPolicy(max_attempts=4, base_delay_s=0.0)

    baseline, clean_seconds = _timed(
        lambda: analyze(
            log, sections_graph(), PipelineEngine(workers=1, shard_size=SHARD_SIZE)
        )
    )

    flaky = FlakyLog(
        log,
        SeededRng(17, "bench-faults"),
        failure_rate=FAILURE_RATE,
        max_consecutive=2,
        methods=("get_entries",),
    )
    retried, flaky_seconds = _timed(
        lambda: analyze(
            flaky,
            sections_graph(),
            PipelineEngine(workers=1, shard_size=SHARD_SIZE, retry=retry),
        )
    )
    identical = retried["leakage"] == baseline["leakage"]
    assert identical  # faults + retries change nothing
    assert flaky.faults_injected > 0

    dead = FlakyLog(
        log, SeededRng(18, "bench-dead"), failure_rate=0.0,
        fail_when=_dead_tail,
    )
    degraded, degraded_seconds = _timed(
        lambda: analyze(
            dead,
            sections_graph(),
            PipelineEngine(
                workers=1,
                shard_size=SHARD_SIZE,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                on_error="degrade",
            ),
        )
    )
    assert isinstance(degraded, DegradedResult)
    assert degraded.report.failed_indices == [3, 4]
    assert degraded.value["leakage"] == leakage.analyze_names(
        name
        for entry in log.get_entries(0, 23)
        for name in entry.certificate.dns_names()
    )

    overhead = flaky_seconds / clean_seconds if clean_seconds else 0.0
    lines = [
        f"Fault-tolerant harvest — live-log section graph ({log.size} entries, "
        f"shard size {SHARD_SIZE})",
        f"  fault-free        {clean_seconds * 1e3:8.2f} ms",
        f"  {FAILURE_RATE:.0%} flaky + retry  {flaky_seconds * 1e3:8.2f} ms   "
        f"({flaky.faults_injected} faults injected, {overhead:.2f}x)",
        f"  degraded tail     {degraded_seconds * 1e3:8.2f} ms   "
        f"({degraded.report.summary()})",
        f"  retried output identical: {identical}",
    ]
    record_artifact(
        "resilience",
        "\n".join(lines),
        data={
            "entries": log.size,
            "shard_size": SHARD_SIZE,
            "failure_rate": FAILURE_RATE,
            "clean_seconds": clean_seconds,
            "flaky_seconds": flaky_seconds,
            "degraded_seconds": degraded_seconds,
            "faults_injected": flaky.faults_injected,
            "failed_shards": degraded.report.failed_indices,
            "degraded_retries": degraded.report.retries,
        },
    )
