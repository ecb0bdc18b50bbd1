"""Serial vs sharded-parallel throughput for the hottest passes.

Times the Table 2 FQDN pass (the heaviest per-item work) serially, on
a 4-worker process pool, and on the same pool with metrics/span
instrumentation attached, at the benchmark's elevated scale, each as
the best of ``REPEATS`` interleaved runs.  All
three outputs must be identical; the instrumented run must stay
within ``OVERHEAD_CEILING`` of the bare parallel run.  The >= 2x
speedup bar (and the overhead bar) only applies where the hardware
can deliver it (>= 4 CPUs) and timing is meaningful (not
benchmark-smoke mode).  A 2-worker variant holds the same pass to
``TWO_WORKER_SPEEDUP`` on hosts with >= 2 CPUs, so 2-vCPU hosts and
runners gate a multi-core number too.
"""

import os
import time

from conftest import DOMAIN_SCALE, record_artifact

from repro.core import leakage
from repro.dataset import CertCorpus, analyze, fqdn_graph, sections_graph
from repro.obs import MetricsRegistry, SpanTracer
from repro.pipeline import PipelineEngine

BENCH_WORKERS = 4
SPEEDUP_TARGET = 2.0
OVERHEAD_CEILING = 0.05
#: Below the smallest of the full-mode 2-worker runs measured on a
#: 2-vCPU host (see CHANGES.md).
TWO_WORKER_SPEEDUP = 1.15
REPEATS = 3


def _leakage(names, engine, psl):
    return analyze(names, fqdn_graph(psl), engine)["leakage"]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_bench_pipeline_table2(domain_corpus, request):
    names = domain_corpus.ct_fqdns
    psl = domain_corpus.psl
    shard_size = max(1, len(names) // (BENCH_WORKERS * 4))
    engine = PipelineEngine(workers=BENCH_WORKERS, shard_size=shard_size)
    smoke = request.config.getoption("--benchmark-disable", default=False)

    # CPU-bound work only gets slower under noise, so the best of
    # REPEATS interleaved runs per side is the estimate.
    serial_runs, parallel_runs, instrumented_runs = [], [], []
    for _ in range(1 if smoke else REPEATS):
        serial_stats, seconds = _timed(lambda: leakage.analyze_names(names, psl))
        serial_runs.append(seconds)
        parallel_stats, seconds = _timed(lambda: _leakage(names, engine, psl))
        parallel_runs.append(seconds)
        registry = MetricsRegistry()
        instrumented = PipelineEngine(
            workers=BENCH_WORKERS,
            shard_size=shard_size,
            metrics=registry,
            tracer=SpanTracer(),
        )
        instrumented_stats, seconds = _timed(
            lambda: _leakage(names, instrumented, psl)
        )
        instrumented_runs.append(seconds)
        # The point of the exercise: sharding must not change a single
        # bit — and neither must turning the instrumentation on.
        assert parallel_stats == serial_stats
        assert parallel_stats.top_labels(20) == serial_stats.top_labels(20)
        assert instrumented_stats == serial_stats
    serial_seconds = min(serial_runs)
    parallel_seconds = min(parallel_runs)
    instrumented_seconds = min(instrumented_runs)
    snapshot = registry.snapshot()
    assert snapshot.counter("pipeline.shards_completed") == snapshot.counter(
        "pipeline.shards_planned"
    )

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    overhead = (
        instrumented_seconds / parallel_seconds - 1.0
        if parallel_seconds
        else 0.0
    )
    lines = [
        "Pipeline throughput — Table 2 FQDN pass "
        f"(scale 1:{int(1 / DOMAIN_SCALE)}, {len(names)} names, "
        f"{os.cpu_count()} CPUs, best of {len(serial_runs)})",
        f"  serial            {serial_seconds:8.3f} s   "
        f"{len(names) / serial_seconds:10.0f} names/s",
        f"  {BENCH_WORKERS} workers         {parallel_seconds:8.3f} s   "
        f"{len(names) / parallel_seconds:10.0f} names/s",
        f"  + metrics/spans   {instrumented_seconds:8.3f} s   "
        f"({overhead:+.1%} overhead)",
        f"  speedup           {speedup:8.2f}x",
        f"  outputs identical: {parallel_stats == serial_stats}",
    ]
    record_artifact(
        "pipeline",
        "\n".join(lines),
        data={
            "names": len(names),
            "workers": BENCH_WORKERS,
            "shard_size": shard_size,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "instrumented_seconds": instrumented_seconds,
            "speedup": speedup,
            "instrumentation_overhead": overhead,
            "metrics": snapshot.to_dict(),
        },
    )

    cpus = os.cpu_count() or 1
    if cpus >= BENCH_WORKERS and not smoke:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x with {BENCH_WORKERS} workers "
            f"on {cpus} CPUs, measured {speedup:.2f}x"
        )
        assert overhead < OVERHEAD_CEILING, (
            f"instrumentation cost {overhead:.1%} exceeds the "
            f"{OVERHEAD_CEILING:.0%} ceiling"
        )


def test_bench_pipeline_table2_two_workers(domain_corpus, request):
    names = domain_corpus.ct_fqdns
    psl = domain_corpus.psl
    engine = PipelineEngine(workers=2, shard_size=max(1, len(names) // 8))
    smoke = request.config.getoption("--benchmark-disable", default=False)
    serial_runs, parallel_runs = [], []
    for _ in range(1 if smoke else REPEATS):
        serial_stats, seconds = _timed(lambda: leakage.analyze_names(names, psl))
        serial_runs.append(seconds)
        parallel_stats, seconds = _timed(lambda: _leakage(names, engine, psl))
        parallel_runs.append(seconds)
        assert parallel_stats == serial_stats

    serial_seconds, parallel_seconds = min(serial_runs), min(parallel_runs)
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    record_artifact(
        "pipeline_two_workers",
        "Pipeline throughput — Table 2 FQDN pass, 2 workers "
        f"({len(names)} names, {os.cpu_count()} CPUs, "
        f"best of {len(serial_runs)})\n"
        f"  serial            {serial_seconds:8.3f} s\n"
        f"  2 workers         {parallel_seconds:8.3f} s\n"
        f"  speedup           {speedup:8.2f}x "
        f"(gate >= {TWO_WORKER_SPEEDUP}x)",
        data={
            "names": len(names),
            "workers": 2,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "speedup_gate": TWO_WORKER_SPEEDUP,
        },
    )
    cpus = os.cpu_count() or 1
    if cpus >= 2 and not smoke:
        assert speedup >= TWO_WORKER_SPEEDUP, (
            f"expected >= {TWO_WORKER_SPEEDUP}x with 2 workers on {cpus} "
            f"CPUs, measured {speedup:.2f}x"
        )


def test_bench_pipeline_checkpoint_resume(tmp_path, fresh_harvest_log):
    """Resuming from a checkpoint re-runs zero shards."""
    from repro.ct.storage import dump_log

    def sections(engine=None, checkpoint=False):
        engine = engine or PipelineEngine()
        corpus = CertCorpus.from_stored(path, metrics=engine.metrics)
        return analyze(corpus, sections_graph(), engine, checkpoint=checkpoint)

    path = tmp_path / "harvest.jsonl"
    dump_log(fresh_harvest_log, path)
    engine = PipelineEngine(workers=2, shard_size=8)

    _, cold_seconds = _timed(
        lambda: sections(engine, checkpoint=True)
    )
    registry = MetricsRegistry()
    warm_engine = PipelineEngine(workers=2, shard_size=8, metrics=registry)
    resumed, warm_seconds = _timed(
        lambda: sections(warm_engine, checkpoint=True)
    )
    assert resumed["leakage"] == sections()["leakage"]
    snapshot = registry.snapshot()
    hit_rate = snapshot.gauge("pipeline.checkpoint_hit_rate")
    assert hit_rate == 1.0  # every shard came from the sidecar
    record_artifact(
        "pipeline_checkpoint",
        "Checkpointed harvest re-analysis\n"
        f"  cold run   {cold_seconds:8.3f} s\n"
        f"  resumed    {warm_seconds:8.3f} s "
        f"(checkpoint hit rate {hit_rate:.0%})",
        data={
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "checkpoint_hit_rate": hit_rate,
            "metrics": snapshot.to_dict(),
        },
    )
