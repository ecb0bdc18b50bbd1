"""Observability under fire: metrics snapshots of fault-injected runs.

The acceptance bar for the instrumentation layer: attach a registry to
a sharded, fault-injected run and the resulting snapshot must account
for the run *exactly* — per-shard counters sum to the serial totals,
failed-shard labels enumerate the same shards the degradation report
does, and attempt counters match what the checkpoint sidecar's
``fault_stats()`` recovers from disk.  The analysis output itself must
stay bit-identical to the uninstrumented run.
"""

import pytest

from repro.ct.log import CTLog
from repro.ct.loglist import log_key
from repro.ct.storage import HarvestCheckpoint
from repro.dataset import LogWindow, analyze, fused_shard_task, sections_graph
from repro.obs import MetricsRegistry, MetricsSnapshot, SpanTracer
from repro.pipeline import PipelineEngine
from repro.resilience import DegradedResult, FlakyLog, RetryPolicy
from repro.util.rng import SeededRng
from repro.util.timeutil import utc_datetime
from repro.x509.ca import CertificateAuthority, IssuanceRequest

SHARD_SIZE = 8  # 48 entries -> 6 shards


@pytest.fixture(scope="module")
def fault_log():
    log = CTLog(name="Obs Target", operator="T", key=log_key("Obs Target", 256))
    ca = CertificateAuthority("Obs CA", key_bits=256)
    now = utc_datetime(2018, 5, 1, 12, 0)
    for i in range(48):
        ca.issue(
            IssuanceRequest((f"host{i}.obs.example", f"alt{i}.obs.example")),
            [log],
            now,
        )
    return log


@pytest.fixture(scope="module")
def fault_free(fault_log):
    return analyze(
        fault_log, GRAPH, PipelineEngine(workers=1, shard_size=SHARD_SIZE)
    )["leakage"]


def _flaky(log, seed=8):
    return FlakyLog(
        log,
        SeededRng(seed, "obs-faults"),
        failure_rate=0.2,
        max_consecutive=2,
        methods=("get_entries",),
    )


def _fail_tail(method, args):
    """Permanently dead entry fetches at index >= 32 (shards 4 and 5)."""
    return method == "get_entries" and args[0] >= 32


GRAPH = sections_graph()


def _shard_tasks(log):
    return [
        (GRAPH, LogWindow(log, start, min(start + SHARD_SIZE, log.size)))
        for start in range(0, log.size, SHARD_SIZE)
    ]


def _leakage(shard_results):
    return GRAPH.reduce([result.partials for result in shard_results])["leakage"]


class TestSerialParallelCounterParity:
    """Worker-local snapshots must fold back to the serial totals."""

    def test_instrumented_serial_equals_uninstrumented(self, fault_log, fault_free):
        registry = MetricsRegistry()
        engine = PipelineEngine(
            workers=1, shard_size=SHARD_SIZE, metrics=registry
        )
        assert analyze(fault_log, GRAPH, engine)["leakage"] == fault_free
        snap = registry.snapshot()
        assert snap.counter("pipeline.shards_planned") == 6
        assert snap.counter("pipeline.shards_completed") == 6
        assert snap.counter("pipeline.shard_attempts") == 6
        assert snap.histogram_count("pipeline.shard_seconds") == 6
        assert snap.histogram_count("pipeline.reduce_seconds") == 1

    def test_flaky_parallel_run_accounts_for_itself(self, fault_log, fault_free):
        registry = MetricsRegistry()
        engine = PipelineEngine(
            workers=3,
            shard_size=SHARD_SIZE,
            executor="thread",
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.0),
            metrics=registry,
            tracer=SpanTracer(),
        )
        flaky = _flaky(fault_log)
        result = analyze(flaky, GRAPH, engine)["leakage"]
        assert result == fault_free  # faults + retries change no bytes
        assert flaky.faults_injected > 0
        snap = registry.snapshot()
        assert snap.counter("pipeline.shards_completed") == 6
        # Every retry is a re-attempt of a completed shard: the
        # attempt counter decomposes exactly.
        assert snap.counter("pipeline.shard_attempts") == 6 + snap.counter(
            "pipeline.shard_retries"
        )
        assert snap.counter("pipeline.retries_total") == snap.counter(
            "pipeline.shard_retries"
        )
        assert snap.counter("pipeline.shards_failed") == 0
        # Per-shard timings crossed the pool boundary with the results.
        assert snap.histogram_count("pipeline.shard_seconds") == 6
        assert snap.histogram_count("pipeline.shard_queue_wait_seconds") == 6
        spans = [span.name for span in engine.tracer.spans]
        assert spans == [
            "pipeline.map_reduce",
            "pipeline.map",
            "pipeline.reduce",
        ]


class TestDegradedRunMetrics:
    """--metrics-out under on_error=degrade: the snapshot names exactly
    the shards the DegradationReport enumerates."""

    def test_failure_labels_match_report(self, fault_log, tmp_path):
        registry = MetricsRegistry()
        engine = PipelineEngine(
            workers=3,
            shard_size=SHARD_SIZE,
            executor="thread",
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            on_error="degrade",
            metrics=registry,
        )
        flaky = FlakyLog(
            fault_log,
            SeededRng(1, "obs-degrade"),
            failure_rate=0.0,
            fail_when=_fail_tail,
        )
        outcome = analyze(flaky, GRAPH, engine)
        assert isinstance(outcome, DegradedResult)
        assert outcome.report.failed_indices == [4, 5]

        # Same snapshot the CLI writes for --metrics-out.
        path = registry.snapshot().write(tmp_path / "metrics.json")
        snap = MetricsSnapshot.from_json(path.read_text())

        failed_labels = sorted(snap.labeled("pipeline.shard_failures"))
        assert failed_labels == [
            f"{{shard={i}}}" for i in outcome.report.failed_indices
        ]
        assert snap.counter("pipeline.shards_failed") == len(
            outcome.report.failed_indices
        )
        assert snap.counter("pipeline.shards_completed") == 4
        # Two dead shards, two attempts each under the retry budget.
        assert snap.counter("pipeline.failed_shard_attempts") == 4
        assert snap.counter("pipeline.retries_total") == outcome.report.retries


class TestCheckpointAccounting:
    """Metrics vs the checkpoint sidecar: two views of one run agree."""

    def _checkpoint(self, tmp_path, registry):
        return HarvestCheckpoint(
            tmp_path / "run.checkpoint",
            pass_name="obs-test",
            shard_size=SHARD_SIZE,
            tree_size=48,
            root_hash="obs",
            metrics=registry,
        )

    def test_attempts_match_fault_stats(self, fault_log, fault_free, tmp_path):
        registry = MetricsRegistry()
        store = self._checkpoint(tmp_path, registry)
        engine = PipelineEngine(
            workers=3,
            shard_size=SHARD_SIZE,
            executor="thread",
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.0),
            metrics=registry,
        )
        partials = engine.map(
            fused_shard_task,
            _shard_tasks(_flaky(fault_log)),
            checkpoint=store,
            encode=GRAPH.encode_shard,
            decode=GRAPH.decode_shard,
        )
        assert _leakage(partials) == fault_free

        snap = registry.snapshot()
        stats = store.fault_stats()
        # The sidecar on disk and the in-memory snapshot describe the
        # same run: attempt totals recovered from either must agree.
        assert stats["shards"] == snap.counter("pipeline.shards_completed") == 6
        assert stats["total_attempts"] == snap.counter("pipeline.shard_attempts")
        assert snap.counter("checkpoint.shards_recorded") == 6
        assert snap.counter("checkpoint.duplicate_records") == 0

    def test_resume_hit_rate(self, fault_log, fault_free, tmp_path):
        first = MetricsRegistry()
        store = self._checkpoint(tmp_path, first)
        engine = PipelineEngine(workers=1, shard_size=SHARD_SIZE, metrics=first)
        tasks = _shard_tasks(fault_log)
        engine.map(
            fused_shard_task,
            tasks,
            checkpoint=store,
            encode=GRAPH.encode_shard,
            decode=GRAPH.decode_shard,
        )
        assert first.snapshot().gauge("pipeline.checkpoint_hit_rate") == 0.0

        second = MetricsRegistry()
        resumed_store = self._checkpoint(tmp_path, second)
        resumed_engine = PipelineEngine(
            workers=1, shard_size=SHARD_SIZE, metrics=second
        )
        partials = resumed_engine.map(
            fused_shard_task,
            tasks,
            checkpoint=resumed_store,
            encode=GRAPH.encode_shard,
            decode=GRAPH.decode_shard,
        )
        assert _leakage(partials) == fault_free
        snap = second.snapshot()
        assert snap.counter("pipeline.shards_resumed") == 6
        assert snap.gauge("pipeline.checkpoint_hit_rate") == 1.0
        assert snap.counter("pipeline.shards_completed") == 0
        assert snap.counter("checkpoint.shards_recorded") == 0
