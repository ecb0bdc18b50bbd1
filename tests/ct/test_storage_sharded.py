"""Sharded re-analysis and checkpointing of stored harvests.

A harvest saved serially must load and verify identically when
re-analyzed with ``workers > 1``, a checkpointed run must equal the
unchecked one, and a corrupted or mismatched shard checkpoint must
raise :class:`LogStorageError` rather than silently resuming.
"""

import json
import os

import pytest

from repro.ct import storage
from repro.ct.log import CTLog
from repro.ct.storage import (
    HarvestCheckpoint,
    LogStorageError,
    dump_log,
    load_log,
)
from repro.dataset import CertCorpus, analyze, fused, sections_graph
from repro.dataset.sections import SECTIONS_PASS
from repro.dnscore.psl import PublicSuffixList
from repro.obs import MetricsRegistry
from repro.pipeline import PipelineEngine
from repro.resilience import DegradedResult
from repro.workloads.scenario import seeded_log
from repro.x509.ca import IssuanceRequest

# CI's fault-injection job pins one pool executor per matrix leg via
# REPRO_EXECUTOR; locally both run.
POOL_EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)


def _open_checkpoint(path):
    """The sidecar :func:`analyze` opens for ``path`` at shard size 6."""
    head = CertCorpus.from_stored(path).tree_head
    return HarvestCheckpoint(
        f"{path}.checkpoint",
        pass_name=SECTIONS_PASS,
        shard_size=6,
        tree_size=head["tree_size"],
        root_hash=head["root_hash"],
    )


def _comparable(sections):
    """A sections result with the matrix as plain cells (``Counter2D``
    has no ``==``)."""
    return {**sections, "matrix": sections["matrix"].cells()}


@pytest.fixture()
def harvest(tmp_path, ca, fresh_logs, now):
    """A serially saved harvest of one log with 20 certificates."""
    log = fresh_logs["Google Pilot log"]
    for index in range(20):
        ca.issue(
            IssuanceRequest(
                (f"host{index}.example.org", f"www.host{index}.example.org")
            ),
            [log],
            now,
        )
    path = tmp_path / "pilot.jsonl"
    count = dump_log(log, path)
    assert count == len(log.entries)
    return path, log


class TestShardedHarvestAnalysis:
    def test_parallel_reanalysis_matches_serial(self, harvest):
        path, _ = harvest
        serial = analyze(CertCorpus.from_stored(path), sections_graph())
        parallel = analyze(
            CertCorpus.from_stored(path),
            sections_graph(),
            PipelineEngine(workers=3, shard_size=7),
        )
        assert parallel["leakage"] == serial["leakage"]
        assert _comparable(parallel) == _comparable(serial)
        assert serial["leakage"].unique_fqdns == 40  # 2 names per certificate

    def test_harvest_still_loads_and_verifies(self, harvest):
        path, log = harvest
        analyze(
            CertCorpus.from_stored(path),
            sections_graph(),
            PipelineEngine(workers=2, shard_size=5),
        )
        restored = CTLog(name=log.name, operator=log.operator, key=log.key)
        assert load_log(path, restored) == len(log.entries)
        assert restored.tree.root() == log.tree.root()


class TestHarvestCheckpoint:
    def _checkpoint_path(self, harvest_path):
        return harvest_path.with_name(harvest_path.name + ".checkpoint")

    def test_resume_skips_completed_shards(self, harvest):
        path, _ = harvest
        engine = PipelineEngine(workers=2, shard_size=6)
        first = analyze(
            CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
        )
        sidecar = self._checkpoint_path(path)
        assert sidecar.exists()
        lines = sidecar.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 4  # header + ceil(20 / 6) shards
        resumed = analyze(
            CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
        )
        assert _comparable(resumed) == _comparable(first)
        # No shard was re-recorded on resume.
        assert len(sidecar.read_text(encoding="utf-8").splitlines()) == len(lines)

    def test_serial_run_resumes_a_pooled_sidecar(self, harvest):
        path, _ = harvest
        pooled = analyze(
            CertCorpus.from_stored(path),
            sections_graph(),
            PipelineEngine(workers=2, shard_size=6),
            checkpoint=True,
        )
        registry = MetricsRegistry()
        serial = PipelineEngine(workers=1, shard_size=6, metrics=registry)
        resumed = analyze(
            CertCorpus.from_stored(path), sections_graph(), serial, checkpoint=True
        )
        # The shard plan follows shard_size, not the executor.
        assert registry.snapshot().gauge("pipeline.checkpoint_hit_rate") == 1.0
        assert _comparable(resumed) == _comparable(pooled)
        assert _comparable(resumed) == _comparable(
            analyze(CertCorpus.from_stored(path), sections_graph())
        )

    def test_corrupted_checkpoint_raises(self, harvest):
        path, _ = harvest
        engine = PipelineEngine(workers=2, shard_size=6)
        analyze(CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True)
        sidecar = self._checkpoint_path(path)
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text[:-15] + "{garbled\n", encoding="utf-8")
        with pytest.raises(LogStorageError, match="corrupted shard checkpoint"):
            analyze(
                CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
            )

    def test_mismatched_shard_plan_rejected(self, harvest):
        path, _ = harvest
        analyze(
            CertCorpus.from_stored(path),
            sections_graph(),
            PipelineEngine(workers=1, shard_size=6),
            checkpoint=True,
        )
        with pytest.raises(LogStorageError, match="does not match"):
            analyze(
                CertCorpus.from_stored(path),
                sections_graph(),
                PipelineEngine(workers=1, shard_size=9),
                checkpoint=True,
            )

    def test_other_month_window_rejected(self, harvest):
        path, _ = harvest
        engine = PipelineEngine(workers=1, shard_size=6)
        analyze(
            CertCorpus.from_stored(path),
            sections_graph(month="2018-04"),
            engine,
            checkpoint=True,
        )
        with pytest.raises(LogStorageError, match="does not match"):
            analyze(
                CertCorpus.from_stored(path),
                sections_graph(month="2018-03"),
                engine,
                checkpoint=True,
            )

    def test_other_psl_rejected(self, harvest):
        path, _ = harvest
        engine = PipelineEngine(workers=1, shard_size=6)
        custom = PublicSuffixList(extra_rules=["example.org"])
        analyze(
            CertCorpus.from_stored(path),
            sections_graph(psl=custom),
            engine,
            checkpoint=True,
        )
        with pytest.raises(LogStorageError, match="does not match"):
            analyze(
                CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
            )

    def test_rewritten_harvest_invalidates_checkpoint(self, harvest, ca, now):
        path, log = harvest
        engine = PipelineEngine(workers=1, shard_size=6)
        analyze(CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True)
        # Re-harvest with one more entry: same sidecar, different head.
        ca.issue(IssuanceRequest(("extra.example.org",)), [log], now)
        dump_log(log, path)
        with pytest.raises(LogStorageError, match="does not match"):
            analyze(
                CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
            )

    def test_harvest_missing_entries_is_not_checkpointed(self, harvest):
        path, _ = harvest
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(
            "".join(lines[:5] + ["{garbled\n"] + lines[6:]), encoding="utf-8"
        )
        # Unchecked, the skipped line is just missing from the corpus...
        unchecked = analyze(CertCorpus.from_stored(path), sections_graph())
        assert unchecked["leakage"].unique_fqdns == 38
        # ...but shard partials bound to the tree head would cover
        # other entries than the head does.
        with pytest.raises(LogStorageError, match="cannot checkpoint"):
            analyze(
                CertCorpus.from_stored(path),
                sections_graph(),
                PipelineEngine(shard_size=6),
                checkpoint=True,
            )

    def test_checkpointed_run_reads_the_harvest_once(self, harvest, monkeypatch):
        path, _ = harvest
        passes = []
        iter_stored_entries = storage.iter_stored_entries

        def counted(*args, **kwargs):
            passes.append(args[0])
            return iter_stored_entries(*args, **kwargs)

        monkeypatch.setattr(storage, "iter_stored_entries", counted)
        engine = PipelineEngine(workers=1, shard_size=6)
        for run in ("cold", "resumed"):
            passes.clear()
            analyze(
                CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
            )
            assert passes == [path], run

    def test_harvest_without_trailer_is_not_checkpointed(self, harvest):
        path, _ = harvest
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert '"tree-head"' in lines[-1]
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(LogStorageError, match="no tree-head trailer"):
            analyze(
                CertCorpus.from_stored(path),
                sections_graph(),
                PipelineEngine(shard_size=6),
                checkpoint=True,
            )

    def test_malformed_shard_record_rejected(self, harvest):
        path, _ = harvest
        checkpoint = _open_checkpoint(path)
        checkpoint.record(0, {"total": 1, "invalid": 0, "candidates": []})
        with checkpoint.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "shard"}) + "\n")
        with pytest.raises(LogStorageError, match="malformed shard record"):
            checkpoint.completed()

    def test_clear_removes_sidecar(self, harvest):
        path, _ = harvest
        checkpoint = _open_checkpoint(path)
        checkpoint.record(0, None)
        assert checkpoint.path.exists()
        checkpoint.clear()
        assert not checkpoint.path.exists()
        assert checkpoint.completed() == {}


class TestCheckpointFaultAccounting:
    def _fresh(self, harvest):
        path, _ = harvest
        return _open_checkpoint(path)

    def test_duplicate_record_is_a_noop_first_wins(self, harvest):
        checkpoint = self._fresh(harvest)
        checkpoint.record(0, {"v": "first"})
        checkpoint.record(0, {"v": "second"})
        assert checkpoint.completed() == {0: {"v": "first"}}
        lines = checkpoint.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2  # header + one shard record

    def test_duplicate_survives_reload(self, harvest):
        checkpoint = self._fresh(harvest)
        checkpoint.record(1, {"v": "first"})
        reopened = self._fresh(harvest)
        reopened.record(1, {"v": "second"})
        assert reopened.completed() == {1: {"v": "first"}}

    def test_attempts_recorded_and_aggregated(self, harvest):
        checkpoint = self._fresh(harvest)
        checkpoint.record(0, {"v": 0})
        checkpoint.record(1, {"v": 1}, attempts=3)
        checkpoint.record(2, {"v": 2}, attempts=2)
        stats = checkpoint.fault_stats()
        assert stats["shards"] == 3
        assert stats["retried_shards"] == 2
        assert stats["total_attempts"] == 6

    def test_degraded_marker_round_trips(self, harvest):
        class Report:
            failed_indices = [2, 3]
            retries = 5

        checkpoint = self._fresh(harvest)
        checkpoint.record(0, {"v": 0})
        checkpoint.record_degraded(Report())
        # Degraded markers never masquerade as completed shards.
        assert set(checkpoint.completed()) == {0}
        stats = checkpoint.fault_stats()
        assert stats["degraded_runs"] == 1
        assert stats["degraded_indices"] == [2, 3]
        assert stats["degraded_retries"] == 5

    def test_degraded_engine_run_writes_marker(self, harvest):
        path, _ = harvest

        def fail_shard_two(payload):
            _, start, stop = payload
            if start == 12:  # shard 2 at shard_size=6
                raise RuntimeError("lost shard")
            return list(range(start, stop))

        from repro.resilience import RetryPolicy, TransientLogError

        checkpoint = self._fresh(harvest)
        engine = PipelineEngine(
            workers=1,
            shard_size=6,
            retry=RetryPolicy(
                max_attempts=2,
                base_delay_s=0.0,
                retryable=(TransientLogError,),
            ),
            on_error="degrade",
        )
        from repro.pipeline.shard import plan_sequence_shards

        shards = plan_sequence_shards(20, 6)
        tasks = [(str(path), s.start, s.stop) for s in shards]
        result = engine.map(fail_shard_two, tasks, checkpoint=checkpoint)
        assert result.degradation.failed_indices == [2]
        stats = checkpoint.fault_stats()
        assert stats["shards"] == 3
        assert stats["degraded_runs"] == 1
        assert stats["degraded_indices"] == [2]


@pytest.fixture()
def duplicated_harvest(tmp_path):
    """12 entries, entry 3's line written twice (a resumed writer)."""
    path = tmp_path / "dup.jsonl"
    dump_log(seeded_log(1, 12), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:4] + [lines[3]] + lines[4:]), encoding="utf-8")
    return path


class TestDuplicatedRecordHarvest:
    """A repeated entry line counts once, checkpointed or not.

    A reader that takes entries [0, 12) by line position instead of by
    index loses entry 11 here: ``seed11`` goes missing (11 unique
    FQDNs).
    """

    @pytest.mark.parametrize("executor", ["serial", *POOL_EXECUTORS])
    def test_checkpointed_run_equals_unchecked(self, duplicated_harvest, executor):
        unchecked = analyze(
            CertCorpus.from_stored(duplicated_harvest), sections_graph()
        )
        engine = PipelineEngine(workers=2, shard_size=5, executor=executor)
        checkpointed = analyze(
            CertCorpus.from_stored(duplicated_harvest),
            sections_graph(),
            engine,
            checkpoint=True,
        )
        assert _comparable(checkpointed) == _comparable(unchecked)
        assert checkpointed["leakage"].unique_fqdns == 12
        assert "seed11" in checkpointed["leakage"].label_counts
        resumed = analyze(
            CertCorpus.from_stored(duplicated_harvest),
            sections_graph(),
            engine,
            checkpoint=True,
        )
        assert _comparable(resumed) == _comparable(unchecked)


class TestDegradeThenResume:
    def test_resume_reruns_exactly_the_lost_shards(self, harvest, monkeypatch):
        path, _ = harvest  # 20 entries -> 4 shards of 5
        ran = []
        real_task = fused.fused_shard_task

        def losing_task(payload):
            if payload[1].start in (5, 15):  # shards 1 and 3
                raise RuntimeError("lost shard")
            return real_task(payload)

        def spying_task(payload):
            ran.append(payload[1].start // 5)
            return real_task(payload)

        engine = PipelineEngine(workers=1, shard_size=5, on_error="degrade")
        monkeypatch.setattr(fused, "fused_shard_task", losing_task)
        outcome = analyze(
            CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
        )
        assert isinstance(outcome, DegradedResult)
        assert outcome.report.failed_indices == [1, 3]
        sidecar = path.with_name(path.name + ".checkpoint")
        records = [
            json.loads(line)
            for line in sidecar.read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert [r["index"] for r in records if r["type"] == "shard"] == [0, 2]
        assert [r["indices"] for r in records if r["type"] == "degraded"] == [
            [1, 3]
        ]

        monkeypatch.setattr(fused, "fused_shard_task", spying_task)
        resumed = analyze(
            CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
        )
        assert ran == [1, 3]
        assert resumed.report.ok
        monkeypatch.undo()
        assert _comparable(resumed.value) == _comparable(
            analyze(CertCorpus.from_stored(path), sections_graph())
        )
