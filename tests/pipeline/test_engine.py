"""The map-reduce executor."""

import pytest

from repro.pipeline.engine import MapResult, PipelineEngine
from repro.resilience import (
    DegradedResult,
    RetryPolicy,
    ShardFailedError,
    TransientLogError,
)


def square_sum(chunk):
    """Module-level so process pools can pickle it."""
    return sum(value * value for value in chunk)


def explode(_chunk):
    raise RuntimeError("worker failed")


def fail_singletons(chunk):
    """Permanent (but retryable-class) failure for one-element shards."""
    if len(chunk) == 1:
        raise TransientLogError(f"singleton shard {chunk}")
    return square_sum(chunk)


class FlakyMap:
    """Fails the first ``failures`` calls per task (serial/thread only)."""

    def __init__(self, failures=2, exc=TransientLogError):
        self.failures = failures
        self.exc = exc
        self.calls = {}

    def __call__(self, chunk):
        key = tuple(chunk)
        count = self.calls.get(key, 0) + 1
        self.calls[key] = count
        if count <= self.failures:
            raise self.exc(f"flaky {key} attempt {count}")
        return square_sum(chunk)


def fast_retry(max_attempts=3):
    return RetryPolicy(max_attempts=max_attempts, base_delay_s=0.0)


class RecordingCheckpoint:
    """In-memory stand-in for HarvestCheckpoint."""

    def __init__(self, initial=None):
        self.store = dict(initial or {})
        self.recorded = []
        self.degraded = []

    def completed(self):
        return dict(self.store)

    def record(self, index, payload, *, attempts=1):
        self.recorded.append(index)
        self.store[index] = payload

    def record_degraded(self, report):
        self.degraded.append(report)


TASKS = [[1, 2], [3, 4], [5], [6, 7, 8]]
EXPECTED = [5, 25, 25, 149]


class TestConstruction:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            PipelineEngine(workers=0)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            PipelineEngine(shard_size=0)

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            PipelineEngine(executor="fibers")

    def test_serial_fallback_detection(self):
        assert PipelineEngine(workers=1).serial
        assert PipelineEngine(workers=8, executor="serial").serial
        assert not PipelineEngine(workers=2).serial


class TestMap:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_results_in_task_order(self, executor):
        engine = PipelineEngine(workers=3, executor=executor)
        assert engine.map(square_sum, TASKS) == EXPECTED

    def test_map_reduce(self):
        engine = PipelineEngine(workers=2, executor="thread")
        assert engine.map_reduce(square_sum, TASKS, sum) == sum(EXPECTED)

    def test_empty_tasks(self):
        assert PipelineEngine(workers=2).map(square_sum, []) == []

    def test_worker_errors_propagate(self):
        engine = PipelineEngine(workers=2, executor="thread")
        with pytest.raises(RuntimeError, match="worker failed"):
            engine.map(explode, TASKS)


class TestShardContext:
    """A failing shard aborts the run with its index in the error."""

    def test_rejects_unknown_on_error(self):
        with pytest.raises(ValueError):
            PipelineEngine(on_error="ignore")

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_failure_names_the_shard(self, executor):
        engine = PipelineEngine(workers=2, executor=executor)
        with pytest.raises(ShardFailedError) as excinfo:
            engine.map(fail_singletons, TASKS)
        assert excinfo.value.index == 2  # [5] is the only singleton
        assert "shard 2" in str(excinfo.value)
        assert excinfo.value.attempts == 1

    def test_map_result_carries_no_report_when_raising(self):
        result = PipelineEngine(workers=1).map(square_sum, TASKS)
        assert isinstance(result, MapResult)
        assert result.degradation is None
        assert result == EXPECTED


class TestShardRetry:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_transient_failures_are_retried_to_success(self, executor):
        engine = PipelineEngine(
            workers=2, executor=executor, retry=fast_retry(3)
        )
        flaky = FlakyMap(failures=2)
        assert engine.map(flaky, TASKS) == EXPECTED
        assert all(count == 3 for count in flaky.calls.values())

    def test_exhausted_retries_name_shard_and_attempts(self):
        engine = PipelineEngine(workers=1, retry=fast_retry(2))
        with pytest.raises(ShardFailedError) as excinfo:
            engine.map(FlakyMap(failures=5), TASKS)
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 2

    def test_non_retryable_errors_fail_fast(self):
        engine = PipelineEngine(workers=1, retry=fast_retry(4))
        flaky = FlakyMap(failures=5, exc=KeyError)
        with pytest.raises(ShardFailedError) as excinfo:
            engine.map(flaky, TASKS)
        assert excinfo.value.attempts == 1
        assert flaky.calls[(1, 2)] == 1

    def test_retried_shards_record_attempts_in_checkpoint(self):
        class AttemptsCheckpoint(RecordingCheckpoint):
            def __init__(self):
                super().__init__()
                self.attempts = {}

            def record(self, index, payload, *, attempts=1):
                super().record(index, payload)
                self.attempts[index] = attempts

        checkpoint = AttemptsCheckpoint()
        engine = PipelineEngine(workers=1, retry=fast_retry(3))
        engine.map(FlakyMap(failures=2), TASKS, checkpoint=checkpoint)
        assert checkpoint.attempts == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_legacy_checkpoints_without_attempts_still_work(self):
        checkpoint = RecordingCheckpoint()
        engine = PipelineEngine(workers=1, retry=fast_retry(3))
        engine.map(FlakyMap(failures=1), TASKS, checkpoint=checkpoint)
        assert checkpoint.store == dict(enumerate(EXPECTED))


class TestDegradedRuns:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_failed_shards_are_reported_not_raised(self, executor):
        engine = PipelineEngine(
            workers=2,
            executor=executor,
            retry=fast_retry(2),
            on_error="degrade",
        )
        result = engine.map(fail_singletons, TASKS)
        assert result == [5, 25, None, 149]
        report = result.degradation
        assert report is not None
        assert report.failed_indices == [2]
        assert report.total_shards == 4
        assert not report.ok
        assert report.completed_shards == 3
        assert report.failed[0].attempts == 2
        assert "TransientLogError" in report.failed[0].error
        # The failed shard's wasted retry is part of the bill.
        assert report.retries == 1

    def test_clean_degrade_run_reports_ok(self):
        engine = PipelineEngine(workers=1, on_error="degrade")
        result = engine.map(square_sum, TASKS)
        assert result == EXPECTED
        assert result.degradation is not None
        assert result.degradation.ok
        assert result.degradation.failed == ()

    def test_map_reduce_skips_lost_shards_and_pairs_report(self):
        engine = PipelineEngine(
            workers=1, retry=fast_retry(2), on_error="degrade"
        )
        outcome = engine.map_reduce(fail_singletons, TASKS, sum)
        assert isinstance(outcome, DegradedResult)
        assert outcome.value == 5 + 25 + 149
        assert outcome.report.failed_indices == [2]

    def test_successful_shards_are_still_checkpointed(self):
        checkpoint = RecordingCheckpoint()
        engine = PipelineEngine(workers=1, on_error="degrade")
        engine.map(fail_singletons, TASKS, checkpoint=checkpoint)
        assert sorted(checkpoint.recorded) == [0, 1, 3]
        assert [r.failed_indices for r in checkpoint.degraded] == [[2]]

    def test_degrade_counts_retries_of_recovered_shards(self):
        engine = PipelineEngine(
            workers=1, retry=fast_retry(3), on_error="degrade"
        )
        result = engine.map(FlakyMap(failures=2), TASKS)
        assert result == EXPECTED
        assert result.degradation.ok
        assert result.degradation.retries == 2 * len(TASKS)


class TestCheckpointing:
    def test_completed_shards_are_skipped(self):
        # Shard 1 is pre-recorded with a sentinel value: if the engine
        # re-ran it, the sentinel would be overwritten.
        checkpoint = RecordingCheckpoint({1: -1})
        engine = PipelineEngine(workers=1)
        results = engine.map(square_sum, TASKS, checkpoint=checkpoint)
        assert results == [5, -1, 25, 149]
        assert sorted(checkpoint.recorded) == [0, 2, 3]

    def test_new_shards_are_recorded(self):
        checkpoint = RecordingCheckpoint()
        engine = PipelineEngine(workers=2, executor="thread")
        engine.map(square_sum, TASKS, checkpoint=checkpoint)
        assert checkpoint.store == dict(enumerate(EXPECTED))

    def test_encode_decode_round_trip(self):
        checkpoint = RecordingCheckpoint()
        engine = PipelineEngine(workers=1)
        first = engine.map(
            square_sum,
            TASKS,
            checkpoint=checkpoint,
            encode=str,
            decode=int,
        )
        resumed = engine.map(
            square_sum,
            TASKS,
            checkpoint=checkpoint,
            encode=str,
            decode=int,
        )
        assert first == resumed == EXPECTED
        assert checkpoint.store[0] == "5"
