"""The sharded map-reduce executor.

:class:`PipelineEngine` fans shard tasks out to a
``concurrent.futures`` pool (process or thread) and hands the partial
results, **in shard order**, to a reduce function.  ``workers=1`` is
the serial fallback: the same map/reduce code runs inline, so the
parallel path can be validated against it bit-for-bit.

A checkpoint object (see :class:`repro.ct.storage.HarvestCheckpoint`)
may be attached to a run; completed shards are then skipped on resume
and newly finished shards are recorded as they complete.

Fault tolerance (see :mod:`repro.resilience`): an attached
:class:`~repro.resilience.RetryPolicy` re-runs failed shards inside
the worker with backoff; when retries are exhausted the engine either
raises :class:`~repro.resilience.ShardFailedError` naming the shard
(``on_error="raise"``, the default) or drops the shard and reports it
in a :class:`~repro.resilience.DegradationReport`
(``on_error="degrade"``).
"""

from __future__ import annotations

import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.events import NULL_EVENTS, EventLog, record
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.pipeline.shard import DEFAULT_SHARD_SIZE
from repro.resilience.degrade import (
    DegradationReport,
    DegradedResult,
    FailedShard,
    ShardFailedError,
)
from repro.resilience.retry import RetryExhaustedError, RetryPolicy

MapFn = Callable[[Any], Any]
ReduceFn = Callable[[List[Any]], Any]
Codec = Callable[[Any], Any]

EXECUTORS = ("process", "thread", "serial")
ON_ERROR_MODES = ("raise", "degrade")


class MapResult(List[Any]):
    """A :meth:`PipelineEngine.map` result: a plain list of partials
    in task order, plus the run's :class:`DegradationReport` when the
    engine ran with ``on_error="degrade"`` (``None`` otherwise)."""

    degradation: Optional[DegradationReport] = None


def _run_task(
    map_fn: MapFn,
    task: Any,
    retry: Optional[RetryPolicy],
    submitted_at: float,
) -> Tuple[Any, int, float, float]:
    """Execute one shard (module-level so process pools can pickle it).

    Returns ``(result, attempts, seconds, queue_wait)``; the retry loop
    runs *inside* the worker, so transient faults never cross the pool
    boundary.  ``seconds`` is the shard's own run time; ``submitted_at``
    is a ``time.time()`` stamp taken at submission, and the gap to the
    worker picking the task up is the shard's ``queue_wait``.  Both
    travel back as plain numbers into the ``shard_finish`` event.
    """
    queue_wait = max(0.0, time.time() - submitted_at)
    started = time.perf_counter()
    if retry is None:
        value, attempts = map_fn(task), 1
    else:
        outcome = retry.run(lambda: map_fn(task))
        value, attempts = outcome.value, outcome.attempts
    return value, attempts, time.perf_counter() - started, queue_wait


def _failure_attempts(exc: BaseException) -> int:
    return exc.attempts if isinstance(exc, RetryExhaustedError) else 1


def _failure_cause(exc: BaseException) -> BaseException:
    if isinstance(exc, RetryExhaustedError) and exc.__cause__ is not None:
        return exc.__cause__
    return exc


class PipelineEngine:
    """Fan shard tasks out to a worker pool and merge in shard order.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` (the default) runs everything inline —
        the opt-in serial fallback that parallel results are asserted
        against.
    shard_size:
        Target entries per shard; passes use it when planning shards.
    executor:
        ``"process"`` (default), ``"thread"``, or ``"serial"``.
        Process pools need picklable map functions (module-level) and
        task payloads; thread pools trade that constraint for the GIL.
    retry:
        Optional :class:`RetryPolicy` applied per shard, inside the
        worker.  With a process pool the policy (and its RNG) must be
        picklable; the stock policy is.
    on_error:
        ``"raise"`` (default) aborts the run with a
        :class:`ShardFailedError` naming the failing shard;
        ``"degrade"`` completes the run without the failed shards and
        attaches a :class:`DegradationReport`.
    metrics:
        A :class:`repro.obs.MetricsRegistry`; every run records
        per-shard duration/queue-wait histograms, attempt/retry
        counters, failed/degraded shard counters (with a per-shard
        ``shard=`` label on failures), and checkpoint resume hit rate,
        all derived from the run's events.  Workers return their
        timings with their results, so serial and parallel runs report
        identical counter totals.
    tracer:
        A :class:`repro.obs.SpanTracer`; ``map_reduce`` records nested
        ``pipeline.map_reduce`` / ``pipeline.map`` / ``pipeline.reduce``
        spans (coordinator-side wall time).
    events:
        A :class:`repro.obs.EventLog`; every run emits live lifecycle
        events from the coordinator thread — ``map_start`` /
        ``map_finish``, one ``shard_finish`` or ``shard_failed`` per
        shard (with attempt counts), ``checkpoint_resume``, and
        ``degraded``.  The shard counters are derived from these
        events (see :func:`repro.obs.record`).
    """

    def __init__(
        self,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        executor: str = "process",
        retry: Optional[RetryPolicy] = None,
        on_error: str = "raise",
        metrics: MetricsRegistry = NULL_METRICS,
        tracer: SpanTracer = NULL_TRACER,
        events: EventLog = NULL_EVENTS,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        self.workers = workers
        self.shard_size = shard_size
        self.executor = executor
        self.retry = retry
        self.on_error = on_error
        self.metrics = metrics
        self.tracer = tracer
        self.events = events

    @property
    def serial(self) -> bool:
        """True when map tasks run inline rather than on a pool."""
        return self.workers == 1 or self.executor == "serial"

    @property
    def degrading(self) -> bool:
        """True when exhausted shards degrade instead of raising."""
        return self.on_error == "degrade"

    # -- execution -----------------------------------------------------------

    def map(
        self,
        map_fn: MapFn,
        tasks: Sequence[Any],
        *,
        checkpoint: Optional[Any] = None,
        encode: Optional[Codec] = None,
        decode: Optional[Codec] = None,
    ) -> MapResult:
        """Run ``map_fn`` over every task; return partials in task order.

        ``checkpoint`` must offer ``completed() -> Dict[int, payload]``,
        ``record(index, payload, *, attempts)`` and
        ``record_degraded(report)``, as
        :class:`repro.ct.storage.HarvestCheckpoint` does;
        ``encode``/``decode`` convert partials to/from the checkpoint's
        serializable payloads.

        A shard that exhausts its retries raises
        :class:`ShardFailedError` (``on_error="raise"``) or is left as
        ``None`` in the result with a :class:`DegradationReport`
        attached (``on_error="degrade"``); either way the shards that
        did finish are already checkpointed, and the report (if any)
        is appended to the checkpoint as well.
        """
        results = MapResult([None] * len(tasks))
        pending = list(range(len(tasks)))
        if checkpoint is not None:
            done = checkpoint.completed()
            resumed = 0
            for index, payload in done.items():
                if 0 <= index < len(results):
                    results[index] = decode(payload) if decode else payload
                    resumed += 1
            pending = [i for i in pending if i not in done]
            if tasks:
                record(
                    self.metrics, self.events, "checkpoint_resume",
                    shards=resumed, hit_rate=resumed / len(tasks),
                )
        record(
            self.metrics, self.events, "map_start",
            shards=len(tasks), pending=len(pending),
        )
        failures: List[FailedShard] = []
        retries = 0

        def finish(
            index: int, value: Any, attempts: int, seconds: float, queue_wait: float
        ) -> None:
            nonlocal retries
            retries += attempts - 1
            results[index] = value
            if checkpoint is not None:
                checkpoint.record(
                    index, encode(value) if encode else value, attempts=attempts
                )
            record(
                self.metrics, self.events, "shard_finish",
                shard=index, attempts=attempts,
                duration_ms=round(seconds * 1e3, 3),
                queue_wait_ms=round(queue_wait * 1e3, 3),
            )

        def fail(index: int, exc: BaseException) -> None:
            nonlocal retries
            attempts = _failure_attempts(exc)
            cause = _failure_cause(exc)
            record(
                self.metrics, self.events, "shard_failed",
                shard=index, attempts=attempts, error=repr(cause),
            )
            if not self.degrading:
                raise ShardFailedError(index, attempts, cause) from exc
            retries += attempts - 1
            failures.append(FailedShard(index, repr(cause), attempts))

        with self.tracer.span(
            "pipeline.map", shards=len(tasks), pending=len(pending)
        ):
            if self.serial or len(pending) <= 1:
                for index in pending:
                    try:
                        outcome = _run_task(
                            map_fn, tasks[index], self.retry, time.time()
                        )
                    except Exception as exc:
                        fail(index, exc)
                        continue
                    finish(index, *outcome)
            else:
                pool_cls = (
                    ProcessPoolExecutor
                    if self.executor == "process"
                    else ThreadPoolExecutor
                )
                pool: Executor
                with pool_cls(
                    max_workers=min(self.workers, len(pending))
                ) as pool:
                    futures = {
                        pool.submit(
                            _run_task, map_fn, tasks[i], self.retry, time.time()
                        ): i
                        for i in pending
                    }
                    for future in as_completed(futures):
                        index = futures[future]
                        try:
                            outcome = future.result()
                        except Exception as exc:
                            fail(index, exc)
                            continue
                        finish(index, *outcome)

        if self.degrading:
            report = DegradationReport(
                total_shards=len(tasks),
                failed=tuple(sorted(failures, key=lambda f: f.index)),
                retries=retries,
            )
            results.degradation = report
            if report.failed:
                self.events.emit(
                    "degraded",
                    failed=list(report.failed_indices),
                    retries=report.retries,
                )
            if checkpoint is not None and report.failed:
                checkpoint.record_degraded(report)
        self.events.emit(
            "map_finish",
            shards=len(tasks),
            completed=sum(1 for r in results if r is not None),
            failed=len(failures),
        )
        return results

    def map_reduce(
        self,
        map_fn: MapFn,
        tasks: Sequence[Any],
        reduce_fn: ReduceFn,
        *,
        checkpoint: Optional[Any] = None,
        encode: Optional[Codec] = None,
        decode: Optional[Codec] = None,
    ) -> Any:
        """``reduce_fn`` over the ordered partials of :meth:`map`.

        With ``on_error="degrade"`` the reduce runs over the shards
        that survived (still in shard order) and the return value is a
        :class:`DegradedResult` pairing it with the run's report.
        """
        with self.tracer.span("pipeline.map_reduce", shards=len(tasks)):
            partials = self.map(
                map_fn,
                tasks,
                checkpoint=checkpoint,
                encode=encode,
                decode=decode,
            )
            report = partials.degradation
            if report is None:
                return self._reduce(reduce_fn, list(partials))
            lost = set(report.failed_indices)
            value = self._reduce(
                reduce_fn,
                [partial for i, partial in enumerate(partials) if i not in lost],
            )
            return DegradedResult(value=value, report=report)

    def _reduce(self, reduce_fn: ReduceFn, partials: List[Any]) -> Any:
        """Run the reduce under its span and histogram."""
        with self.tracer.span("pipeline.reduce", partials=len(partials)):
            started = time.perf_counter()
            value = reduce_fn(partials)
            self.metrics.observe(
                "pipeline.reduce_seconds", time.perf_counter() - started
            )
            return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PipelineEngine(workers={self.workers}, "
            f"shard_size={self.shard_size}, executor={self.executor!r}, "
            f"retry={self.retry!r}, on_error={self.on_error!r})"
        )

