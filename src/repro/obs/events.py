"""Structured JSONL event log with per-run correlation IDs.

Where :mod:`repro.obs.metrics` answers "how much, in total", this
module answers "what happened, in order" — an append-only stream of
JSON objects emitted *live* (one line per event, flushed as written),
so a long-running monitoring loop can be tailed while it runs instead
of inspected post-mortem.

Every event carries the same envelope::

    {"v": 1, "run": "<correlation id>", "seq": N, "ts": <unix s>,
     "kind": "<event kind>", ...kind-specific fields...}

``seq`` is a gapless per-log sequence number, so a consumer can detect
torn tails; ``run`` correlates every event of one process/run.  Kind
names and their fields are a stable schema (documented in
docs/API.md); the emitting layers are the pipeline engine (run/shard
lifecycle, retries, degradation, checkpoint resume), the feed and the
monitors (per-log fetch outcomes), the STH auditor, the log server
(one event per request) and the sequencer (one per merge).

An operation is recorded once, by :func:`record`: it emits the
operation's event and moves the counters, gauges and histograms that
:data:`EVENT_METRICS` derives from that event's fields (durations
travel as rounded ``*_ms`` fields).  :func:`replay_metrics` folds the
same table over a recorded stream, so the event log and the final
:class:`~repro.obs.metrics.MetricsSnapshot` are two views of one
record.  Metrics of operations that have no event (retries, the
reduce step, corpus builds, sequencer dedup hits and queue depth) are
still moved directly.

:class:`SnapshotDeltaFlusher` is the live-export half: it diffs the
registry against the last flush on an interval and emits the delta as
a ``metrics_flush`` event, so tailing the event log shows counters
move while the loop is still running.

:data:`NULL_EVENTS` is the log every instrumented layer emits into
when none is attached: it writes nothing.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.obs.metrics import (
    BATCH_SIZE_BOUNDS,
    DEFAULT_TIME_BOUNDS,
    NULL_METRICS,
    MetricsRegistry,
    MetricsSnapshot,
    Number,
)

#: Event schema version; bump on any envelope change.
#: v2: added the ``span`` kind (distributed-tracing span records).
EVENT_SCHEMA_VERSION = 2

#: Envelope keys; ``emit`` rejects field names that would shadow them.
ENVELOPE_FIELDS = ("v", "run", "seq", "ts", "kind")
_ENVELOPE_SET = frozenset(ENVELOPE_FIELDS)

#: The stable event kinds (see docs/API.md for their fields).
EVENT_KINDS = (
    "run_start",
    "run_finish",
    "map_start",
    "map_finish",
    "shard_finish",
    "shard_failed",
    "checkpoint_resume",
    "degraded",
    "feed_poll",
    "monitor_fetch",
    "auditor_poll",
    "audit_finding",
    "metrics_flush",
    "log_server_request",
    "sequencer_merge",
    "lightweight_poll",
    "span",
)


def new_run_id() -> str:
    """A fresh correlation ID (12 hex chars; not seeded — identity, not data)."""
    return uuid.uuid4().hex[:12]


class EventLog:
    """Append-only JSONL event stream with an in-memory tail.

    Parameters
    ----------
    path:
        Optional JSONL file, overwritten (like every other artifact
        file); each event is written as one
        ``json.dumps(..., sort_keys=True)`` line and flushed
        immediately, so the file is tail-able while the run is live.
        With ``path=None`` events only fill the in-memory ring.
    run_id:
        Correlation ID stamped on every event; defaults to a fresh
        :func:`new_run_id`.
    clock:
        Unix-seconds source for the ``ts`` field (injectable for
        deterministic tests).
    tail_size:
        Ring-buffer capacity backing :meth:`tail` (and the telemetry
        server's ``/events/tail`` endpoint).

    Thread-safe: emission takes a lock, so feed/monitor loops and the
    telemetry server's handler threads can share one log.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        run_id: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        tail_size: int = 1024,
    ) -> None:
        if tail_size < 1:
            raise ValueError(f"tail_size must be >= 1, got {tail_size}")
        self.path = Path(path) if path is not None else None
        self.run_id = run_id if run_id is not None else new_run_id()
        self._clock = clock if clock is not None else time.time
        self._lock = threading.RLock()
        self._seq = 0
        self._tail: Deque[Dict[str, object]] = deque(maxlen=tail_size)
        self._file: Optional[TextIO] = (
            open(self.path, "w", encoding="utf-8")
            if self.path is not None
            else None
        )

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the full record (envelope + fields)."""
        if not _ENVELOPE_SET.isdisjoint(fields):
            shadowed = sorted(_ENVELOPE_SET.intersection(fields))
            raise ValueError(
                f"event fields {shadowed} shadow envelope keys {ENVELOPE_FIELDS}"
            )
        with self._lock:
            record: Dict[str, object] = {
                "v": EVENT_SCHEMA_VERSION,
                "run": self.run_id,
                "seq": self._seq,
                "ts": round(float(self._clock()), 6),
                "kind": kind,
            }
            for key in sorted(fields):
                record[key] = fields[key]
            self._seq += 1
            self._tail.append(record)
            if self._file is not None:
                self._file.write(json.dumps(record, sort_keys=True) + "\n")
                self._file.flush()
            return record

    # -- inspection ----------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Events emitted so far (== the next ``seq``)."""
        return self._seq

    def tail(self, n: int = 100) -> List[Dict[str, object]]:
        """The most recent ``n`` events, oldest first."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            events = list(self._tail)
        return events[len(events) - n :] if n else []

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _NullEventLog(EventLog):
    """An event log that writes nothing; see :data:`NULL_EVENTS`."""

    def emit(self, kind: str, **fields: object) -> Dict[str, object]:
        return {}

    def __reduce__(self) -> str:
        return "NULL_EVENTS"


#: The default ``events=`` of every instrumented layer: :meth:`emit`
#: records nothing, so the tail stays empty.  Pickles back to this same
#: object.
NULL_EVENTS: EventLog = _NullEventLog()


def read_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL event file; blank lines are ignored."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


Amount = Callable[[Mapping[str, Any]], Optional[Number]]


class MetricRule(NamedTuple):
    """One instrument an event moves: ``instrument`` is ``"inc"`` (a
    counter), ``"set"`` (a gauge) or ``"observe"`` (a histogram with
    ``bounds``); ``labels`` pairs each label with the event field that
    carries its value; ``amount(event)`` is the increment, value or
    observation, ``None`` when the event leaves the metric alone."""

    instrument: str
    metric: str
    labels: Tuple[Tuple[str, str], ...]
    amount: Amount
    bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS


def _one(event: Mapping[str, Any]) -> Number:
    return 1


def _field(name: str) -> Amount:
    return lambda event: event.get(name)


def _nonzero(name: str) -> Amount:
    return lambda event: event.get(name) or None


def _seconds(name: str, only_ok: bool = False) -> Amount:
    """A ``*_ms`` field as seconds (``only_ok``: on ``ok`` events only)."""

    def amount(event: Mapping[str, Any]) -> Optional[Number]:
        value = event.get(name)
        if value is None or (only_ok and not event.get("ok")):
            return None
        return value / 1e3

    return amount


def _failed(event: Mapping[str, Any]) -> Optional[Number]:
    return None if event.get("ok") else 1


def _extra_attempts(event: Mapping[str, Any]) -> Optional[Number]:
    return event.get("attempts", 1) - 1 or None


_LOG = (("log", "log"),)
_MONITOR_LOG = (("monitor", "monitor"), ("log", "log"))

#: Which metrics each event kind moves: ``kind -> MetricRule``s.
#: :func:`record` applies the table as an event is emitted and
#: :func:`replay_metrics` folds it over a recorded stream, so the two
#: cannot disagree.
EVENT_METRICS: Dict[str, Tuple[MetricRule, ...]] = {
    "feed_poll": (
        MetricRule("inc", "feed.entries", _LOG, _field("entries")),
        MetricRule("inc", "feed.poll_errors", _LOG, _failed),
        MetricRule("inc", "feed.poll_retries", _LOG, _nonzero("retried")),
        MetricRule(
            "observe", "feed.fetch_seconds", _LOG,
            _seconds("duration_ms", only_ok=True),
        ),
    ),
    "monitor_fetch": (
        MetricRule("inc", "monitor.entries", _MONITOR_LOG, _field("entries")),
        MetricRule("inc", "monitor.errors", _MONITOR_LOG, _failed),
        MetricRule("inc", "monitor.retries", _MONITOR_LOG, _nonzero("retried")),
        MetricRule(
            "observe", "monitor.fetch_seconds", _MONITOR_LOG,
            _seconds("duration_ms", only_ok=True),
        ),
    ),
    "lightweight_poll": (
        MetricRule("inc", "monitor.wire_entries", _MONITOR_LOG, _field("wire_entries")),
        MetricRule("inc", "monitor.wire_bytes", _MONITOR_LOG, _field("wire_bytes")),
        MetricRule("inc", "monitor.matches", _MONITOR_LOG, _field("matches")),
        MetricRule(
            "set", "monitor.verified_tree_size", _MONITOR_LOG, _field("tree_size")
        ),
    ),
    "auditor_poll": (
        MetricRule("observe", "auditor.poll_seconds", _LOG, _seconds("duration_ms")),
        MetricRule("set", "auditor.tree_size", _LOG, _field("tree_size")),
    ),
    "audit_finding": (
        MetricRule(
            "inc", "auditor.findings", (("log", "log"), ("kind", "finding")), _one
        ),
    ),
    "log_server_request": (
        MetricRule(
            "inc", "log_server.responses",
            (("endpoint", "endpoint"), ("status", "status")), _one,
        ),
        MetricRule(
            "observe", "log_server.request_seconds",
            (("endpoint", "endpoint"),), _seconds("duration_ms"),
        ),
    ),
    "sequencer_merge": (
        MetricRule("inc", "sequencer.merges", _LOG, _one),
        MetricRule("inc", "sequencer.entries_merged", _LOG, _field("batch")),
        MetricRule(
            "observe", "sequencer.merge_batch_size", _LOG, _field("batch"),
            BATCH_SIZE_BOUNDS,
        ),
        MetricRule(
            "observe", "sequencer.merge_lag_seconds", _LOG, _seconds("max_lag_ms")
        ),
    ),
    "checkpoint_resume": (
        MetricRule("inc", "pipeline.shards_resumed", (), _field("shards")),
        MetricRule("set", "pipeline.checkpoint_hit_rate", (), _field("hit_rate")),
    ),
    "map_start": (MetricRule("inc", "pipeline.shards_planned", (), _field("shards")),),
    "shard_finish": (
        MetricRule("inc", "pipeline.shards_completed", (), _one),
        MetricRule("inc", "pipeline.shard_attempts", (), _field("attempts")),
        MetricRule("inc", "pipeline.shard_retries", (), _extra_attempts),
        MetricRule("inc", "pipeline.retries_total", (), _extra_attempts),
        MetricRule("observe", "pipeline.shard_seconds", (), _seconds("duration_ms")),
        MetricRule(
            "observe", "pipeline.shard_queue_wait_seconds", (),
            _seconds("queue_wait_ms"),
        ),
    ),
    "shard_failed": (
        MetricRule("inc", "pipeline.shards_failed", (), _one),
        MetricRule("inc", "pipeline.shard_failures", (("shard", "shard"),), _one),
        MetricRule("inc", "pipeline.failed_shard_attempts", (), _field("attempts")),
        MetricRule("inc", "pipeline.retries_total", (), _extra_attempts),
    ),
}


def _apply(metrics: MetricsRegistry, kind: Any, event: Mapping[str, Any]) -> None:
    for instrument, name, labels, amount, bounds in EVENT_METRICS.get(kind, ()):
        value = amount(event)
        if value is None:
            continue
        tags = {label: event[field] for label, field in labels}
        if instrument == "observe":
            metrics.observe(name, value, bounds, **tags)
        elif instrument == "set":
            metrics.set_gauge(name, value, **tags)
        else:
            metrics.inc(name, value, **tags)


def record(
    metrics: MetricsRegistry, events: EventLog, kind: str, **fields: object
) -> None:
    """Record one operation: move the metrics :data:`EVENT_METRICS`
    derives from its ``kind`` event, then emit the event.

    Both happen under the event log's lock, so the registry sees
    events in stream order and :func:`replay_metrics` repeats its
    float sums and last gauge writes exactly.  Into
    :data:`~repro.obs.metrics.NULL_METRICS` nothing would move, so the
    event is only emitted."""
    if metrics is NULL_METRICS:
        events.emit(kind, **fields)
        return
    with events._lock:
        _apply(metrics, kind, fields)
        events.emit(kind, **fields)


def replay_metrics(events: Iterable[Mapping[str, object]]) -> MetricsSnapshot:
    """The metrics :func:`record` moved for ``events``: for a run with
    metrics and events attached, equal to the final snapshot on every
    family :data:`EVENT_METRICS` names."""
    replayed = MetricsRegistry()
    for event in events:
        _apply(replayed, event.get("kind"), event)
    return replayed.snapshot()


def counter_delta(
    old: MetricsSnapshot, new: MetricsSnapshot
) -> Dict[str, Number]:
    """Counter increments from ``old`` to ``new`` (changed keys only)."""
    delta: Dict[str, Number] = {}
    for key, value in new.counters.items():
        moved = value - old.counters.get(key, 0)
        if moved:
            delta[key] = moved
    return delta


class SnapshotDeltaFlusher:
    """Interval-based live export of counter movement as events.

    Attached to a polling loop (``CertFeed.poll`` calls
    :meth:`maybe_flush` once per round), it emits a ``metrics_flush``
    event whenever ``interval_s`` has elapsed since the last flush,
    carrying the counter *delta* since that flush plus the current
    gauges.  Deltas baseline from an empty snapshot, so the running sum
    of all flushed deltas equals the registry's counters at the last
    flush — :meth:`flush` with no interval check is the loop-shutdown
    hook that makes the stream complete.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        events: EventLog,
        interval_s: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if interval_s < 0:
            raise ValueError(f"interval_s must be >= 0, got {interval_s}")
        self.metrics = metrics
        self.events = events
        self.interval_s = interval_s
        self._clock = clock if clock is not None else time.monotonic
        self._last = MetricsSnapshot.empty()
        self._last_at = self._clock()
        self.flushes = 0

    def maybe_flush(self) -> bool:
        """Flush when the interval has elapsed; returns whether it did."""
        now = self._clock()
        if now - self._last_at < self.interval_s:
            return False
        return self._flush(now)

    def flush(self) -> bool:
        """Flush unconditionally (e.g. on loop shutdown)."""
        return self._flush(self._clock())

    def _flush(self, now: float) -> bool:
        current = self.metrics.snapshot()
        delta = counter_delta(self._last, current)
        self.events.emit(
            "metrics_flush",
            flush=self.flushes,
            counters={key: delta[key] for key in sorted(delta)},
            gauges={key: current.gauges[key] for key in sorted(current.gauges)},
        )
        self._last = current
        self._last_at = now
        self.flushes += 1
        return True
