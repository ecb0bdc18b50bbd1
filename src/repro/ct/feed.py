"""A CertStream-style certificate feed hub.

The paper (Section 6.2) attributes the fastest honeypot reactions to
"a streaming fashion, using e.g., CertStream" — a service that tails
all logs and fans entries out to subscribers.  This module implements
that service shape:

* :class:`CertFeed` tails a set of logs (one cursor per log, started
  at each log's size) and pushes :class:`FeedEvent` items to subscribers;
* subscribers are plain callables; slow consumers are protected by a
  bounded per-subscriber queue with an explicit drop counter (the
  real CertStream drops messages under backpressure too);
* :meth:`CertFeed.backfill` replays historical entries to a new
  subscriber, the way monitors bootstrap;
* polling goes through one :class:`~repro.ct.monitor.LogTail` (the
  same tailer the replay monitors use, writing the ``feed.*`` names),
  over each log's :func:`~repro.ct.monitor.as_transport`: a log whose
  ``get_entries`` fails (after the optional
  :class:`~repro.resilience.RetryPolicy` is exhausted) keeps its
  cursor where it was — no entry is silently skipped — and per-log
  error/retry counters are exposed via :meth:`log_health`;
* polling feeds the live analytics: an attached
  :class:`~repro.dataset.live.LiveAnalytics` (``analytics=``) absorbs
  every poll batch before fan-out, so ``GET /analytics`` reflects a
  batch by the time subscribers see its events;
* polling is live-observable: an attached
  :class:`~repro.obs.events.EventLog` receives one ``feed_poll`` event
  per fetched log (outcome, entries, retries) as it happens,
  ``flush_interval_s`` adds interval-based counter-delta flushing into
  the same stream, and :meth:`health_report` folds the per-log
  counters into ``healthy|degraded|failing`` SLO verdicts (see
  :mod:`repro.obs.health`) — the payload behind a
  :class:`~repro.obs.export.TelemetryServer`'s ``/health`` endpoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from datetime import datetime
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.ct.log import CTLog, LogEntry
from repro.ct.monitor import FEED_TAIL, LogTail, as_transport
from repro.obs.events import NULL_EVENTS, EventLog, SnapshotDeltaFlusher
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

if TYPE_CHECKING:  # avoid a runtime import cycle through repro.ct
    from repro.dataset.live import LiveAnalytics
    from repro.obs.health import HealthReport, SloPolicy
    from repro.resilience.retry import RetryPolicy


@dataclass(frozen=True)
class FeedEvent:
    """One certificate update pushed to subscribers."""

    log_name: str
    entry: LogEntry
    seen_at: datetime

    @property
    def dns_names(self) -> List[str]:
        return self.entry.certificate.dns_names()

    @property
    def issuer(self) -> str:
        return self.entry.certificate.issuer_org


Subscriber = Callable[[FeedEvent], None]


@dataclass
class _Subscription:
    name: str
    callback: Subscriber
    queue: Deque[FeedEvent]
    max_queue: int
    delivered: int = 0
    dropped: int = 0


class CertFeed:
    """Tails logs and fans out new entries to subscribers."""

    def __init__(
        self,
        logs: Iterable[CTLog],
        *,
        max_queue: int = 10_000,
        retry: Optional["RetryPolicy"] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        flush_interval_s: Optional[float] = None,
        analytics: Optional["LiveAnalytics"] = None,
    ) -> None:
        self._logs = list(logs)
        self._transports = [as_transport(log) for log in self._logs]
        self._subs: Dict[str, _Subscription] = {}
        self._default_max_queue = max_queue
        self.metrics = metrics
        self.events = events
        self.analytics = analytics
        self.events_emitted = 0
        self.tail = LogTail(
            FEED_TAIL, retry=retry, metrics=metrics, events=events
        )
        for transport in self._transports:
            self.tail.start(transport.name, transport.tree_size())
        self._flusher = None
        if flush_interval_s is not None:
            if events is NULL_EVENTS or metrics is NULL_METRICS:
                raise ValueError(
                    "flush_interval_s needs both events= and metrics= attached"
                )
            self._flusher = SnapshotDeltaFlusher(
                metrics, events, interval_s=flush_interval_s
            )

    # -- subscription management ---------------------------------------------

    def subscribe(
        self,
        name: str,
        callback: Subscriber,
        *,
        max_queue: Optional[int] = None,
    ) -> None:
        if name in self._subs:
            raise ValueError(f"subscriber {name!r} already registered")
        self._subs[name] = _Subscription(
            name=name,
            callback=callback,
            queue=deque(),
            max_queue=max_queue if max_queue is not None else self._default_max_queue,
        )

    def unsubscribe(self, name: str) -> None:
        self._subs.pop(name, None)

    def subscribers(self) -> List[str]:
        return sorted(self._subs)

    def _require_sub(self, name: str) -> _Subscription:
        sub = self._subs.get(name)
        if sub is None:
            raise ValueError(f"subscriber {name!r} is not registered")
        return sub

    def stats(self, name: str) -> Tuple[int, int, int]:
        """(delivered, queued, dropped) for one subscriber."""
        sub = self._require_sub(name)
        return sub.delivered, len(sub.queue), sub.dropped

    # -- feeding ---------------------------------------------------------------

    def backfill(self, name: str, *, limit: Optional[int] = None) -> int:
        """Replay historical entries (oldest first) to one subscriber.

        Entries from all logs are merged into global submission order;
        ``limit`` caps the *total* number of replayed events (the most
        recent ones win), not the per-log count.  Each delivery is
        counted exactly once.  Returns the number of events replayed.
        """
        sub = self._require_sub(name)
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        merged = sorted(
            (
                (entry.submitted_at, log_order, entry.index, log.name, entry)
                for log_order, log in enumerate(self._logs)
                for entry in log.entries
            ),
            key=lambda item: item[:3],
        )
        if limit is not None:
            merged = merged[len(merged) - limit :] if limit else []
        replayed = 0
        for submitted_at, _, _, log_name, entry in merged:
            sub.callback(FeedEvent(log_name, entry, submitted_at))
            sub.delivered += 1
            replayed += 1
        if replayed:
            self.metrics.inc("feed.backfill_events", replayed, subscriber=name)
        return replayed

    def poll(self, now: datetime) -> int:
        """Pull new entries from all logs and enqueue them everywhere.

        Each log is fetched through :attr:`tail`, a
        :class:`~repro.ct.monitor.LogTail` writing the ``feed.*``
        counters and one ``feed_poll`` event per fetched log.  A log
        whose fetch fails — even after retries — contributes nothing
        this round and its cursor stays put, so the entries are
        delivered (not skipped) by the next successful poll.  The
        optional interval flusher exports counter deltas into the same
        event stream.
        """
        fresh: List[FeedEvent] = []
        for transport in self._transports:
            fresh.extend(
                FeedEvent(transport.name, entry, now)
                for entry in self.tail.fetch(transport)
            )
        if self.analytics is not None and fresh:
            # Fold before fan-out so /analytics already reflects this
            # batch by the time subscribers see the events.
            self.analytics.fold_events(fresh)
        dropped = 0
        for event in fresh:
            self.events_emitted += 1
            for sub in self._subs.values():
                if len(sub.queue) >= sub.max_queue:
                    sub.dropped += 1
                    dropped += 1
                    continue
                sub.queue.append(event)
        if fresh:
            self.metrics.inc("feed.events_emitted", len(fresh))
        if dropped:
            self.metrics.inc("feed.events_dropped", dropped)
        if self._flusher is not None:
            self._flusher.maybe_flush()
        return len(fresh)

    def log_health(self) -> Dict[str, Dict[str, int]]:
        """Per-log cursor position, entries delivered, error/retry counters."""
        return self.tail.log_health()

    def health_report(
        self, policy: Optional["SloPolicy"] = None
    ) -> "HealthReport":
        """Per-log SLO verdicts from :meth:`log_health` counters.

        The report's :meth:`~repro.obs.health.HealthReport.to_dict` is
        the ``/health`` payload of an attached
        :class:`~repro.obs.export.TelemetryServer`.
        """
        return self.tail.health_report(policy)

    def flush_telemetry(self) -> bool:
        """Force a counter-delta flush (loop-shutdown hook).

        Returns whether a flush happened (``False`` without an
        interval flusher attached).
        """
        if self._flusher is None:
            return False
        return self._flusher.flush()

    def dispatch(self, *, budget: Optional[int] = None) -> int:
        """Drain subscriber queues through their callbacks.

        ``budget`` caps total deliveries (simulating a scheduling
        quantum); returns the number delivered.
        """
        delivered = 0
        pending = True
        while pending and (budget is None or delivered < budget):
            pending = False
            for sub in self._subs.values():
                if not sub.queue:
                    continue
                if budget is not None and delivered >= budget:
                    break
                event = sub.queue.popleft()
                sub.callback(event)
                sub.delivered += 1
                delivered += 1
                pending = True
        if delivered:
            self.metrics.inc("feed.deliveries", delivered)
        return delivered

    def run_once(self, now: datetime) -> int:
        """Convenience: poll then fully dispatch; returns deliveries."""
        self.poll(now)
        return self.dispatch()
