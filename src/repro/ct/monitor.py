"""CT log monitors: the eyes of Section 6's attacker model.

The honeypot study distinguishes two monitoring styles by their
observed reaction times:

* **streaming** consumers (CertStream-style): near-real-time feeds;
  the paper measures first DNS queries 73 s - ~3 min after the
  precertificate appears, from the same handful of networks every time;
* **batch** consumers: periodic ``get-entries`` polls; queries from
  these arrive no earlier than one hour (99 % of cases) or two hours
  (62 %) after logging.

Both monitor types consume the log through the public read API
(``get_entries`` cursors), never through private state — and since the
transport refactor, "the public read API" is literal: every monitor
polls through a :class:`LogTransport`, either the zero-copy
:class:`InMemoryTransport` over a :class:`~repro.ct.log.CTLog` object
(bit-identical to the pre-transport behaviour) or the
:class:`HttpTransport` over a real :class:`~repro.ct.server.LogServer`
socket.  ``monitor.observe(log)`` and ``monitor.observe(transport)``
are both accepted; bare logs are wrapped on the fly.

:class:`LightweightMonitor` is the third style — Dahlberg & Pulls'
*verifiable light-weight monitoring*: instead of replaying every
entry, it subscribes to a domain set, reads the log's signed per-batch
digests (``get-batch-digest``), accepts each STH by
:func:`repro.ct.auditor.check_sth` (the rule the auditor applies too),
verifies the digest root's consistency with the served tree head, and
downloads bodies + inclusion proofs **only for entries whose claimed
domains match the subscription**.  Wire-level cost (requests, entries,
bytes) is the transport's ``stats()`` ledger; each poll reports its
delta through :mod:`repro.obs`.

Every consumer that replays a log — the two replay monitors here and
:class:`~repro.ct.feed.CertFeed` — tails it through one
:class:`LogTail`, which owns the cursor, the retry run and the per-log
counters.  Polling is fault-tolerant: a fetch that fails — after the
optional :class:`~repro.resilience.RetryPolicy` is exhausted — leaves
the log's cursor untouched, so no entry is silently lost; the next
successful poll observes everything that accumulated in the meantime.
Over HTTP every ranged ``get-entries`` goes through
:func:`~repro.ct.server.page_entries`, so what the log answers is
checked before it can move a cursor.  ``log_health()`` exposes the
per-log counters, an attached :class:`~repro.obs.events.EventLog`
receives one ``monitor_fetch`` (or, for the feed, ``feed_poll``)
event per fetch as it happens, and ``health_report()`` folds the
counters into per-log SLO verdicts (see :mod:`repro.obs.health`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ct.auditor import (
    BAD_SIGNATURE,
    AuditFinding,
    check_sth,
    record_finding,
)
from repro.ct.log import BatchDigest, CTLog, LogEntry, SignedTreeHead
from repro.ct.merkle import (
    leaf_hash,
    verify_consistency_proof,
    verify_inclusion_proof,
)
from repro.ct.server import LogClient, page_entries
from repro.obs.events import NULL_EVENTS, EventLog, record
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # avoid a runtime import cycle through repro.ct
    from repro.obs.health import HealthReport, SloPolicy
    from repro.resilience.retry import RetryPolicy


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


def domain_matches(domain: str, name: str) -> bool:
    """True when ``name`` equals ``domain`` or is a subdomain of it."""
    domain = domain.lower().strip().lstrip("*.").rstrip(".")
    name = name.lower().strip().rstrip(".")
    return name == domain or name.endswith("." + domain)


# -- transports ----------------------------------------------------------------


class LogTransport:
    """How a monitor reaches one log: name plus the RFC 6962 read API.

    Concrete transports wrap either the in-process log object
    (:class:`InMemoryTransport`) or an HTTP client against a served
    one (:class:`HttpTransport`).  All read methods raise on failure;
    :class:`LogTail` treats any exception as "this poll saw nothing",
    leaving the cursor in place.

    ``stats()`` is the wire-cost ledger: cumulative requests, entry
    bodies fetched, and bytes received (0 for in-memory transports,
    where no bytes cross a wire).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.requests = 0
        self.entries_fetched = 0

    def tree_size(self) -> int:
        raise NotImplementedError

    def get_sth(self, now: Optional[datetime] = None) -> SignedTreeHead:
        raise NotImplementedError

    def get_entries(self, start: int, end: int) -> List[LogEntry]:
        raise NotImplementedError

    def get_batch_digest(self, start: int) -> BatchDigest:
        raise NotImplementedError

    def get_proof_by_hash(
        self, digest: bytes, tree_size: int
    ) -> Tuple[int, List[bytes]]:
        raise NotImplementedError

    def get_consistency(self, first: int, second: int) -> List[bytes]:
        raise NotImplementedError

    def bytes_fetched(self) -> int:
        return 0

    def stats(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "entries": self.entries_fetched,
            "bytes": self.bytes_fetched(),
        }


class InMemoryTransport(LogTransport):
    """Zero-copy transport over an in-process log object.

    Accepts anything duck-typed like :class:`~repro.ct.log.CTLog`
    (including :class:`~repro.resilience.FlakyLog` proxies, whose
    injected faults pass straight through).  Monitors polling through
    this transport behave bit-identically to polling the log directly.
    """

    def __init__(
        self,
        log: CTLog,
        *,
        clock: Optional[Callable[[], datetime]] = None,
    ) -> None:
        super().__init__(log.name)
        self.log = log
        self._clock = clock if clock is not None else _utc_now

    def tree_size(self) -> int:
        return self.log.size

    def get_sth(self, now: Optional[datetime] = None) -> SignedTreeHead:
        self.requests += 1
        return self.log.get_sth(now if now is not None else self._clock())

    def get_entries(self, start: int, end: int) -> List[LogEntry]:
        self.requests += 1
        entries = self.log.get_entries(start, end)
        self.entries_fetched += len(entries)
        return entries

    def get_batch_digest(self, start: int) -> BatchDigest:
        # An in-process log has no merge schedule to expose: the whole
        # not-yet-digested suffix is one batch, like a bare served log.
        self.requests += 1
        return self.log.batch_digest(start, self.log.size, self._clock())

    def get_proof_by_hash(
        self, digest: bytes, tree_size: int
    ) -> Tuple[int, List[bytes]]:
        self.requests += 1
        index = self.log.tree.leaf_index(digest)
        if index is None:
            raise KeyError(f"leaf hash not present in {self.name}")
        return index, self.log.get_proof_by_hash(index, tree_size)

    def get_consistency(self, first: int, second: int) -> List[bytes]:
        self.requests += 1
        return self.log.get_consistency(first, second)


class HttpTransport(LogTransport):
    """Transport over a served log's HTTP endpoints.

    ``target`` is either a ready :class:`~repro.ct.server.LogClient`
    or a base URL string (``server.log_url(name)``).  ``get_entries``
    pages through the server's response clamping with
    :func:`~repro.ct.server.page_entries`, so a request larger than the
    serving page limit still returns the full range; an answer that
    runs past the requested range is cut, and one that skips or
    repeats an entry is rejected.  The wire ledger counts the client's
    real request/byte totals; entry accounting is per checked page as
    it lands, so the ledger stays exact even when a fault mid-range
    forces the caller's retry layer to refetch (the books balance
    against the byte/request counters, which also count every
    attempt).  ``tracer`` propagates to the client, which injects the
    trace-context header per request; a client handed in keeps a tracer
    of its own.
    """

    def __init__(
        self,
        target: Union["LogClient", str],
        name: str,
        *,
        page_size: int = 512,
        timeout: float = 10.0,
        client_id: Optional[str] = None,
        tracer: SpanTracer = NULL_TRACER,
    ) -> None:
        super().__init__(name)
        if isinstance(target, LogClient):
            self.client = target
            if self.client.tracer is NULL_TRACER:
                self.client.tracer = tracer
        else:
            self.client = LogClient(
                str(target), timeout=timeout, client_id=client_id,
                tracer=tracer,
            )
        self.page_size = page_size

    def close(self) -> None:
        """Close the client's persistent connections."""
        self.client.close()

    def bytes_fetched(self) -> int:
        return self.client.bytes_received

    def stats(self) -> Dict[str, int]:
        return {
            "requests": self.client.requests,
            "entries": self.entries_fetched,
            "bytes": self.client.bytes_received,
        }

    def tree_size(self) -> int:
        return self.get_sth().tree_size

    def get_sth(self, now: Optional[datetime] = None) -> SignedTreeHead:
        return self.client.get_signed_tree_head()

    def get_entries(self, start: int, end: int) -> List[LogEntry]:
        entries: List[LogEntry] = []
        for page in page_entries(self.client, start, end, self.page_size):
            # Count each page the moment it lands: if a later page of
            # this range fails, the wire ledger still reflects what was
            # actually transferred (and a retry that refetches counts
            # again, matching the byte counter's view).
            self.entries_fetched += len(page)
            entries.extend(page)
        return entries

    def get_batch_digest(self, start: int) -> BatchDigest:
        return self.client.get_batch_digest(start)

    def get_proof_by_hash(
        self, digest: bytes, tree_size: int
    ) -> Tuple[int, List[bytes]]:
        return self.client.get_proof_by_hash(digest, tree_size)

    def get_consistency(self, first: int, second: int) -> List[bytes]:
        return self.client.get_sth_consistency(first, second)


def as_transport(target: Union[LogTransport, CTLog]) -> LogTransport:
    """Coerce a monitor's poll target into a transport.

    Transports pass through (keeping their wire ledgers); anything
    else is wrapped in a fresh :class:`InMemoryTransport`.
    """
    if isinstance(target, LogTransport):
        return target
    return InMemoryTransport(target)


# -- observations --------------------------------------------------------------


@dataclass(frozen=True)
class LogObservation:
    """A monitor learning about one log entry."""

    monitor: str
    log_name: str
    entry: LogEntry
    observed_at: datetime

    @property
    def dns_names(self) -> List[str]:
        return self.entry.certificate.dns_names()

    @property
    def latency_seconds(self) -> float:
        return (self.observed_at - self.entry.submitted_at).total_seconds()


#: The event kind :class:`~repro.ct.feed.CertFeed`'s fetches record;
#: its metrics (``feed.*``, labelled ``log=``) come from
#: :data:`repro.obs.events.EVENT_METRICS`.
FEED_TAIL = "feed_poll"
#: The replay monitors' event kind (``monitor.*``, ``monitor=, log=``).
MONITOR_TAIL = "monitor_fetch"

_HEALTH_KEYS = (
    "cursor", "entries", "errors", "retries", "successes",
    "consecutive_failures",
)


class LogTail:
    """One consumer's cursor, retry and fetch counters for every log it tails.

    :meth:`fetch` reads a log's tree size through its transport and
    fetches every entry past the cursor, under the optional retry
    policy.  The cursor only advances past entries that arrived; a
    fetch that fails (after the retry policy gives up) counts into
    ``errors`` and the failure streak and leaves the cursor alone, so
    the entries surface on the next successful fetch instead of being
    skipped.  A failed ``get-sth`` over HTTP, or a page
    :func:`~repro.ct.server.page_entries` rejects, counts the same way.

    Every fetch is recorded as one ``kind`` event, labelled with
    ``labels`` plus ``log=``; its ``duration_ms`` feeds the fetch
    latency histogram when the fetch worked.
    """

    def __init__(
        self,
        kind: str,
        *,
        retry: Optional["RetryPolicy"] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.kind = kind
        self.retry = retry
        self.metrics = metrics
        self.events = events
        self.labels = dict(labels or {})
        self._started: List[str] = []
        self._stats: Dict[str, Dict[str, int]] = {}

    def start(self, name: str, cursor: int) -> None:
        """Tail ``name`` from ``cursor`` on; earlier entries are never fetched."""
        self._started.append(name)
        self._stats[name] = dict(dict.fromkeys(_HEALTH_KEYS, 0), cursor=cursor)

    def fetch(self, transport: LogTransport) -> List[LogEntry]:
        """Every entry past ``transport``'s cursor; ``[]`` on failure."""
        name = transport.name
        stats = self._stats.get(name) or dict.fromkeys(_HEALTH_KEYS, 0)
        cursor = stats["cursor"]
        started = time.perf_counter()
        entries: Optional[List[LogEntry]] = None
        try:
            size = transport.tree_size()
            if size <= cursor:
                return []
            if self.retry is None:
                entries, retried = transport.get_entries(cursor, size - 1), 0
            else:
                outcome = self.retry.run(
                    lambda: transport.get_entries(cursor, size - 1)
                )
                entries, retried = outcome.value, outcome.retried
        except Exception as exc:
            retried = max(0, getattr(exc, "attempts", 1) - 1)
            stats["errors"] += 1
            stats["consecutive_failures"] += 1
            fields: Dict[str, object] = {"ok": False, "error": repr(exc)}
        else:
            stats["cursor"] = cursor + len(entries)
            stats["entries"] += len(entries)
            stats["successes"] += 1
            stats["consecutive_failures"] = 0
            fields = {"ok": True, "entries": len(entries)}
        stats["retries"] += retried
        self._stats[name] = stats
        record(
            self.metrics, self.events, self.kind,
            **dict(self.labels, log=name), **fields, retried=retried,
            duration_ms=round((time.perf_counter() - started) * 1e3, 3),
        )
        return entries or []

    def log_health(self) -> Dict[str, Dict[str, int]]:
        """Per-log counters in :mod:`repro.obs.health` shape.

        Logs given to :meth:`start` come first, in start order; logs
        the tail only met while fetching follow, sorted by name.
        """
        found = sorted(set(self._stats).difference(self._started))
        return {name: dict(self._stats[name]) for name in self._started + found}

    def health_report(
        self, policy: Optional["SloPolicy"] = None
    ) -> "HealthReport":
        """Per-log SLO verdicts from :meth:`log_health` counters."""
        from repro.obs.health import evaluate_stats

        return evaluate_stats(self.log_health(), policy)


class _ReplayMonitor:
    """A monitor that replays every entry of the logs it observes.

    The subclasses differ only in when they observe an entry
    (:meth:`_observed_at`); the cursor, retry and counters live in
    :attr:`tail`, written under the ``monitor.*`` names.
    """

    def __init__(
        self,
        name: str,
        retry: Optional["RetryPolicy"],
        metrics: MetricsRegistry,
        events: EventLog,
    ) -> None:
        self.name = name
        self.tail = LogTail(
            MONITOR_TAIL,
            retry=retry,
            metrics=metrics,
            events=events,
            labels={"monitor": name},
        )

    def _observed_at(self, entry: LogEntry) -> datetime:
        raise NotImplementedError

    def observe(
        self, log: Union[LogTransport, CTLog]
    ) -> List[LogObservation]:
        """Return observations for all entries not yet seen."""
        transport = as_transport(log)
        return [
            LogObservation(
                monitor=self.name,
                log_name=transport.name,
                entry=entry,
                observed_at=self._observed_at(entry),
            )
            for entry in self.tail.fetch(transport)
        ]

    def log_health(self) -> Dict[str, Dict[str, int]]:
        """Per-log fetch counters, sorted by log name."""
        return self.tail.log_health()

    def health_report(
        self, policy: Optional["SloPolicy"] = None
    ) -> "HealthReport":
        """Per-log SLO verdicts over every log this monitor has fetched."""
        return self.tail.health_report(policy)


class StreamingMonitor(_ReplayMonitor):
    """A near-real-time log follower (CertStream-style).

    Observation latency per entry is sampled uniformly from
    ``latency_range_s`` plus a per-monitor base offset, reproducing the
    73 s - 3 min spread of Table 4.
    """

    def __init__(
        self,
        name: str,
        rng: SeededRng,
        latency_range_s: "tuple[float, float]" = (60.0, 180.0),
        base_offset_s: float = 0.0,
        retry: Optional["RetryPolicy"] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
    ) -> None:
        super().__init__(name, retry, metrics, events)
        self._rng = rng.fork(f"stream:{name}")
        self.latency_range_s = latency_range_s
        self.base_offset_s = base_offset_s

    def _observed_at(self, entry: LogEntry) -> datetime:
        low, high = self.latency_range_s
        delay = self.base_offset_s + self._rng.uniform(low, high)
        return entry.submitted_at + timedelta(seconds=delay)


class BatchMonitor(_ReplayMonitor):
    """A periodic poller: observes entries at the next poll tick.

    Poll ticks are ``interval`` apart with a random phase, so an entry
    logged just after a poll waits nearly a full interval — producing
    the >= 1-2 hour latencies of the paper's second query population.
    """

    def __init__(
        self,
        name: str,
        rng: SeededRng,
        interval: timedelta = timedelta(hours=2),
        processing_delay_s: float = 30.0,
        retry: Optional["RetryPolicy"] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
    ) -> None:
        super().__init__(name, retry, metrics, events)
        self._rng = rng.fork(f"batch:{name}")
        self.interval = interval
        self.processing_delay_s = processing_delay_s
        self._phase_s = self._rng.uniform(0.0, interval.total_seconds())

    def next_poll_after(self, moment: datetime) -> datetime:
        """The first poll tick strictly after ``moment``."""
        interval_s = self.interval.total_seconds()
        epoch = datetime(
            moment.year, moment.month, moment.day, tzinfo=moment.tzinfo
        )
        since_midnight = (moment - epoch).total_seconds()
        ticks = int((since_midnight - self._phase_s) // interval_s) + 1
        tick = epoch + timedelta(seconds=self._phase_s + ticks * interval_s)
        # Float/microsecond truncation can land the tick at (or just
        # before) ``moment``; "strictly after" is part of the contract.
        while tick <= moment:
            tick += self.interval
        return tick

    def _observed_at(self, entry: LogEntry) -> datetime:
        poll_at = self.next_poll_after(entry.submitted_at)
        return poll_at + timedelta(
            seconds=self._rng.uniform(0.0, self.processing_delay_s)
        )


class LightweightMonitor:
    """A verifiable light-weight monitor (Dahlberg & Pulls).

    Subscribes to a domain set and never downloads non-matching entry
    bodies.  Per poll it:

    1. fetches the STH and accepts it by
       :func:`~repro.ct.auditor.check_sth` — the same rule
       :class:`~repro.ct.auditor.LogAuditor` applies: its signature
       (when the log ``key`` is pinned) and its consistency with the
       last verified STH;
    2. walks the log's signed batch digests from its cursor, verifying
       each digest signature and the digest root's consistency with
       the served tree head — so the *claimed* domain list is bound to
       the same tree the STH commits to;
    3. for every digest entry whose claimed domains match a
       subscription, fetches just that entry body plus an inclusion
       proof at the STH's tree size, checks the claimed domains
       against the body, and verifies the proof.

    Any verification failure is recorded as an
    :class:`~repro.ct.auditor.AuditFinding` (and stops the cursor, so
    nothing is skipped past); matching entries become
    :class:`LogObservation` rows like every other monitor's.

    Obs surface: each poll that accepts a tree head is recorded as one
    ``lightweight_poll`` event, its wire fields a per-poll delta of the
    transport's ``stats()``; each finding as one ``audit_finding``
    event, as :class:`~repro.ct.auditor.LogAuditor`'s are.  With a
    ``tracer``, each poll runs under a ``monitor.poll`` client root
    span with one ``monitor.match`` child per matched entry (carrying
    the claimed domains) — the detection end of the certificate
    lifecycle timeline.
    """

    def __init__(
        self,
        name: str,
        domains: Iterable[str],
        *,
        key: Optional[object] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        tracer: SpanTracer = NULL_TRACER,
    ) -> None:
        self.name = name
        self.domains: Tuple[str, ...] = tuple(
            sorted({d.lower().strip().lstrip("*.").rstrip(".") for d in domains})
        )
        self.key = key
        self.metrics = metrics
        self.events = events
        self.tracer = tracer
        self._cursors: Dict[str, int] = {}
        self._verified: Dict[str, SignedTreeHead] = {}
        self.findings: List[AuditFinding] = []
        self.sths_verified = 0
        self.digests_verified = 0
        self.proofs_verified = 0
        self.entries_matched = 0

    def matches(self, names: Sequence[str]) -> bool:
        """Whether any of ``names`` falls under a subscribed domain."""
        return any(
            domain_matches(domain, name)
            for name in names
            for domain in self.domains
        )

    def _find(
        self, log_name: str, kind: str, detail: str, now: datetime
    ) -> None:
        finding = AuditFinding(log_name, kind, detail, now)
        self.findings.append(finding)
        record_finding(finding, self.metrics, self.events)

    def _verify_entry(
        self,
        transport: LogTransport,
        sth: SignedTreeHead,
        index: int,
        claimed: Sequence[str],
        now: datetime,
    ) -> Optional[LogEntry]:
        """Fetch one matching entry body and prove its inclusion."""
        name = transport.name
        entries = transport.get_entries(index, index)
        if len(entries) != 1 or entries[0].index != index:
            self._find(
                name,
                "missing-entry",
                f"get-entries({index}) did not return entry {index}",
                now,
            )
            return None
        entry = entries[0]
        if sorted(entry.certificate.dns_names()) != sorted(claimed):
            self._find(
                name,
                "missing-entry",
                f"digest claimed domains {sorted(claimed)} for entry "
                f"{index}, body has {sorted(entry.certificate.dns_names())}",
                now,
            )
            return None
        proof_index, path = transport.get_proof_by_hash(
            leaf_hash(entry.leaf_input), sth.tree_size
        )
        if proof_index != index or not verify_inclusion_proof(
            entry.leaf_input, index, sth.tree_size, path, sth.root_hash
        ):
            self._find(
                name,
                "missing-entry",
                f"inclusion proof for matched entry {index} does not "
                f"verify against STH at size {sth.tree_size}",
                now,
            )
            return None
        self.proofs_verified += 1
        return entry

    def poll(
        self,
        target: Union[LogTransport, CTLog],
        now: Optional[datetime] = None,
    ) -> List[LogObservation]:
        """One verification round; returns matching-entry observations.

        The round runs under a ``monitor.poll`` client root span (its
        HTTP calls become child spans carrying the trace across the
        wire).
        """
        transport = as_transport(target)
        with self.tracer.span(
            "monitor.poll",
            kind="client",
            monitor=self.name,
            log=transport.name,
        ) as span:
            observations = self._poll(transport, now)
            span.set("matches", len(observations))
            return observations

    def _poll(
        self,
        transport: LogTransport,
        now: Optional[datetime] = None,
    ) -> List[LogObservation]:
        name = transport.name
        when = now if now is not None else _utc_now()
        before = transport.stats()
        observations: List[LogObservation] = []
        findings_before = len(self.findings)
        try:
            sth = transport.get_sth(when)
        except Exception as exc:
            self._find(name, "fetch-error", f"get-sth failed: {exc!r}", when)
            return []
        problem = check_sth(
            self._verified.get(name), sth, self.key, transport.get_consistency
        )
        if problem is None or problem[0] != BAD_SIGNATURE:
            self.sths_verified += 1
        if problem is not None:
            self._find(name, *problem, when)
            return []
        cursor = self._cursors.get(name, 0)
        try:
            while cursor < sth.tree_size:
                digest = transport.get_batch_digest(cursor)
                if not self._check_digest(transport, digest, cursor, sth, when):
                    break
                for index, claimed in digest.domains:
                    if not self.matches(claimed):
                        continue
                    self.entries_matched += 1
                    with self.tracer.span(
                        "monitor.match",
                        monitor=self.name,
                        log=name,
                        entry=index,
                        domains=sorted(claimed),
                    ) as match_span:
                        entry = self._verify_entry(
                            transport, sth, index, claimed, when
                        )
                        match_span.set("verified", entry is not None)
                    if entry is not None:
                        observations.append(
                            LogObservation(
                                monitor=self.name,
                                log_name=name,
                                entry=entry,
                                observed_at=when,
                            )
                        )
                cursor = digest.end
                self._cursors[name] = cursor
        except Exception as exc:
            self._find(
                name, "fetch-error", f"digest walk failed: {exc!r}", when
            )
        self._verified[name] = sth
        after = transport.stats()
        entries = after["entries"] - before["entries"]
        moved = after["bytes"] - before["bytes"]
        record(
            self.metrics, self.events, "lightweight_poll",
            monitor=self.name, log=name, tree_size=sth.tree_size,
            cursor=self._cursors.get(name, 0), matches=len(observations),
            wire_entries=entries, wire_bytes=moved,
            ok=len(self.findings) == findings_before,
        )
        return observations

    # ``watch_logs`` duck-type: a lightweight monitor drops into any
    # monitor population (observation timestamps default to poll time).
    def observe(
        self, log: Union[LogTransport, CTLog]
    ) -> List[LogObservation]:
        return self.poll(log)

    def _check_digest(
        self,
        transport: LogTransport,
        digest: BatchDigest,
        cursor: int,
        sth: SignedTreeHead,
        now: datetime,
    ) -> bool:
        """Verify one batch digest and bind its root into the STH."""
        name = transport.name
        if (
            digest.start != cursor
            or digest.end <= digest.start
            or digest.end > sth.tree_size
        ):
            self._find(
                name,
                "inconsistent-history",
                f"batch digest range [{digest.start}, {digest.end}) does "
                f"not continue cursor {cursor} within tree size "
                f"{sth.tree_size}",
                now,
            )
            return False
        if self.key is not None and not digest.verify(self.key):
            self._find(
                name,
                BAD_SIGNATURE,
                f"batch digest [{digest.start}, {digest.end}) has an "
                f"invalid signature",
                now,
            )
            return False
        if digest.end == sth.tree_size:
            bound = digest.root_hash == sth.root_hash
        else:
            proof = transport.get_consistency(digest.end, sth.tree_size)
            bound = verify_consistency_proof(
                digest.end,
                sth.tree_size,
                digest.root_hash,
                sth.root_hash,
                proof,
            )
        if not bound:
            self._find(
                name,
                "inconsistent-history",
                f"batch digest root at size {digest.end} is not consistent "
                f"with the STH at size {sth.tree_size}",
                now,
            )
            return False
        self.digests_verified += 1
        return True

    @property
    def clean(self) -> bool:
        return not self.findings


def watch_logs(
    monitors: Iterable[object],
    logs: Iterable[Union[LogTransport, CTLog]],
) -> List[LogObservation]:
    """Run every monitor over every log; observations sorted by time."""
    observations: List[LogObservation] = []
    for monitor in monitors:
        for log in logs:
            observations.extend(monitor.observe(log))  # type: ignore[attr-defined]
    observations.sort(key=lambda obs: obs.observed_at)
    return observations
