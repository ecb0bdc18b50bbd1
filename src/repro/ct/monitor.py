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
digests (``get-batch-digest``), verifies STH consistency plus the
digest root's consistency with the served tree head, and downloads
bodies + inclusion proofs **only for entries whose claimed domains
match the subscription**.  Wire-level cost (requests, entries, bytes)
is accounted per poll and reported through :mod:`repro.obs`.

Polling is fault-tolerant: a fetch that fails — after the optional
:class:`~repro.resilience.RetryPolicy` is exhausted — leaves the
log's cursor untouched, so no entry is silently lost; the next
successful poll observes everything that accumulated in the meantime.
Per-log error/retry counters are exposed on each monitor, an attached
:class:`~repro.obs.events.EventLog` receives one ``monitor_fetch``
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

from repro.ct.auditor import AuditFinding
from repro.ct.log import BatchDigest, CTLog, LogEntry, SignedTreeHead
from repro.ct.merkle import (
    leaf_hash,
    verify_consistency_proof,
    verify_inclusion_proof,
)
from repro.obs.trace import maybe_span
from repro.util.rng import SeededRng

if TYPE_CHECKING:  # avoid a runtime import cycle through repro.ct
    from repro.ct.server import LogClient
    from repro.obs.events import EventLog
    from repro.obs.health import HealthReport, SloPolicy
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import SpanTracer
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
    the monitors' cursor bookkeeping treats any exception as "this
    poll saw nothing", leaving the cursor in place.

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
    pages through the server's response clamping, so a request larger
    than the serving page limit still returns the full range.  The
    wire ledger counts the client's real request/byte totals; entry
    accounting is per page *as received*, so the ledger stays exact
    even when a fault mid-range forces the caller's retry layer to
    refetch (the books balance against the byte/request counters,
    which also count every attempt).  ``tracer`` propagates to the
    client, which injects the trace-context header per request.
    """

    def __init__(
        self,
        target: Union["LogClient", str],
        name: str,
        *,
        page_size: int = 512,
        timeout: float = 10.0,
        client_id: Optional[str] = None,
        tracer: Optional["SpanTracer"] = None,
    ) -> None:
        from repro.ct.server import LogClient

        super().__init__(name)
        if isinstance(target, LogClient):
            self.client = target
            if tracer is not None and self.client.tracer is None:
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
        index = start
        while index <= end:
            page = self.client.get_entries(
                index, min(end, index + self.page_size - 1)
            )
            if not page:
                raise RuntimeError(
                    f"{self.name}: empty get-entries page at index {index}"
                )
            # Count each page the moment it lands: if a later page of
            # this range fails, the wire ledger still reflects what was
            # actually transferred (and a retry that refetches counts
            # again, matching the byte counter's view).
            self.entries_fetched += len(page)
            entries.extend(page)
            index = page[-1].index + 1
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


class _CursorMixin:
    """Shared cursor bookkeeping over multiple logs.

    The cursor for a log only advances past entries that were actually
    fetched; a failed ``get_entries`` (after the optional retry policy
    gives up) counts into ``errors`` and leaves the cursor alone, so
    the entries surface on the next successful poll instead of being
    skipped.  Over an HTTP transport a failed ``get-sth`` (server
    down, socket error) counts as an error the same way.
    """

    def __init__(
        self,
        retry: Optional["RetryPolicy"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        events: Optional["EventLog"] = None,
    ) -> None:
        self._cursors: Dict[str, int] = {}
        self.retry = retry
        self.metrics = metrics
        self.events = events
        self.errors: Dict[str, int] = {}
        self.retries: Dict[str, int] = {}
        self.successes: Dict[str, int] = {}
        self.entries_seen: Dict[str, int] = {}
        self.consecutive_failures: Dict[str, int] = {}

    def _monitor_label(self) -> str:
        return getattr(self, "name", type(self).__name__)

    def _new_entries(
        self, target: Union[LogTransport, CTLog]
    ) -> List[LogEntry]:
        transport = as_transport(target)
        name = transport.name
        cursor = self._cursors.get(name, 0)
        label = self._monitor_label()
        started = time.perf_counter()
        retried = 0
        try:
            size = transport.tree_size()
            if size <= cursor:
                return []
            if self.retry is None:
                entries = transport.get_entries(cursor, size - 1)
            else:
                outcome = self.retry.run(
                    lambda: transport.get_entries(cursor, size - 1)
                )
                entries = outcome.value
                retried = outcome.retried
                self.retries[name] = self.retries.get(name, 0) + retried
                if self.metrics is not None and retried:
                    self.metrics.inc(
                        "monitor.retries",
                        retried,
                        monitor=label,
                        log=name,
                    )
        except Exception as exc:
            self.errors[name] = self.errors.get(name, 0) + 1
            self.consecutive_failures[name] = (
                self.consecutive_failures.get(name, 0) + 1
            )
            failed_retries = max(0, getattr(exc, "attempts", 1) - 1)
            self.retries[name] = (
                self.retries.get(name, 0) + failed_retries
            )
            if self.metrics is not None:
                self.metrics.inc("monitor.errors", monitor=label, log=name)
                if failed_retries:
                    self.metrics.inc(
                        "monitor.retries",
                        failed_retries,
                        monitor=label,
                        log=name,
                    )
            if self.events is not None:
                self.events.emit(
                    "monitor_fetch",
                    monitor=label,
                    log=name,
                    ok=False,
                    error=repr(exc),
                    retried=failed_retries,
                )
            return []
        self.successes[name] = self.successes.get(name, 0) + 1
        self.consecutive_failures[name] = 0
        self.entries_seen[name] = (
            self.entries_seen.get(name, 0) + len(entries)
        )
        if self.metrics is not None:
            self.metrics.observe(
                "monitor.fetch_seconds",
                time.perf_counter() - started,
                monitor=label,
                log=name,
            )
            self.metrics.inc(
                "monitor.entries", len(entries), monitor=label, log=name
            )
        if self.events is not None:
            self.events.emit(
                "monitor_fetch",
                monitor=label,
                log=name,
                ok=True,
                entries=len(entries),
                retried=retried,
            )
        self._cursors[name] = cursor + len(entries)
        return entries

    def log_health(self) -> Dict[str, Dict[str, int]]:
        """Per-log fetch counters in :mod:`repro.obs.health` shape."""
        names = sorted(
            set(self._cursors)
            | set(self.errors)
            | set(self.successes)
        )
        return {
            name: {
                "cursor": self._cursors.get(name, 0),
                "entries": self.entries_seen.get(name, 0),
                "errors": self.errors.get(name, 0),
                "retries": self.retries.get(name, 0),
                "successes": self.successes.get(name, 0),
                "consecutive_failures": self.consecutive_failures.get(name, 0),
            }
            for name in names
        }

    def health_report(
        self, policy: Optional["SloPolicy"] = None
    ) -> "HealthReport":
        """Per-log SLO verdicts over every log this monitor has fetched."""
        from repro.obs.health import evaluate_stats

        return evaluate_stats(self.log_health(), policy)


class StreamingMonitor(_CursorMixin):
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
        metrics: Optional["MetricsRegistry"] = None,
        events: Optional["EventLog"] = None,
    ) -> None:
        super().__init__(retry=retry, metrics=metrics, events=events)
        self.name = name
        self._rng = rng.fork(f"stream:{name}")
        self.latency_range_s = latency_range_s
        self.base_offset_s = base_offset_s

    def observe(
        self, log: Union[LogTransport, CTLog]
    ) -> List[LogObservation]:
        """Return observations for all entries not yet seen."""
        transport = as_transport(log)
        observations = []
        low, high = self.latency_range_s
        for entry in self._new_entries(transport):
            delay = self.base_offset_s + self._rng.uniform(low, high)
            observations.append(
                LogObservation(
                    monitor=self.name,
                    log_name=transport.name,
                    entry=entry,
                    observed_at=entry.submitted_at + timedelta(seconds=delay),
                )
            )
        return observations


class BatchMonitor(_CursorMixin):
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
        metrics: Optional["MetricsRegistry"] = None,
        events: Optional["EventLog"] = None,
    ) -> None:
        super().__init__(retry=retry, metrics=metrics, events=events)
        self.name = name
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

    def observe(
        self, log: Union[LogTransport, CTLog]
    ) -> List[LogObservation]:
        transport = as_transport(log)
        observations = []
        for entry in self._new_entries(transport):
            poll_at = self.next_poll_after(entry.submitted_at)
            observed = poll_at + timedelta(
                seconds=self._rng.uniform(0.0, self.processing_delay_s)
            )
            observations.append(
                LogObservation(
                    monitor=self.name,
                    log_name=transport.name,
                    entry=entry,
                    observed_at=observed,
                )
            )
        return observations


class LightweightMonitor:
    """A verifiable light-weight monitor (Dahlberg & Pulls).

    Subscribes to a domain set and never downloads non-matching entry
    bodies.  Per poll it:

    1. fetches the STH, verifies its signature (when the log ``key``
       is pinned) and its consistency with the last verified STH;
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

    Obs surface: per successful poll one ``lightweight_poll`` event
    plus ``monitor.wire_entries`` / ``monitor.wire_bytes`` /
    ``monitor.matches`` counters — the wire cost ledger the efficiency
    benchmark gates on; findings emit ``audit_finding`` events and
    ``auditor.findings{log=,kind=}`` counters, the same family
    :class:`~repro.ct.auditor.LogAuditor` reports into.  With a
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
        metrics: Optional["MetricsRegistry"] = None,
        events: Optional["EventLog"] = None,
        tracer: Optional["SpanTracer"] = None,
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
        self.wire_entries: Dict[str, int] = {}
        self.wire_bytes: Dict[str, int] = {}
        self.wire_requests: Dict[str, int] = {}

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
        if self.metrics is not None:
            self.metrics.inc("auditor.findings", log=log_name, kind=kind)
        if self.events is not None:
            self.events.emit(
                "audit_finding",
                log=log_name,
                finding=kind,
                detail=detail,
            )

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

        With a tracer attached the round runs under a ``monitor.poll``
        client root span (its HTTP calls become child spans carrying
        the trace across the wire).
        """
        transport = as_transport(target)
        if self.tracer is None:
            return self._poll(transport, now)
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
        if self.key is not None and not sth.verify(self.key):
            self._find(
                name,
                "bad-sth-signature",
                f"STH for tree size {sth.tree_size} has an invalid signature",
                when,
            )
            return []
        self.sths_verified += 1
        previous = self._verified.get(name)
        if previous is not None and not self._check_history(
            transport, previous, sth, when
        ):
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
                    with maybe_span(
                        self.tracer,
                        "monitor.match",
                        monitor=self.name,
                        log=name,
                        entry=index,
                        domains=sorted(claimed),
                    ) as match_span:
                        entry = self._verify_entry(
                            transport, sth, index, claimed, when
                        )
                        if match_span is not None:
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
        self._account(transport, before, sth, len(observations))
        ok = len(self.findings) == findings_before
        if self.events is not None:
            after = transport.stats()
            self.events.emit(
                "lightweight_poll",
                monitor=self.name,
                log=name,
                tree_size=sth.tree_size,
                cursor=self._cursors.get(name, 0),
                matches=len(observations),
                wire_entries=after["entries"] - before["entries"],
                wire_bytes=after["bytes"] - before["bytes"],
                ok=ok,
            )
        return observations

    # ``watch_logs`` duck-type: a lightweight monitor drops into any
    # monitor population (observation timestamps default to poll time).
    def observe(
        self, log: Union[LogTransport, CTLog]
    ) -> List[LogObservation]:
        return self.poll(log)

    def _check_history(
        self,
        transport: LogTransport,
        previous: SignedTreeHead,
        sth: SignedTreeHead,
        now: datetime,
    ) -> bool:
        """Consistency of the new STH with the last verified one."""
        name = transport.name
        if sth.tree_size < previous.tree_size:
            self._find(
                name,
                "inconsistent-history",
                f"tree shrank from {previous.tree_size} to {sth.tree_size}",
                now,
            )
            return False
        if sth.tree_size == previous.tree_size:
            if sth.root_hash != previous.root_hash:
                self._find(
                    name,
                    "inconsistent-history",
                    f"two roots at tree size {sth.tree_size}: "
                    f"{previous.root_hash.hex()[:16]}… then "
                    f"{sth.root_hash.hex()[:16]}…",
                    now,
                )
                return False
            return True
        try:
            proof = transport.get_consistency(
                previous.tree_size, sth.tree_size
            )
        except Exception as exc:
            self._find(
                name,
                "fetch-error",
                f"get-consistency failed: {exc!r}",
                now,
            )
            return False
        if not verify_consistency_proof(
            previous.tree_size,
            sth.tree_size,
            previous.root_hash,
            sth.root_hash,
            proof,
        ):
            self._find(
                name,
                "inconsistent-history",
                f"no valid consistency proof from size "
                f"{previous.tree_size} to {sth.tree_size}",
                now,
            )
            return False
        return True

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
                "bad-sth-signature",
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

    def _account(
        self,
        transport: LogTransport,
        before: Dict[str, int],
        sth: SignedTreeHead,
        matched: int,
    ) -> None:
        after = transport.stats()
        name = transport.name
        entries = after["entries"] - before["entries"]
        moved = after["bytes"] - before["bytes"]
        requests = after["requests"] - before["requests"]
        self.wire_entries[name] = self.wire_entries.get(name, 0) + entries
        self.wire_bytes[name] = self.wire_bytes.get(name, 0) + moved
        self.wire_requests[name] = self.wire_requests.get(name, 0) + requests
        if self.metrics is not None:
            self.metrics.inc(
                "monitor.wire_entries", entries, monitor=self.name, log=name
            )
            self.metrics.inc(
                "monitor.wire_bytes", moved, monitor=self.name, log=name
            )
            self.metrics.inc(
                "monitor.matches", matched, monitor=self.name, log=name
            )
            self.metrics.set_gauge(
                "monitor.verified_tree_size",
                sth.tree_size,
                monitor=self.name,
                log=name,
            )

    def wire_stats(self) -> Dict[str, int]:
        """Cumulative wire cost over every log this monitor polled."""
        return {
            "requests": sum(self.wire_requests.values()),
            "entries": sum(self.wire_entries.values()),
            "bytes": sum(self.wire_bytes.values()),
        }

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
