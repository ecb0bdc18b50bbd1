"""RFC 6962 HTTP front end for :class:`~repro.ct.log.CTLog` instances.

Everything the paper measures sits downstream of logs answering
``get-sth`` / ``get-entries`` to browsers, monitors, and CAs at
Internet scale.  :class:`LogServer` puts the in-process log object
behind real sockets: a stdlib-only threaded HTTP server exposing the
RFC 6962 section 4 endpoints as JSON, over one or more logs.

Routes (one log also answers at the bare prefix)::

    GET  /                                      server index (non-RFC)
    GET  [/<log-slug>]/ct/v1/get-sth
    GET  [/<log-slug>]/ct/v1/get-entries?start=&end=
    GET  [/<log-slug>]/ct/v1/get-proof-by-hash?hash=&tree_size=
    GET  [/<log-slug>]/ct/v1/get-sth-consistency?first=&second=
    GET  [/<log-slug>]/ct/v1/get-batch-digest?start=     (non-RFC)
    POST [/<log-slug>]/ct/v1/add-pre-chain

Error mapping: malformed or out-of-range parameters answer 400,
an over-capacity log answers 429 (the Nimbus overload incident of
Section 2, now visible to clients), a disqualified log answers 410,
an unknown log or route 404 — always as well-formed JSON, never a bare
500.

The serving side carries the speed work the write path needs under
load: signed tree heads are memoized per tree size (one RSA signature
per tree growth, not per scrape), inclusion/consistency proofs, pages
and batch digests are memoized in a byte-bounded LRU (answers over a fixed
tree size are immutable), and the Merkle tree itself caches roots
incrementally (:class:`repro.ct.merkle.MerkleTree`).  A memoized reply
is encoded once, when it enters the memo, so a hit only writes its
stored bytes; each entry's ``get-entries`` element is built once and
shared by every page that holds it.

The write path scales through the MMD sequencer
(:class:`repro.ct.sequencer.LogSequencer`): pass ``merge_interval``
(plus ``max_batch``) and every mounted :class:`CTLog` gains RFC 6962
maximum-merge-delay semantics — ``add-pre-chain`` signs and returns
the SCT immediately *without taking the per-log read lock*, parks the
entry in a pending queue, and a background worker folds batches into
the Merkle tree, publishing one STH per merge.  A pre-built
:class:`~repro.ct.sequencer.LogSequencer` can also be mounted directly
(deterministic mode: the caller drives ``merge()`` explicitly);
:meth:`LogServer.drain_writes` force-merges everything pending.

Telemetry: with a :class:`~repro.obs.metrics.MetricsRegistry` /
:class:`~repro.obs.events.EventLog` attached, every request records a
per-endpoint latency histogram (``log_server.request_seconds``) and
one ``log_server_request`` event, which moves the per-endpoint/status
``log_server.responses`` counter — the same obs layer the feed and the
pipeline already report through.

:class:`LogClient` is the matching stdlib client (used by the load
generator of :mod:`repro.workloads.loadgen`), and :func:`harvest_log`
rebuilds a complete, Merkle-verified log replica from the HTTP
endpoints alone — the parity tests prove a corpus built from such a
replica is bit-identical to one read from the in-process object.
A ``get-entries`` element is the :mod:`repro.ct.storage` entry record:
:func:`entry_to_wire` / :func:`entry_from_wire` add only the RFC 6962
envelope (``leaf_input`` plus base64 JSON ``extra_data``), and the
harvester appends each checked page to its replica tree at once.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import OrderedDict
from datetime import datetime, timezone
from http.client import RemoteDisconnected
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)
from urllib.parse import parse_qs, quote, urlsplit
from weakref import WeakValueDictionary

from repro.ct.log import (
    BatchDigest,
    CTLog,
    LogDisqualifiedError,
    LogEntry,
    LogOverloadedError,
    SignedTreeHead,
)
from repro.ct.merkle import MerkleTree
from repro.ct.sequencer import DEFAULT_MAX_BATCH, LogSequencer
from repro.ct.sct import SctEntryType, SignedCertificateTimestamp
from repro.ct.storage import (
    _SHAPE_ERRORS,
    _a2b,
    _b64,
    _unb64,
    certificate_from_dict,
    certificate_to_dict,
    entry_from_record,
    entry_record,
)
from repro.obs.events import NULL_EVENTS, EventLog, record
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.obs.tracectx import TRACEPARENT_HEADER, TraceContext
from repro.util.httpd import ClientConnection, FramedRequestHandler, HttpServerHandle

if TYPE_CHECKING:  # avoid a runtime import cycle through repro.dataset
    from repro.dataset.live import LiveAnalytics
from repro.x509.certificate import Certificate

#: Hard ceiling on entries returned per get-entries page (RFC 6962
#: allows serving fewer entries than requested; real logs page too).
DEFAULT_PAGE_LIMIT = 1024

#: Bound on the bytes one log's proof/page memo holds.
MEMO_BYTES = 16 << 20

#: Bytes charged per memoized reply on top of its encoded body: the
#: decoded copy, the key and the LRU link of a small proof measure about
#: 1.6 KiB under tracemalloc, three times its encoded body.
_REPLY_OVERHEAD = 1536

_SLUG_CHARS = re.compile(r"[^a-z0-9]+")


def log_slug(name: str) -> str:
    """URL-safe slug for a log name ("Google Pilot log" -> "google-pilot-log")."""
    slug = _SLUG_CHARS.sub("-", name.lower()).strip("-")
    if not slug:
        raise ValueError(f"log name {name!r} does not slugify")
    return slug


class HttpApiError(Exception):
    """An error the server answers with a specific HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _Element(dict):
    """A ``get-entries`` element; a plain dict that weak references reach."""

    __slots__ = ("__weakref__",)


def entry_to_wire(entry: LogEntry) -> Dict[str, str]:
    """One get-entries element: RFC-shaped ``leaf_input`` + ``extra_data``.

    ``extra_data`` is the rest of the :func:`repro.ct.storage.entry_record`
    as sorted-key JSON, base64-wrapped, so a harvester can rebuild the
    exact :class:`~repro.ct.log.LogEntry`.
    """
    extra = entry_record(entry)
    leaf_input = extra.pop("leaf_input")
    return _Element(
        leaf_input=leaf_input,
        extra_data=_b64(
            json.dumps(extra, separators=(",", ":"), sort_keys=True).encode()
        ),
    )


_json_decode = json.JSONDecoder().decode


def entry_from_wire(element: Mapping[str, str]) -> LogEntry:
    """Invert :func:`entry_to_wire` (``extra_data`` must be UTF-8 JSON).

    Like :func:`repro.ct.storage.entry_from_record`, it raises
    :class:`ValueError` for any element it cannot decode.
    """
    try:
        extra = _a2b(element["extra_data"].encode("ascii"))
        record = _json_decode(extra.decode("utf-8"))
        record["leaf_input"] = element["leaf_input"]
    except _SHAPE_ERRORS as exc:
        raise ValueError(str(exc)) from None
    return entry_from_record(record)


def _encode(payload: Mapping[str, object]) -> bytes:
    """A reply body: sorted-key JSON and a newline."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _Reply(dict):
    """A memoized JSON reply that carries its encoded body.

    The body is encoded once, when the reply enters a memo, so a memo
    hit only writes :attr:`encoded`.  Any other payload, a plain dict,
    is encoded when it is sent.
    """

    __slots__ = ("encoded",)

    def __init__(self, body: Mapping[str, object]) -> None:
        super().__init__(body)
        self.encoded = _encode(self)


class _MemoCache:
    """A byte-bounded LRU for immutable responses (proofs, pages).

    Each reply is charged its encoded length plus ``_REPLY_OVERHEAD``,
    so a page of a thousand entries weighs what it holds, and so do
    thousands of small proofs.

    Only *validated* responses may be cached: every endpoint raises on
    malformed/out-of-range parameters **before** touching the cache,
    so junk requests can neither evict legitimate proof/page entries
    nor skew the hit-rate accounting.
    """

    def __init__(self) -> None:
        self._data: "OrderedDict[tuple, _Reply]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before any request (never divides by 0)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: tuple) -> bool:
        # Membership probe for tests/introspection: does not count as
        # a lookup and does not touch LRU order.
        return key in self._data

    def get(self, key: tuple) -> Optional[_Reply]:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: tuple, value: _Reply) -> None:
        # Callers put only after a miss under the log's lock: the key is new.
        self._data[key] = value
        self.bytes += len(value.encoded) + _REPLY_OVERHEAD
        while self.bytes > MEMO_BYTES:
            _, evicted = self._data.popitem(last=False)
            self.bytes -= len(evicted.encoded) + _REPLY_OVERHEAD


def default_split_partition(client_id: str) -> bool:
    """The default victim selector for :class:`SplitView` mounts.

    Returns True when the client should be served the equivocating
    twin.  Anonymous clients (empty id) always see the honest view.
    Named clients split deterministically: ids with a trailing
    ``-<number>`` component (the load generator's ``browser-3`` /
    ``monitor-1`` naming) split on that number's parity, anything else
    on the low bit of a sha256 over the id — never on Python's salted
    ``hash()``, which would change between processes.
    """
    if not client_id:
        return False
    tail = client_id.rsplit("-", 1)[-1]
    if tail.isdigit():
        return int(tail) % 2 == 1
    return hashlib.sha256(client_id.encode("utf-8")).digest()[-1] % 2 == 1


class SplitView:
    """A misbehaving log: honest view plus an equivocating twin.

    Mount this instead of a bare log to model the split-view attacker
    of the gossip literature: the server answers every read endpoint
    from either the honest log or the twin depending on which side the
    requesting client (the ``X-Repro-Client`` header) falls on.  Both
    views share one name/slug — clients cannot tell which side they
    are on without gossiping their STHs.

    ``partition`` maps a client id to True for "serve the twin"
    (default :func:`default_split_partition`).  Submissions always land
    on the honest log: the attack is about reads.
    """

    def __init__(
        self,
        honest: Union[CTLog, LogSequencer],
        twin: CTLog,
        *,
        partition: Optional[Callable[[str], bool]] = None,
    ) -> None:
        honest_log = honest.log if isinstance(honest, LogSequencer) else honest
        if log_slug(twin.name) != log_slug(honest_log.name):
            raise ValueError(
                f"split-view twin {twin.name!r} must share the honest "
                f"log's slug {log_slug(honest_log.name)!r}"
            )
        self.honest = honest
        self.twin = twin
        self.partition = (
            partition if partition is not None else default_split_partition
        )


class _ServedLog:
    """One mounted log: the object, its lock, and its memo caches.

    A mounted :class:`~repro.ct.sequencer.LogSequencer` brings its own
    tree lock (merges and HTTP readers must agree on one), and its
    published STH is reused instead of re-signing on scrape.
    """

    def __init__(self, target: Union[CTLog, LogSequencer]) -> None:
        if isinstance(target, LogSequencer):
            self.sequencer: Optional[LogSequencer] = target
            self.log = target.log
            # Readers take the same lock merges fold batches under.
            self.lock: threading.RLock = target.tree_lock
        else:
            self.sequencer = None
            self.log = target
            # One lock per log: CTLog is not thread-safe, and handler
            # threads race both reads and add-pre-chain mutations.
            self.lock = threading.RLock()
        self.slug = log_slug(self.log.name)
        self.memo = _MemoCache()
        self._sth_memo: Optional[Tuple[int, _Reply]] = None
        # get-entries elements by entry index, alive while a memoized
        # page (or a reply in flight) holds them.
        self._elements: "WeakValueDictionary[int, Dict[str, str]]" = (
            WeakValueDictionary()
        )
        # Split-view mount: (partition fn, the twin's _ServedLog).
        self.split: Optional[
            Tuple[Callable[[str], bool], "_ServedLog"]
        ] = None

    def select(self, client_id: str) -> "_ServedLog":
        """The view this client is served (honest unless partitioned)."""
        if self.split is not None and self.split[0](client_id):
            return self.split[1]
        return self

    def wire_entries(self, start: int, end: int) -> List[Dict[str, str]]:
        """The ``get-entries`` elements of entries ``[start, end]``.

        Every memoized page holding an entry shares its element: audit
        windows and harvest pages overlap, and a logged entry never
        changes.  The table holds elements weakly, so an element dies
        with the last page that holds it: the memo's byte bound on
        pages bounds the elements too.
        """
        elements = self._elements
        page = []
        for index, entry in enumerate(self.log.get_entries(start, end), start):
            element = elements.get(index)
            if element is None:
                element = elements[index] = entry_to_wire(entry)
            page.append(element)
        return page

    def sth_body(self, now: datetime) -> Dict[str, object]:
        """The signed tree head, memoized per tree size.

        One signature per tree growth: a million scrapes between two
        appends cost one RSA signing operation, exactly like a real
        log publishing an STH on an interval.  A sequenced log already
        signed an STH at merge time; that one is served as-is.
        """
        size = self.log.tree.size
        if self._sth_memo is not None and self._sth_memo[0] == size:
            self.memo.hits += 1
            return self._sth_memo[1]
        self.memo.misses += 1
        sth = None
        if self.sequencer is not None:
            published = self.sequencer.latest_sth()
            if published is not None and published.tree_size == size:
                sth = published
        if sth is None:
            sth = self.log.get_sth(now)
        body = _Reply({
            "tree_size": sth.tree_size,
            "timestamp": sth.timestamp_ms,
            "sha256_root_hash": _b64(sth.root_hash),
            "tree_head_signature": _b64(sth.signature),
        })
        self._sth_memo = (size, body)
        return body


Clock = Callable[[], datetime]


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class LogServer:
    """Serve one or more CT logs over HTTP (RFC 6962 section 4).

    Parameters
    ----------
    logs:
        A single :class:`~repro.ct.log.CTLog`, an iterable of logs, or
        a mapping of them.  Each log mounts at ``/<slug>/ct/v1/...``
        (see :func:`log_slug`); when exactly one log is served it also
        answers at the bare ``/ct/v1/...`` prefix.
    clock:
        Injectable UTC-now source stamping STHs and submissions
        (deterministic tests/storms pass a simulated clock).
    metrics / events:
        Obs sinks for the request-logging middleware (the null sinks
        by default).  Handler threads record into the thread-safe
        registry directly, and server-created sequencers share both.
    tracer:
        :class:`~repro.obs.trace.SpanTracer` (thread-safe).  The
        middleware opens one ``server.<endpoint>`` span per request,
        parented on the client span named by the incoming
        ``X-Repro-Traceparent`` header — the cross-process half of a
        distributed trace.  Server-created sequencers share the
        tracer, so merges emit consumer spans linked to the folded
        submissions.  The default :data:`~repro.obs.trace.NULL_TRACER`
        records no span.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port — the shared
        :class:`repro.util.httpd.HttpServerHandle` behaviour, identical
        to :class:`repro.obs.export.TelemetryServer`.
    merge_interval / max_batch:
        When ``merge_interval`` is set, every bare :class:`CTLog` is
        wrapped in a :class:`~repro.ct.sequencer.LogSequencer` whose
        background worker merges pending entries every
        ``merge_interval`` seconds in ``max_batch``-sized Merkle
        batches (MMD semantics: SCT first, inclusion later).  The
        worker follows :meth:`start`/:meth:`stop`; ``stop`` drains.
        Mounting a pre-built sequencer instead leaves merge scheduling
        to the caller.
    """

    def __init__(
        self,
        logs: Union[
            CTLog,
            LogSequencer,
            SplitView,
            Iterable[Union[CTLog, LogSequencer, SplitView]],
            Mapping[str, Union[CTLog, LogSequencer, SplitView]],
        ],
        *,
        clock: Optional[Clock] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        tracer: SpanTracer = NULL_TRACER,
        host: str = "127.0.0.1",
        port: int = 0,
        page_limit: int = DEFAULT_PAGE_LIMIT,
        merge_interval: Optional[float] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        if isinstance(logs, (CTLog, LogSequencer, SplitView)):
            log_list: List[Union[CTLog, LogSequencer, SplitView]] = [logs]
        elif isinstance(logs, Mapping):
            log_list = list(logs.values())
        else:
            log_list = list(logs)
        if not log_list:
            raise ValueError("LogServer needs at least one log")
        self._clock = clock if clock is not None else _utc_now
        self._metrics = metrics
        self._events = events
        self._tracer = tracer
        # Sequencers the server itself created (merge_interval mode):
        # their background workers follow the server's start()/stop().
        # Prebuilt LogSequencer mounts stay caller-managed.
        self._own_sequencers: List[LogSequencer] = []
        self._served: "Dict[str, _ServedLog]" = {}
        for log in log_list:
            split: Optional[SplitView] = None
            if isinstance(log, SplitView):
                # Split-view mounts serve as given: an equivocating
                # operator decides its own merge schedule.
                split = log
                log = log.honest
            elif isinstance(log, CTLog) and merge_interval is not None:
                log = LogSequencer(
                    log,
                    max_batch=max_batch,
                    merge_interval=merge_interval,
                    clock=self._clock,
                    metrics=metrics,
                    events=events,
                    tracer=tracer,
                )
                self._own_sequencers.append(log)
            served = _ServedLog(log)
            if split is not None:
                served.split = (split.partition, _ServedLog(split.twin))
            if served.slug in self._served:
                raise ValueError(f"duplicate log slug {served.slug!r}")
            self._served[served.slug] = served
        self._single = (
            next(iter(self._served.values())) if len(self._served) == 1 else None
        )
        self.page_limit = page_limit
        self._handle = HttpServerHandle(
            _LogServerHandler,
            owner=self,
            host=host,
            port=port,
            thread_name="repro-log-server",
        )

    # -- address / lifecycle (shared handle surface) -------------------------

    @property
    def host(self) -> str:
        return self._handle.host

    @property
    def port(self) -> int:
        return self._handle.port

    @property
    def url(self) -> str:
        return self._handle.url

    def start(self) -> "LogServer":
        self._handle.start()
        for sequencer in self._own_sequencers:
            sequencer.start()
        return self

    def stop(self) -> None:
        self._handle.stop()
        # After the socket closes no new submissions can land; merge
        # whatever is still pending so every issued SCT is honoured.
        for sequencer in self._own_sequencers:
            sequencer.stop(drain=True)

    def __enter__(self) -> "LogServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def log_url(self, name: str) -> str:
        """Base URL of one served log (``.../<slug>``)."""
        slug = log_slug(name)
        if slug not in self._served:
            raise KeyError(f"no served log named {name!r}")
        return f"{self.url}/{slug}"

    @property
    def slugs(self) -> List[str]:
        return sorted(self._served)

    # -- dispatch (handler threads) ------------------------------------------

    def _resolve(self, path: str) -> Tuple[_ServedLog, str]:
        """Split a URL path into (served log, endpoint path)."""
        if path.startswith("/ct/v1/") and self._single is not None:
            return self._single, path[len("/ct/v1/") :]
        parts = path.lstrip("/").split("/", 1)
        if len(parts) == 2 and parts[1].startswith("ct/v1/"):
            served = self._served.get(parts[0])
            if served is not None:
                return served, parts[1][len("ct/v1/") :]
        raise HttpApiError(404, f"unknown route {path!r}")

    def handle_request(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        client: str = "",
        traceparent: str = "",
    ) -> Tuple[int, Dict[str, object], str]:
        """Route one request; returns (status, json body, endpoint label).

        ``client`` is the requester's self-declared identity (the
        ``X-Repro-Client`` header) — only consulted by split-view
        mounts to pick which side of the partition answers reads.
        ``traceparent`` is the raw ``X-Repro-Traceparent`` header; the
        request runs under a ``server.<endpoint>`` span parented on the
        remote client span it names.
        """
        parent = TraceContext.parse(traceparent)
        with self._tracer.span(
            "server.request", kind="server", parent=parent
        ) as span:
            status, payload, endpoint = self._handle_routed(
                method, path, query, body, client
            )
            # The endpoint is only known after routing; rename before
            # the span closes so the serialized event carries it.
            span.name = f"server.{endpoint}"
            span.set("endpoint", endpoint)
            span.set("status", status)
            span.set("method", method)
            return status, payload, endpoint

    def _handle_routed(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        client: str = "",
    ) -> Tuple[int, Dict[str, object], str]:
        """Answer one request and record it as one event."""
        endpoint = "unknown"
        slug = "-"
        started = time.perf_counter()
        try:
            if path in ("", "/"):
                endpoint = "index"
                if method != "GET":
                    raise HttpApiError(405, "index is GET-only")
                status, payload = 200, self._index_body()
            else:
                served, endpoint = self._resolve(path)
                slug = served.slug
                params = parse_qs(query)
                if endpoint == "add-pre-chain":
                    if method != "POST":
                        raise HttpApiError(405, "add-pre-chain requires POST")
                    # Submissions always land on the honest log: the
                    # split-view attack is about diverging *reads*.
                    status, payload = self._add_pre_chain(served, body)
                elif method != "GET":
                    raise HttpApiError(405, f"{endpoint} requires GET")
                else:
                    served = served.select(client)
                    if endpoint == "get-sth":
                        status, payload = self._get_sth(served)
                    elif endpoint == "get-entries":
                        status, payload = self._get_entries(served, params)
                    elif endpoint == "get-proof-by-hash":
                        status, payload = self._get_proof_by_hash(served, params)
                    elif endpoint == "get-sth-consistency":
                        status, payload = self._get_consistency(served, params)
                    elif endpoint == "get-batch-digest":
                        status, payload = self._get_batch_digest(served, params)
                    else:
                        raise HttpApiError(404, f"unknown endpoint {endpoint!r}")
        except HttpApiError as exc:
            status, payload = exc.status, {"error": exc.message, "code": exc.status}
        except LogOverloadedError as exc:
            status, payload = 429, {"error": str(exc), "code": 429}
        except LogDisqualifiedError as exc:
            status, payload = 410, {"error": str(exc), "code": 410}
        except Exception as exc:  # defensive: never a bare 500 page
            status, payload = 500, {"error": f"internal error: {exc!r}", "code": 500}
        record(
            self._metrics, self._events, "log_server_request",
            endpoint=endpoint, status=status, log=slug,
            duration_ms=round((time.perf_counter() - started) * 1e3, 3),
        )
        return status, payload, endpoint

    # -- endpoint bodies -----------------------------------------------------

    def _index_body(self) -> Dict[str, object]:
        logs = []
        for slug in sorted(self._served):
            served = self._served[slug]
            with served.lock:
                entry: Dict[str, object] = {
                    "slug": slug,
                    "name": served.log.name,
                    "operator": served.log.operator,
                    "tree_size": served.log.tree.size,
                    "disqualified": served.log.disqualified,
                    "url": f"/{slug}",
                }
            if served.sequencer is not None:
                entry["pending"] = served.sequencer.pending_count()
            if served.split is not None:
                entry["split_view"] = True
            logs.append(entry)
        return {"logs": logs}

    def _get_sth(self, served: _ServedLog) -> Tuple[int, Dict[str, object]]:
        with served.lock:
            return 200, served.sth_body(self._clock())

    @staticmethod
    def _int_param(params: Mapping[str, List[str]], name: str) -> int:
        values = params.get(name)
        if not values:
            raise HttpApiError(400, f"missing parameter {name!r}")
        try:
            return int(values[0])
        except ValueError:
            raise HttpApiError(
                400, f"parameter {name!r} must be an integer, got {values[0]!r}"
            ) from None

    def _get_entries(
        self, served: _ServedLog, params: Mapping[str, List[str]]
    ) -> Tuple[int, Dict[str, object]]:
        start = self._int_param(params, "start")
        end = self._int_param(params, "end")
        if start < 0 or end < start:
            raise HttpApiError(
                400, f"invalid range: start={start} end={end}"
            )
        with served.lock:
            size = served.log.tree.size
            if size == 0:
                raise HttpApiError(400, "log is empty")
            if start >= size:
                raise HttpApiError(
                    400, f"start={start} beyond tree_size={size}"
                )
            # RFC 6962 lets the log return fewer entries than asked:
            # clamp the tail and page down to the serving limit.
            end = min(end, size - 1, start + self.page_limit - 1)
            key = ("entries", start, end)
            cached = served.memo.get(key)
            if cached is None:
                cached = _Reply({"entries": served.wire_entries(start, end)})
                served.memo.put(key, cached)
            return 200, cached

    def _get_proof_by_hash(
        self, served: _ServedLog, params: Mapping[str, List[str]]
    ) -> Tuple[int, Dict[str, object]]:
        tree_size = self._int_param(params, "tree_size")
        hashes = params.get("hash")
        if not hashes:
            raise HttpApiError(400, "missing parameter 'hash'")
        try:
            digest = _unb64(hashes[0])
        except Exception:
            raise HttpApiError(400, "parameter 'hash' is not valid base64") from None
        with served.lock:
            size = served.log.tree.size
            if not 0 < tree_size <= size:
                raise HttpApiError(
                    400, f"tree_size={tree_size} outside (0, {size}]"
                )
            index = served.log.tree.leaf_index(digest)
            if index is None:
                raise HttpApiError(404, "leaf hash not found in this log")
            if index >= tree_size:
                raise HttpApiError(
                    400,
                    f"leaf index {index} not included in tree_size={tree_size}",
                )
            key = ("incl", digest, tree_size)
            cached = served.memo.get(key)
            if cached is None:
                proof = served.log.get_proof_by_hash(index, tree_size)
                cached = _Reply({
                    "leaf_index": index,
                    "audit_path": [_b64(node) for node in proof],
                })
                served.memo.put(key, cached)
            return 200, cached

    def _get_consistency(
        self, served: _ServedLog, params: Mapping[str, List[str]]
    ) -> Tuple[int, Dict[str, object]]:
        first = self._int_param(params, "first")
        second = self._int_param(params, "second")
        with served.lock:
            size = served.log.tree.size
            if not 0 <= first <= second <= size:
                raise HttpApiError(
                    400,
                    f"require 0 <= first <= second <= tree_size, got "
                    f"first={first} second={second} tree_size={size}",
                )
            key = ("cons", first, second)
            cached = served.memo.get(key)
            if cached is None:
                proof = served.log.get_consistency(first, second)
                cached = _Reply({"consistency": [_b64(node) for node in proof]})
                served.memo.put(key, cached)
            return 200, cached

    def _get_batch_digest(
        self, served: _ServedLog, params: Mapping[str, List[str]]
    ) -> Tuple[int, Dict[str, object]]:
        """Signed domain digest of the merge batch containing ``start``.

        The batch ends at the first published merge boundary past
        ``start`` (sequenced logs), or at the current tree size (bare
        logs, where every entry is merged on arrival) — so a
        light-weight monitor walking digests from its cursor sees the
        same batches the sequencer published STHs for.
        """
        start = self._int_param(params, "start")
        with served.lock:
            size = served.log.tree.size
            if not 0 <= start < size:
                raise HttpApiError(
                    400, f"start={start} outside [0, {size})"
                )
            end = size
            if served.sequencer is not None:
                for boundary in served.sequencer.batch_boundaries():
                    if boundary > start:
                        end = min(end, boundary)
                        break
            key = ("digest", start, end)
            cached = served.memo.get(key)
            if cached is None:
                digest = served.log.batch_digest(start, end, self._clock())
                cached = _Reply({
                    "start": digest.start,
                    "end": digest.end,
                    "timestamp": digest.timestamp_ms,
                    "sha256_root_hash": _b64(digest.root_hash),
                    "domains": [
                        [index, list(names)]
                        for index, names in digest.domains
                    ],
                    "signature": _b64(digest.signature),
                })
                served.memo.put(key, cached)
            return 200, cached

    def _add_pre_chain(
        self, served: _ServedLog, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise HttpApiError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HttpApiError(400, "request body must be a JSON object")
        chain = payload.get("chain")
        if not isinstance(chain, list) or not chain:
            raise HttpApiError(400, "body needs a non-empty 'chain' list")
        if "issuer_key_hash" not in payload:
            raise HttpApiError(400, "body needs 'issuer_key_hash'")
        try:
            precert = certificate_from_dict(chain[0])
            issuer_key_hash = _unb64(payload["issuer_key_hash"])
        except HttpApiError:
            raise
        except Exception as exc:
            raise HttpApiError(400, f"malformed chain: {exc}") from None
        if served.sequencer is not None:
            # MMD write path: dedup + SCT signing happen in the
            # sequencer without touching the per-log read lock, so a
            # submission storm on this log never serializes against
            # readers — or against other logs' writers.
            try:
                sct = served.sequencer.submit_pre_chain(
                    precert, issuer_key_hash, self._clock()
                )
            except ValueError as exc:
                raise HttpApiError(400, str(exc)) from None
        else:
            with served.lock:
                try:
                    sct = served.log.add_pre_chain(
                        precert, issuer_key_hash, self._clock()
                    )
                except ValueError as exc:
                    raise HttpApiError(400, str(exc)) from None
        return 200, {
            "sct_version": 0,
            "id": _b64(sct.log_id),
            "timestamp": sct.timestamp_ms,
            "extensions": _b64(sct.extensions),
            "signature": _b64(sct.signature),
        }

    # -- introspection -------------------------------------------------------

    def drain_writes(self) -> int:
        """Merge every pending entry on every sequenced log, now.

        Returns the number of entries folded.  Useful for tests and
        storms that issued SCTs and want inclusion proofs without
        waiting out the merge interval.  Per-entry logs contribute 0.
        """
        return sum(
            served.sequencer.drain()
            for served in self._served.values()
            if served.sequencer is not None
        )

    def sequencer_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-log sequencer counters (sequenced logs only)."""
        return {
            slug: served.sequencer.stats()
            for slug, served in sorted(self._served.items())
            if served.sequencer is not None
        }

    def memo_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-log memo counters (STH memo included).

        ``hit_rate`` is hits per lookup and is 0.0 for a server that
        has not seen a single memoized request yet — scraping the
        stats before any traffic never divides by zero.
        """
        return {
            slug: {
                "hits": served.memo.hits,
                "misses": served.memo.misses,
                "lookups": served.memo.lookups,
                "hit_rate": served.memo.hit_rate(),
            }
            for slug, served in sorted(self._served.items())
        }


_TRACEPARENT = TRACEPARENT_HEADER.lower()


class _LogServerHandler(FramedRequestHandler):
    server_version = "repro-ct-log/1"
    protocol_version = "HTTP/1.1"
    #: Without it, a kept-alive reply meets Nagle plus delayed ACK.
    disable_nagle_algorithm = True
    #: Seconds a connection may idle (or a request trickle in).
    timeout = 15.0
    #: Largest request body; a precertificate chain is a few KB.
    MAX_BODY_BYTES = 1 << 20

    def _dispatch(self, method: str) -> None:
        owner: LogServer = self.server.owner  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("content-length") or 0)
        except ValueError:
            length = -1
        # Whatever body follows a bad length would desynchronise the
        # next request on this connection: send_error hangs up.
        if length < 0:
            self.send_error(400, "invalid Content-Length")
            return
        if length > self.MAX_BODY_BYTES:
            self.send_error(413, f"request body over {self.MAX_BODY_BYTES} bytes")
            return
        headers, parts = self.headers, urlsplit(self.path)
        status, payload, _ = owner.handle_request(
            method, parts.path, parts.query, self.rfile.read(length) if length else b"",
            headers.get("x-repro-client", ""), headers.get(_TRACEPARENT, ""),
        )
        self.reply(
            status,
            payload.encoded if isinstance(payload, _Reply) else _encode(payload),
        )

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


# -- client side --------------------------------------------------------------


class LogClientError(RuntimeError):
    """A non-2xx answer from a log endpoint."""

    def __init__(self, status: int, body: Mapping[str, object]) -> None:
        super().__init__(f"HTTP {status}: {body.get('error', body)}")
        self.status = status
        self.body = dict(body)


class LogClient:
    """Minimal stdlib client for one served log.

    ``base_url`` is the log's mount point — ``server.log_url(name)``,
    or the server URL itself for a single-log server.  ``client_id``
    is sent as the ``X-Repro-Client`` header (how split-view mounts
    partition their victims).  The client keeps a wire ledger:
    ``requests`` and ``bytes_received`` count every call, including
    error responses — the cost accounting the light-weight monitor
    benchmark gates on.

    Connections (:class:`repro.util.httpd.ClientConnection`) are
    persistent and pooled: a call borrows an idle one,
    so a thread reuses one connection and N concurrent threads hold at
    most N.  A call whose *reused* connection the server has closed is
    sent once more on a fresh one (safe for ``add-pre-chain``: the log
    deduplicates resubmissions); errors on a fresh connection raise as
    is, e.g. ``ConnectionRefusedError``.  :meth:`close` (or a ``with``
    block) closes the idle connections.

    With a ``tracer`` attached, every call runs under an
    ``http.<endpoint>`` client span whose context is injected as the
    ``X-Repro-Traceparent`` header, so the server's span joins this
    client's trace.  The default :data:`~repro.obs.trace.NULL_TRACER`
    sends no such header.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        client_id: Optional[str] = None,
        tracer: SpanTracer = NULL_TRACER,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if client_id and not client_id.isprintable():  # it goes out as a header line
            raise ValueError(f"client_id {client_id!r} is not a printable header value")
        self.client_id = client_id
        self.tracer = tracer
        self.requests = 0
        self.bytes_received = 0
        self._url = urlsplit(self.base_url)
        # LIFO, so a lone thread keeps reusing its warm connection.
        self._idle: List[ClientConnection] = []
        self._lock = threading.Lock()  # the pool and the wire ledger

    def close(self) -> None:
        """Close the idle connections (a later call reconnects)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "LogClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _call(
        self,
        endpoint: str,
        params: Optional[Mapping[str, object]] = None,
        post_body: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        with self.tracer.span(f"http.{endpoint}", kind="client") as span:
            if self.client_id:
                span.set("client", self.client_id)
            try:
                body = self._request(
                    endpoint, params, post_body, span.context.to_header()
                )
            except LogClientError as exc:
                span.set("status", exc.status)
                raise
            span.set("status", 200)
            return body

    def _request(
        self,
        endpoint: str,
        params: Optional[Mapping[str, object]] = None,
        post_body: Optional[Mapping[str, object]] = None,
        traceparent: str = "",
    ) -> Dict[str, object]:
        path = f"{self._url.path}/ct/v1/{endpoint}"
        if params:
            query = "&".join(
                f"{key}={_quote(str(value))}" for key, value in params.items()
            )
            path = f"{path}?{query}"
        lines = [
            f"{'GET' if post_body is None else 'POST'} {path} HTTP/1.1",
            f"Host: {self._url.netloc}",
        ]
        if self.client_id:
            lines.append(f"X-Repro-Client: {self.client_id}")
        if traceparent:
            lines.append(f"{TRACEPARENT_HEADER}: {traceparent}")
        data = b""
        if post_body is not None:
            data = json.dumps(post_body).encode("utf-8")
            lines += ["Content-Type: application/json", f"Content-Length: {len(data)}"]
        message = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data
        with self._lock:
            self.requests += 1
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = ClientConnection(
                self._url.hostname, self._url.port, timeout=self.timeout
            )
        while True:
            reused = connection.sock is not None
            try:
                status, raw, keep_alive = connection.exchange(message)
                break
            except (RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                connection.close()
                if not reused:
                    raise
                # The server closed a kept-alive connection: retry once;
                # the closed connection reopens fresh.
            except BaseException:
                connection.close()
                raise
        if not keep_alive:
            connection.close()
        with self._lock:
            if keep_alive:
                self._idle.append(connection)
            self.bytes_received += len(raw)
        if 200 <= status < 300:
            return json.loads(raw.decode("utf-8"))
        try:
            body = json.loads(raw.decode("utf-8"))
        except Exception:
            body = {"error": f"HTTP {status}"}
        raise LogClientError(status, body)

    # -- RFC 6962 calls ------------------------------------------------------

    def get_sth(self) -> Dict[str, object]:
        return self._call("get-sth")

    def get_signed_tree_head(self) -> SignedTreeHead:
        """``get-sth`` parsed into a :class:`~repro.ct.log.SignedTreeHead`."""
        body = self.get_sth()
        return SignedTreeHead(
            tree_size=int(body["tree_size"]),
            timestamp_ms=int(body["timestamp"]),
            root_hash=_unb64(str(body["sha256_root_hash"])),
            signature=_unb64(str(body["tree_head_signature"])),
        )

    def get_batch_digest(self, start: int) -> BatchDigest:
        """The signed batch digest covering entry ``start``."""
        body = self._call("get-batch-digest", {"start": start})
        return BatchDigest(
            start=int(body["start"]),
            end=int(body["end"]),
            timestamp_ms=int(body["timestamp"]),
            root_hash=_unb64(str(body["sha256_root_hash"])),
            domains=tuple(
                (int(index), tuple(names)) for index, names in body["domains"]
            ),
            signature=_unb64(str(body["signature"])),
        )

    def get_entries(self, start: int, end: int) -> List[LogEntry]:
        body = self._call("get-entries", {"start": start, "end": end})
        return [entry_from_wire(element) for element in body["entries"]]

    def get_proof_by_hash(
        self, digest: bytes, tree_size: int
    ) -> Tuple[int, List[bytes]]:
        body = self._call(
            "get-proof-by-hash",
            {"hash": _b64(digest), "tree_size": tree_size},
        )
        return (
            int(body["leaf_index"]),
            [_unb64(node) for node in body["audit_path"]],
        )

    def get_sth_consistency(self, first: int, second: int) -> List[bytes]:
        body = self._call(
            "get-sth-consistency", {"first": first, "second": second}
        )
        return [_unb64(node) for node in body["consistency"]]

    def add_pre_chain(
        self, precert: Certificate, issuer_key_hash: bytes
    ) -> SignedCertificateTimestamp:
        body = self._call(
            "add-pre-chain",
            post_body={
                "chain": [certificate_to_dict(precert)],
                "issuer_key_hash": _b64(issuer_key_hash),
            },
        )
        return SignedCertificateTimestamp(
            log_id=_unb64(body["id"]),
            timestamp_ms=int(body["timestamp"]),
            entry_type=SctEntryType.PRECERT_ENTRY,
            signature=_unb64(body["signature"]),
            extensions=_unb64(body["extensions"]),
        )


class HarvestedLog:
    """A log replica rebuilt purely from HTTP responses.

    Duck-type compatible with :class:`~repro.ct.log.CTLog` where it
    matters downstream: ``name`` / ``operator`` / ``entries`` /
    ``tree``, which is all :func:`repro.ct.storage.dump_log` and
    :meth:`repro.dataset.CertCorpus.from_logs` touch.
    """

    def __init__(self, name: str, operator: str) -> None:
        self.name = name
        self.operator = operator
        self.entries: List[LogEntry] = []
        self.tree = MerkleTree()

    @property
    def size(self) -> int:
        return len(self.entries)


class HarvestMismatchError(RuntimeError):
    """A log's answers do not add up: a bad page or a wrong root."""


def page_entries(
    client: LogClient, start: int, end: int, page_size: int
) -> Iterator[List[LogEntry]]:
    """Page ``client.get_entries`` over ``[start, end]``, checking each page.

    No request reaches past ``end``.  A page longer than the window it
    was asked for is cut to that window, and its entries must be
    numbered ``index, index + 1, ...`` from the index it was asked at.
    An empty or misnumbered page (so also one that does not advance)
    raises :class:`HarvestMismatchError` before it is yielded, so
    nothing downstream ever sees an entry the log did not vouch for.
    """
    index = start
    while index <= end:
        stop = min(end, index + page_size - 1)
        page = client.get_entries(index, stop)
        if not page:
            raise HarvestMismatchError(
                f"empty get-entries page at index {index}"
            )
        if len(page) > stop - index + 1:
            page = page[: stop - index + 1]
        for expected, entry in enumerate(page, index):
            if entry.index != expected:
                raise HarvestMismatchError(
                    f"get-entries({index}, {stop}) answered entry "
                    f"{entry.index} in place of {expected}"
                )
        yield page
        index += len(page)


def harvest_log(
    client: LogClient,
    *,
    name: str = "",
    operator: str = "",
    page_size: int = 256,
    analytics: Optional["LiveAnalytics"] = None,
) -> HarvestedLog:
    """Rebuild a complete log replica over HTTP and verify it.

    Pages ``get-entries`` from 0 to the ``get-sth`` tree size through
    :func:`page_entries`, rebuilds the Merkle tree from the returned
    ``leaf_input`` bytes, and requires the rebuilt root to equal the
    served ``sha256_root_hash`` — a truncated, misnumbered or tampered
    harvest raises :class:`HarvestMismatchError`.

    Every round is pinned to the ``tree_size`` of the STH fetched up
    front: a log that grows mid-harvest (or a replica that over-answers
    a range) cannot slip entries past the verified tree head.

    An attached :class:`~repro.dataset.live.LiveAnalytics` absorbs
    each checked page as it lands (``analytics=``), so live harvests
    stream straight into the incremental Fig 1a/1b/Table 1 aggregates.
    """
    sth = client.get_sth()
    size = int(sth["tree_size"])
    replica = HarvestedLog(name, operator)
    for page in page_entries(client, 0, size - 1, page_size):
        replica.tree.append_many([entry.leaf_input for entry in page])
        replica.entries.extend(page)
        if analytics is not None:
            analytics.fold_entries(name, page)
    if size and replica.tree.root() != _unb64(str(sth["sha256_root_hash"])):
        raise HarvestMismatchError(
            "rebuilt Merkle root does not match the served STH"
        )
    return replica


def _quote(value: str) -> str:
    return quote(value, safe="")


__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "HarvestMismatchError",
    "HarvestedLog",
    "HttpApiError",
    "LogClient",
    "LogClientError",
    "LogServer",
    "SplitView",
    "default_split_partition",
    "entry_from_wire",
    "entry_to_wire",
    "harvest_log",
    "log_slug",
    "page_entries",
]
