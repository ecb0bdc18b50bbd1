"""Live telemetry export: Prometheus exposition + HTTP endpoints.

The batch observability layer writes a :class:`MetricsSnapshot` once,
at process exit; this module is the *live* half for long-running loops
(``CertFeed.poll``, the monitors, the STH auditor):

* :func:`render_prometheus` renders a snapshot in the Prometheus text
  exposition format (version 0.0.4) — counters (``_total`` suffix),
  gauges, and histograms (cumulative ``_bucket{le=...}`` series plus
  ``_sum``/``_count``) with escaped label values and fully
  deterministic ordering: two equal snapshots render to equal bytes;
* :class:`TelemetryServer` is a dependency-free ``http.server``
  endpoint serving ``GET /metrics`` (exposition text), ``GET /health``
  (the SLO verdicts of :mod:`repro.obs.health` as JSON; 503 once any
  log is ``failing``), ``GET /events/tail?n=N`` (the most recent
  events of an attached :class:`~repro.obs.events.EventLog` as JSONL),
  ``GET /analytics`` (the version-1 live-analytics snapshot of an
  attached :class:`~repro.dataset.live.LiveAnalytics` — the paper's
  Fig 1a/1b/Table 1 aggregates, folded incrementally), and
  ``GET /spans?trace_id=...`` (one assembled trace from an attached
  :class:`~repro.obs.tracectx.TraceStore` source; without the query
  parameter, a summary of every known trace).

The server never touches a registry directly — it calls the injected
provider callables on every request, so the owner of the loop decides
what (and under which lock) gets exposed.
"""

from __future__ import annotations

import json
import re
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricsSnapshot, Number
from repro.util.httpd import FramedRequestHandler, HttpServerHandle

if TYPE_CHECKING:
    from repro.obs.events import EventLog
    from repro.obs.tracectx import TraceStore

#: Content type of the Prometheus text exposition format.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: One exposition sample line: ``name{labels} value`` (labels optional).
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$|"
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [+-]?Inf$"
)


def split_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`repro.obs.metrics.metric_key`.

    ``name{k=v,...}`` → ``(name, {k: v, ...})``.  A comma inside a
    label *value* (label keys are identifiers) is re-joined onto the
    preceding pair, so values containing commas round-trip.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: Dict[str, str] = {}
    last: Optional[str] = None
    for part in inner.split(","):
        if "=" in part and (last is None or not part.startswith(" ")):
            label, _, value = part.partition("=")
            labels[label] = value
            last = label
        elif last is not None:
            labels[last] += "," + part
        else:  # pragma: no cover - malformed key
            raise ValueError(f"unparseable metric key {key!r}")
    return name, labels


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """A valid exposition metric name: prefixed, ``[a-zA-Z0-9_:]`` only."""
    sanitized = _INVALID_NAME_CHARS.sub("_", prefix + name)
    if sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def format_number(value: Number) -> str:
    """Deterministic sample-value rendering (ints bare, floats ``repr``)."""
    if isinstance(value, bool):  # pragma: no cover - counters reject bools
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_block(labels: Mapping[str, str], extra: str = "") -> str:
    """``{k="v",...}`` with keys sorted; empty string when no labels."""
    pairs = [
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _families(
    samples: Mapping[str, Number],
) -> "Dict[str, List[Tuple[str, Dict[str, str], Number]]]":
    """Group samples by bare metric name, preserving canonical key order."""
    families: Dict[str, List[Tuple[str, Dict[str, str], Number]]] = {}
    for key in sorted(samples):
        name, labels = split_metric_key(key)
        families.setdefault(name, []).append((key, labels, samples[key]))
    return families


def render_prometheus(
    snapshot: MetricsSnapshot, prefix: str = "repro_"
) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Output is fully deterministic: families sorted by name within each
    section (counters, then gauges, then histograms), series sorted by
    their canonical label key.  Counter families get the conventional
    ``_total`` suffix; histogram buckets are cumulative with a closing
    ``le="+Inf"`` bucket equal to ``_count``.
    """
    lines: List[str] = []

    for name, series in sorted(_families(snapshot.counters).items()):
        exposed = prometheus_name(name, prefix) + "_total"
        lines.append(f"# TYPE {exposed} counter")
        for _, labels, value in series:
            lines.append(
                f"{exposed}{_label_block(labels)} {format_number(value)}"
            )

    for name, series in sorted(_families(snapshot.gauges).items()):
        exposed = prometheus_name(name, prefix)
        lines.append(f"# TYPE {exposed} gauge")
        for _, labels, value in series:
            lines.append(
                f"{exposed}{_label_block(labels)} {format_number(value)}"
            )

    histogram_families = _families(
        {key: 0 for key in snapshot.histograms}
    )
    for name, series in sorted(histogram_families.items()):
        exposed = prometheus_name(name, prefix)
        lines.append(f"# TYPE {exposed} histogram")
        for key, labels, _ in series:
            hist = snapshot.histograms[key]
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += count
                le = _label_block(labels, f'le="{format_number(bound)}"')
                lines.append(f"{exposed}_bucket{le} {cumulative}")
            inf = _label_block(labels, 'le="+Inf"')
            lines.append(f"{exposed}_bucket{inf} {hist['count']}")
            block = _label_block(labels)
            lines.append(f"{exposed}_sum{block} {format_number(hist['sum'])}")
            lines.append(f"{exposed}_count{block} {hist['count']}")

    return "\n".join(lines) + ("\n" if lines else "")


SnapshotSource = Callable[[], MetricsSnapshot]
HealthSource = Callable[[], object]  # HealthReport or plain dict
AnalyticsSource = Callable[[], object]  # LiveAnalytics to_dict() or plain dict
TraceSource = Callable[[], "TraceStore"]  # current assembled trace store


class TelemetryServer:
    """A stdlib HTTP endpoint for live scraping of a running loop.

    Parameters
    ----------
    snapshot_source:
        Callable returning the current :class:`MetricsSnapshot`
        (typically ``registry.snapshot`` behind the loop's lock).
    health_source:
        Optional callable returning a
        :class:`repro.obs.health.HealthReport` (or an equivalent dict)
        for ``/health``; without it the route answers 404.
    events:
        Optional :class:`~repro.obs.events.EventLog` backing
        ``/events/tail``; without it the route answers 404.
    analytics_source:
        Optional callable returning the current live-analytics
        snapshot for ``/analytics`` — typically
        :meth:`repro.dataset.live.LiveAnalytics.to_dict` (any mapping
        works); without it the route answers 404.
    trace_source:
        Optional callable returning the current
        :class:`~repro.obs.tracectx.TraceStore` for ``/spans``;
        without it the route answers 404.
    host / port:
        Bind address; ``port=0`` (the default) picks an ephemeral port,
        exposed as :attr:`port` / :attr:`url` after construction.

    Use as a context manager, or call :meth:`start` / :meth:`stop`;
    requests are served on daemon threads and never block the loop.
    The bind/serve/shutdown lifecycle (and the ephemeral-port
    behaviour) is the shared :class:`repro.util.httpd.HttpServerHandle`
    — the same helper behind :class:`repro.ct.server.LogServer`.
    """

    def __init__(
        self,
        snapshot_source: SnapshotSource,
        *,
        health_source: Optional[HealthSource] = None,
        events: Optional["EventLog"] = None,
        analytics_source: Optional[AnalyticsSource] = None,
        trace_source: Optional[TraceSource] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro_",
    ) -> None:
        self._snapshot_source = snapshot_source
        self._health_source = health_source
        self._events = events
        self._analytics_source = analytics_source
        self._trace_source = trace_source
        self._prefix = prefix
        self._handle = HttpServerHandle(
            _TelemetryHandler,
            owner=self,
            host=host,
            port=port,
            thread_name="repro-telemetry",
        )

    @property
    def host(self) -> str:
        return self._handle.host

    @property
    def port(self) -> int:
        return self._handle.port

    @property
    def url(self) -> str:
        return self._handle.url

    def start(self) -> "TelemetryServer":
        self._handle.start()
        return self

    def stop(self) -> None:
        self._handle.stop()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- responses (called from handler threads) -----------------------------

    def _metrics_response(self) -> Tuple[int, str, str]:
        text = render_prometheus(self._snapshot_source(), self._prefix)
        return 200, EXPOSITION_CONTENT_TYPE, text

    def _health_response(self) -> Tuple[int, str, str]:
        if self._health_source is None:
            return 404, "application/json", '{"error": "no health source"}\n'
        report = self._health_source()
        body: Mapping[str, object] = (
            report.to_dict() if hasattr(report, "to_dict") else report  # type: ignore[union-attr]
        )
        status = 503 if body.get("overall") == "failing" else 200
        return status, "application/json", json.dumps(body, sort_keys=True) + "\n"

    def _analytics_response(self) -> Tuple[int, str, str]:
        if self._analytics_source is None:
            return 404, "application/json", '{"error": "no analytics source"}\n'
        snapshot = self._analytics_source()
        body: Mapping[str, object] = (
            snapshot.to_dict() if hasattr(snapshot, "to_dict") else snapshot  # type: ignore[union-attr]
        )
        return 200, "application/json", json.dumps(body, sort_keys=True) + "\n"

    def _events_response(self, query: str) -> Tuple[int, str, str]:
        if self._events is None:
            return 404, "application/json", '{"error": "no event log"}\n'
        params = parse_qs(query)
        try:
            n = int(params.get("n", ["100"])[0])
        except ValueError:
            return 400, "application/json", '{"error": "n must be an int"}\n'
        lines = [
            json.dumps(event, sort_keys=True)
            for event in self._events.tail(max(0, n))
        ]
        body = "\n".join(lines) + ("\n" if lines else "")
        return 200, "application/x-ndjson", body

    def _spans_response(self, query: str) -> Tuple[int, str, str]:
        if self._trace_source is None:
            return 404, "application/json", '{"error": "no trace source"}\n'
        store = self._trace_source()
        params = parse_qs(query)
        trace_id = params.get("trace_id", [""])[0].strip().lower()
        if trace_id:
            spans = store.spans_for(trace_id)
            if not spans:
                return (
                    404,
                    "application/json",
                    '{"error": "unknown trace_id"}\n',
                )
            body = {"trace_id": trace_id, "spans": spans}
        else:
            body = {
                "traces": [
                    {
                        "trace_id": known,
                        "spans": len(store.spans_for(known)),
                    }
                    for known in store.trace_ids()
                ]
            }
        return 200, "application/json", json.dumps(body, sort_keys=True) + "\n"


class _TelemetryHandler(FramedRequestHandler):
    server_version = "repro-telemetry/1"

    def do_GET(self) -> None:
        telemetry: TelemetryServer = self.server.owner  # type: ignore[attr-defined]
        parts = urlsplit(self.path)
        try:
            if parts.path == "/metrics":
                status, ctype, body = telemetry._metrics_response()
            elif parts.path == "/health":
                status, ctype, body = telemetry._health_response()
            elif parts.path == "/analytics":
                status, ctype, body = telemetry._analytics_response()
            elif parts.path == "/events/tail":
                status, ctype, body = telemetry._events_response(parts.query)
            elif parts.path == "/spans":
                status, ctype, body = telemetry._spans_response(parts.query)
            else:
                status, ctype, body = (
                    404,
                    "application/json",
                    '{"error": "unknown route"}\n',
                )
        except Exception as exc:  # pragma: no cover - defensive
            status, ctype, body = (
                500,
                "application/json",
                json.dumps({"error": repr(exc)}) + "\n",
            )
        self.reply(status, body.encode("utf-8"), ctype)


def parse_exposition(text: str) -> Dict[str, Union[int, float]]:
    """Parse exposition text back into ``{sample-key: value}``.

    The inverse of :func:`render_prometheus` for tests and smoke
    checks: comment lines are skipped, each sample line must match
    :data:`SAMPLE_LINE`, and keys are the literal ``name{labels}``
    text.  Raises :class:`ValueError` on a malformed line.
    """
    samples: Dict[str, Union[int, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if line and not line.startswith("# TYPE "):
                raise ValueError(f"unexpected comment line: {line!r}")
            continue
        if not SAMPLE_LINE.match(line):
            raise ValueError(f"malformed exposition line: {line!r}")
        key, _, value = line.rpartition(" ")
        number = float(value)
        samples[key] = int(number) if number.is_integer() else number
    return samples
