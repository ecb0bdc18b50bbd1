"""Thread-safe wall-time spans with trace context and JSON export.

A :class:`SpanTracer` records nested spans; ``span(name)`` is a
context manager that captures start time (Unix seconds), duration
(monotonic clock), the parent span, and a :class:`TraceContext`
identity (``trace_id``/``span_id``) minted from a seeded
:class:`~repro.obs.tracectx.TraceIdSource`.

The tracer is safe to share across threads — exactly what a
``ThreadingHTTPServer`` middleware needs: each thread keeps its own
stack of open spans (``threading.local``) while the recorded ``spans``
list is guarded by one lock.  Spans therefore appear in *global start
order*, which is no longer tree order; :meth:`SpanTracer.render`
rebuilds the tree from parent links instead.

Cross-process traces stitch together through two hooks:

* ``span(..., parent=TraceContext(...))`` opens a span as the child of
  a *remote* span (e.g. the client span named in an incoming
  ``X-Repro-Traceparent`` header);
* :meth:`SpanTracer.record_remote` files an already-finished span
  shipped home from a worker process.

When an :class:`~repro.obs.events.EventLog` is attached, every span
serializes on close as one ``span`` event, so replaying the JSONL log
rebuilds the identical :class:`~repro.obs.tracectx.TraceStore`.

:data:`NULL_TRACER` is the tracer every instrumented layer opens spans
on when none is attached: its ``span()`` returns one shared inert span
whose context sends no ``X-Repro-Traceparent`` header.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.events import NULL_EVENTS, EventLog
from repro.obs.tracectx import (
    TraceContext,
    TraceIdSource,
    _jsonify,
    normalize_span_record,
)


@dataclass(slots=True)
class Span:
    """One recorded span; ``duration_s`` is None while still open."""

    name: str
    index: int
    parent: Optional[int]
    depth: int
    started_at: float
    duration_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: Optional[str] = None
    kind: str = "internal"
    links: Tuple[Dict[str, str], ...] = ()

    @property
    def context(self) -> TraceContext:
        """The propagable identity of this span."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, key: str, value: object) -> None:
        """Attach or update one attribute on the span."""
        self.attrs[key] = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "started_at": self.started_at,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "kind": self.kind,
            "links": [dict(link) for link in self.links],
        }

    def to_record(self) -> Dict[str, object]:
        """Canonical cross-process record (see ``SPAN_RECORD_FIELDS``).

        Built directly rather than via :func:`normalize_span_record` —
        this runs on every span close, inside the request path, and the
        fields here are already canonical by construction.  Must stay
        field-for-field identical to what the normalizer would return.
        """
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "kind": self.kind,
            "started_at": round(self.started_at, 6),
            "duration_ms": (
                None
                if self.duration_s is None
                else round(self.duration_s * 1e3, 3)
            ),
            "attrs": _jsonify(self.attrs),
            "links": [dict(link) for link in self.links],
        }


class SpanTracer:
    """Collects nested spans; export with :meth:`to_json` / :meth:`render`.

    ``seed``/``name`` make trace and span ids deterministic (same
    stream for the same pair — give concurrent participants distinct
    names).  ``events`` serializes each finished span as a ``span``
    event into the versioned JSONL log.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        name: str = "tracer",
        events: EventLog = NULL_EVENTS,
    ) -> None:
        self.spans: List[Span] = []
        self.events = events
        self._ids = TraceIdSource(seed, name)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_context(self) -> Optional[TraceContext]:
        """Context of the innermost span open on the calling thread."""
        stack = self._stack()
        return stack[-1].context if stack else None

    def span(
        self,
        name: str,
        *,
        kind: str = "internal",
        parent: Optional[TraceContext] = None,
        links: Sequence[TraceContext] = (),
        **attrs: object,
    ) -> "_OpenSpan":
        """Open a span (use as a context manager).

        ``parent`` is an explicit (usually remote) parent context; when
        omitted the innermost open span on this thread is the parent,
        and a span with neither starts a new trace.  ``links`` connect
        this span to N other spans across an async boundary without
        parenting it to any of them.
        """
        return _OpenSpan(self, name, kind, parent, links, attrs)

    def record_remote(self, record: Mapping[str, object]) -> Span:
        """File a finished span shipped home from another process.

        The record is normalized, appended to ``spans``, and serialized
        as a ``span`` event exactly like a locally-closed span, so the
        event log stays the single source of truth for trace assembly.
        """
        canonical = normalize_span_record(record)
        duration_ms = canonical["duration_ms"]
        span = Span(
            name=str(canonical["name"]),
            index=0,
            parent=None,
            depth=0,
            started_at=float(canonical["started_at"]),  # type: ignore[arg-type]
            duration_s=(
                None if duration_ms is None else float(duration_ms) / 1e3  # type: ignore[arg-type]
            ),
            attrs=dict(canonical["attrs"]),  # type: ignore[call-overload]
            trace_id=str(canonical["trace_id"]),
            span_id=str(canonical["span_id"]),
            parent_span_id=canonical["parent_span_id"],  # type: ignore[arg-type]
            kind=str(canonical["kind"]),
            links=tuple(dict(link) for link in canonical["links"]),  # type: ignore[union-attr]
        )
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
        self._emit(span)
        return span

    def _emit(self, span: Span) -> None:
        record = span.to_record()
        kind = record.pop("kind")
        self.events.emit("span", span_kind=kind, **record)

    def snapshot(self) -> List[Span]:
        """A consistent copy of the recorded spans."""
        with self._lock:
            return list(self.spans)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.snapshot()]

    def to_records(self) -> List[Dict[str, object]]:
        """Canonical picklable records (what workers ship home)."""
        return [span.to_record() for span in self.snapshot()]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dicts(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """Human-readable span tree (durations in ms, attrs inline).

        The tree is rebuilt from parent links — global start order is
        interleaved across threads, so it no longer implies tree order.
        Siblings are stable-sorted by ``started_at`` (index breaks
        ties).
        """
        spans = self.snapshot()
        by_span_id = {span.span_id: span for span in spans if span.span_id}
        children: Dict[int, List[Span]] = {}
        roots: List[Span] = []
        for span in spans:
            parent: Optional[Span] = None
            if span.parent is not None and span.parent < len(spans):
                parent = spans[span.parent]
            elif span.parent_span_id is not None:
                parent = by_span_id.get(span.parent_span_id)
            if parent is None or parent is span:
                roots.append(span)
            else:
                children.setdefault(parent.index, []).append(span)

        def order(items: List[Span]) -> List[Span]:
            return sorted(items, key=lambda s: (s.started_at, s.index))

        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            duration = (
                f"{span.duration_s * 1e3:10.2f} ms"
                if span.duration_s is not None
                else "      open"
            )
            attrs = "".join(
                f" {key}={span.attrs[key]}" for key in sorted(span.attrs)
            )
            lines.append(f"{duration}  {'  ' * depth}{span.name}{attrs}")
            for child in order(children.get(span.index, [])):
                walk(child, depth + 1)

        for root in order(roots):
            walk(root, 0)
        return "\n".join(lines)


class _OpenSpan:
    """Hand-rolled context manager for :meth:`SpanTracer.span`.

    Spans open and close on the request path (every traced HTTP call
    pays for two), so this avoids ``@contextmanager``'s generator
    machinery.  All work happens in ``__enter__``/``__exit__``; the
    ``with`` statement evaluates context expressions just before
    entering them, so nesting order is identical to the generator form.
    """

    __slots__ = ("_tracer", "_name", "_kind", "_parent", "_links",
                 "_attrs", "_span", "_stack", "_started")

    def __init__(self, tracer, name, kind, parent, links, attrs):
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self._parent = parent
        self._links = links
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._stack()
        local_parent = stack[-1] if stack else None
        parent = self._parent
        if parent is not None:
            trace_id = parent.trace_id
            parent_span_id: Optional[str] = parent.span_id
        elif local_parent is not None:
            trace_id = local_parent.trace_id
            parent_span_id = local_parent.span_id
        else:
            trace_id = tracer._ids.trace_id()
            parent_span_id = None
        span = Span(
            name=self._name,
            index=0,
            parent=local_parent.index if local_parent is not None else None,
            depth=len(stack),
            started_at=time.time(),
            # Already a private dict: built from ``**attrs`` in span().
            attrs=self._attrs,
            trace_id=trace_id,
            span_id=tracer._ids.span_id(),
            parent_span_id=parent_span_id,
            kind=self._kind,
            links=tuple(link.to_dict() for link in self._links),
        )
        with tracer._lock:
            span.index = len(tracer.spans)
            tracer.spans.append(span)
        stack.append(span)
        self._span = span
        self._stack = stack
        self._started = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration_s = time.perf_counter() - self._started
        self._stack.pop()
        self._tracer._emit(span)
        return False


class _NullContext(TraceContext):
    """The context of :data:`NULL_SPAN`: it propagates no header."""

    def to_header(self) -> str:
        return ""


class _NullSpan:
    """The one inert span :data:`NULL_TRACER` hands out.

    It is its own context manager; ``set`` and attribute assignment
    (``span.name = ...``) are accepted and dropped, so one shared
    instance serves every thread.
    """

    __slots__ = ()

    name = ""
    context: TraceContext = _NullContext(trace_id="", span_id="")

    def __setattr__(self, key: str, value: object) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _NullTracer(SpanTracer):
    """A tracer that records nothing; see :data:`NULL_TRACER`."""

    def span(
        self,
        name: str,
        *,
        kind: str = "internal",
        parent: Optional[TraceContext] = None,
        links: Sequence[TraceContext] = (),
        **attrs: object,
    ) -> "_OpenSpan":
        return NULL_SPAN  # type: ignore[return-value]

    def current_context(self) -> Optional[TraceContext]:
        return None

    def __reduce__(self) -> str:
        return "NULL_TRACER"


#: The default ``tracer=`` of every instrumented layer: ``span()``
#: returns :data:`NULL_SPAN`, ``current_context()`` is ``None`` and no
#: span is ever recorded.  Pickles back to this same object.
NULL_TRACER: SpanTracer = _NullTracer()
