"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of each layer (by patching
the class or module attribute the program calls through) and records,
per call, its duration and its *self time*: the duration minus the
time its traced children on the same thread took.  Every call is
attributed to the client side (threads the benchmark started, named
``ctbench-client-*``) or to the server side (every other thread: HTTP
handler threads, the sequencer's merge worker).

Client threads mark their operations with :meth:`LayerTracer.begin_op`.
Spans opened during an operation carry its id.  The benchmark sends the
same id as the ``X-Repro-Client`` header, so the server-side spans of
a request, which run on another thread, join the operation too: the
``LogServer.handle_request`` wrapper reads the header and tags its
enclosing HTTP handler span with it.

Nothing here changes what the program computes; :meth:`uninstall`
restores every patched attribute.
"""

from __future__ import annotations

import http.client
import http.server
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ct import merkle, monitor, sequencer, server
from repro.ct.log import CTLog
from repro.dataset.live import LiveAnalytics
from repro.x509 import crypto

CLIENT_THREAD_PREFIX = "ctbench-client"

_Hook = Callable[[Tuple[Any, ...], Any], str]


def _request_endpoint(args: Tuple[Any, ...], result: Any) -> str:
    return str(args[1])


def _handled_endpoint(args: Tuple[Any, ...], result: Any) -> str:
    return str(result[2]) if isinstance(result, tuple) else "error"


#: (owner, attribute, layer, label function or None).  A label function
#: gets (args, result) and returns the layer's sub-label (an endpoint).
TARGETS: List[Tuple[object, str, str, Optional[_Hook]]] = [
    (http.client.HTTPConnection, "connect", "httpd.connect", None),
    (
        http.server.BaseHTTPRequestHandler,
        "handle_one_request",
        "httpd.server_request",
        None,
    ),
    (server.LogServer, "handle_request", "server.handle", _handled_endpoint),
    (server.LogClient, "_request", "client.call", _request_endpoint),
    (server, "entry_from_wire", "client.decode", None),
    (merkle.MerkleTree, "inclusion_proof", "merkle.proof", None),
    (merkle.MerkleTree, "consistency_proof", "merkle.proof", None),
    (merkle.MerkleTree, "append_many", "merkle.append", None),
    (merkle.MerkleTree, "append", "merkle.append", None),
    (merkle.MerkleTree, "root", "merkle.root", None),
    (merkle, "verify_inclusion_proof", "merkle.verify", None),
    (merkle, "verify_consistency_proof", "merkle.verify", None),
    (monitor, "verify_inclusion_proof", "merkle.verify", None),
    (monitor, "verify_consistency_proof", "merkle.verify", None),
    (crypto, "sign", "crypto.sign", None),
    (crypto, "verify", "crypto.verify", None),
    (CTLog, "batch_digest", "log.batch_digest", None),
    (sequencer.LogSequencer, "submit_pre_chain", "sequencer.submit", None),
    (sequencer.LogSequencer, "merge", "sequencer.merge", None),
    (monitor.LightweightMonitor, "poll", "monitor.poll", None),
    (LiveAnalytics, "fold_entries", "dataset.fold", None),
]


class _Frame:
    __slots__ = ("layer", "start", "child", "op")

    def __init__(self, layer: str, start: float, op: Optional[str]) -> None:
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.op = op


class _Stat:
    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class LayerTracer:
    """Patch-based spans, aggregated per layer, side and operation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []
        #: (side, layer) -> call count, total and self seconds.
        self.stats: Dict[Tuple[str, str], _Stat] = defaultdict(_Stat)
        #: op id -> (side, layer) -> self seconds.
        self.op_layers: Dict[str, Dict[Tuple[str, str], float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: op id -> (kind, start, end) on the client's clock.
        self.ops: Dict[str, Tuple[str, float, float]] = {}
        #: op id -> client calls made inside it.
        self.op_calls: Dict[str, int] = defaultdict(int)
        #: op id -> connect end times (client) and request start times
        #: (server), paired in order to find each request's accept wait.
        self.op_connected: Dict[str, List[float]] = defaultdict(list)
        self.op_served: Dict[str, List[float]] = defaultdict(list)
        #: Free-form counters fed by result hooks.
        self.counters: Dict[str, float] = defaultdict(float)

    # -- patching -------------------------------------------------------------

    def install(self) -> "LayerTracer":
        for owner, attr, layer, label in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, label))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original: Callable[..., Any], layer: str, label: Optional[_Hook]):
        tracer = self
        observe = _OBSERVERS.get(layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            op = stack[-1].op if stack else getattr(tracer._local, "op", None)
            if layer == "server.handle" and len(args) > 5 and args[5]:
                # The request names its client operation: tag this
                # span and the enclosing HTTP handler span with it.
                op = str(args[5])
                for frame in stack:
                    frame.op = op
            frame = _Frame(layer, time.perf_counter(), op)
            stack.append(frame)
            before = args[0].bytes_received if layer == "client.call" else 0
            result: Any = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                name = layer if label is None else f"{layer}.{label(args, result)}"
                tracer._record(name, frame, duration, duration - frame.child)
                if layer == "client.call":
                    tracer._count("httpd.bytes", args[0].bytes_received - before)
                if observe is not None:
                    observe(tracer, args, result)

        return traced

    # -- recording ------------------------------------------------------------

    @staticmethod
    def side() -> str:
        name = threading.current_thread().name
        return "client" if name.startswith(CLIENT_THREAD_PREFIX) else "server"

    def _record(self, name: str, frame: _Frame, duration: float, self_time: float) -> None:
        key = (self.side(), name)
        with self._lock:
            stat = self.stats[key]
            stat.count += 1
            stat.total += duration
            stat.self_time += self_time
            if frame.op is not None:
                self.op_layers[frame.op][key] += self_time
                if frame.layer == "client.call":
                    self.op_calls[frame.op] += 1
                elif frame.layer == "httpd.connect":
                    self.op_connected[frame.op].append(frame.start + duration)
                elif frame.layer == "httpd.server_request":
                    self.op_served[frame.op].append(frame.start)

    def _count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def count_memo(self, before: Dict[str, Dict[str, float]], after: Dict[str, Dict[str, float]]) -> None:
        """Add the server memo hits and lookups between two ``memo_stats()``."""
        for field in ("hits", "lookups"):
            self._count(
                f"memo.{field}",
                sum(s[field] for s in after.values()) - sum(s[field] for s in before.values()),
            )

    def begin_op(self, op_id: str, kind: str) -> None:
        """Start a client operation on this thread (ends the previous one)."""
        self.end_op()
        self._local.op = op_id
        self._local.op_kind = kind
        self._local.op_start = time.perf_counter()

    def end_op(self) -> None:
        op = getattr(self._local, "op", None)
        if op is None:
            return
        end = time.perf_counter()
        with self._lock:
            self.ops[op] = (self._local.op_kind, self._local.op_start, end)
        self._local.op = None

    # -- summaries ------------------------------------------------------------

    def stat(self, layer: str, side: Optional[str] = None) -> _Stat:
        """Stats of one layer, summed over sub-labels (and both sides
        unless ``side`` names one)."""
        out = _Stat()
        prefix = layer + "."
        for (s, name), stat in list(self.stats.items()):
            if side in (None, s) and (name == layer or name.startswith(prefix)):
                out.count += stat.count
                out.total += stat.total
                out.self_time += stat.self_time
        return out

    def calls_in(self, kind: str) -> int:
        """Client calls made inside operations of one kind."""
        return sum(
            self.op_calls.get(op, 0) for op, (k, _, _) in self.ops.items() if k == kind
        )

    def op_breakdown(self, op_id: str) -> Dict[str, float]:
        """One operation's time split by layer, in seconds.

        Client-side spans contribute their self time, except that a
        client call's wait for the server is replaced by the server
        spans that answered it.  ``httpd.accept_wait`` is the time from
        each connect returning to a handler thread starting on that
        request (accept queue, thread start); what the call spent beyond
        both is ``httpd.client_residual`` (urllib, sending, reading the
        reply).  ``unattributed`` is the rest of the operation.
        """
        kind, start, end = self.ops[op_id]
        layers: Dict[str, float] = defaultdict(float)
        server_time = 0.0
        call_self = 0.0
        for (side, name), seconds in self.op_layers.get(op_id, {}).items():
            layer = _layer_of(name)
            if side == "server":
                server_time += seconds
                layers[layer] += seconds
            elif layer == "client.call":
                call_self += seconds
            else:
                layers[layer] += seconds
        accept_wait = sum(
            max(0.0, served - connected)
            for connected, served in zip(
                sorted(self.op_connected.get(op_id, ())), sorted(self.op_served.get(op_id, ()))
            )
        )
        accept_wait = min(accept_wait, max(0.0, call_self - server_time))
        layers["httpd.accept_wait"] = accept_wait
        layers["httpd.client_residual"] = max(0.0, call_self - server_time - accept_wait)
        covered = sum(layers.values()) - server_time + min(server_time, call_self)
        layers["unattributed"] = max(0.0, (end - start) - covered)
        return dict(layers)


def _layer_of(name: str) -> str:
    """``server.handle.get-sth`` -> ``server.handle``."""
    parts = name.split(".")
    return ".".join(parts[:2])


def _observe_merge(tracer: LayerTracer, args: Tuple[Any, ...], result: Any) -> None:
    if result is not None and result.merged:
        tracer._count("sequencer.merges", 1)
        tracer._count("sequencer.entries_merged", result.merged)
        tracer._count("sequencer.lag_s", result.max_lag_s)


def _observe_poll(tracer: LayerTracer, args: Tuple[Any, ...], result: Any) -> None:
    if result:
        tracer._count("monitor.useful_polls", 1)
        tracer._count("monitor.detections", len(result))


def _observe_fold(tracer: LayerTracer, args: Tuple[Any, ...], result: Any) -> None:
    tracer._count("dataset.records", result or 0)


_OBSERVERS: Dict[str, Callable[[LayerTracer, Tuple[Any, ...], Any], None]] = {
    "sequencer.merge": _observe_merge,
    "monitor.poll": _observe_poll,
    "dataset.fold": _observe_fold,
}


class NullTracer:
    """The untraced stand-in: operations are marked, nothing recorded."""

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def begin_op(self, op_id: str, kind: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def count_memo(self, before: object, after: object) -> None:
        pass
