"""MMD sequencer: the batched Merkle write pipeline for CT logs.

Section 2 of the paper documents Let's Encrypt's submission volume
overloading the Cloudflare Nimbus log — a write-path scaling failure.
Real logs survive that load through RFC 6962 *maximum merge delay*
semantics: the SCT returned by ``add-(pre-)chain`` is an inclusion
**promise**, and the entry is folded into the Merkle tree later, in
batches, with one new STH per merge.

:class:`LogSequencer` gives a :class:`~repro.ct.log.CTLog` exactly
those semantics:

* :meth:`submit_pre_chain` / :meth:`submit_chain` deduplicate, gate on
  capacity, and sign the SCT **immediately** — the RSA signing happens
  outside every lock, so concurrent submitters never serialize on the
  tree and never block readers;
* the signed entry is parked in a per-log pending queue;
* :meth:`merge` folds up to ``max_batch`` pending entries into the
  tree with :meth:`~repro.ct.merkle.MerkleTree.append_many` (one
  subtree-cache update per batch, not per leaf) and publishes one new
  :class:`~repro.ct.log.SignedTreeHead` per merge — one RSA tree-head
  signature per *batch* instead of per entry.

Two driving modes:

* **deterministic** — construct with ``merge_interval=None`` and call
  :meth:`merge` / :meth:`run_merges` / :meth:`drain` explicitly; tests
  and seeded storms control exactly when entries become visible;
* **background** — pass ``merge_interval`` (seconds) and call
  :meth:`start`; a daemon worker drains the queue every interval in
  ``max_batch``-sized merges until :meth:`stop`.

The merged log state is *bit-identical* to the per-entry write path
for the same submission sequence: same roots, same proofs, same SCT
bytes, same ``get-entries`` bodies (the equivalence suites in
``tests/ct/test_sequencer.py`` pin this, serial and threaded).

Telemetry (optional ``metrics`` / ``events`` sinks, same duck-typed
surface as :class:`~repro.ct.server.LogServer`): a pending-queue depth
gauge (``sequencer.pending_depth``), merge batch-size and merge-lag
histograms (``sequencer.merge_batch_size`` /
``sequencer.merge_lag_seconds``), merge/entry/dedup counters, and one
``sequencer_merge`` event per published STH.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Deque, Dict, List, Optional

from repro.ct.log import (
    CTLog,
    LogDisqualifiedError,
    SignedTreeHead,
)
from repro.ct.sct import (
    SctEntryType,
    SignedCertificateTimestamp,
    precert_signing_input,
    x509_signing_input,
)
from repro.obs.events import NULL_EVENTS, EventLog, record
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.obs.tracectx import TraceContext
from repro.util.timeutil import timestamp_ms
from repro.x509 import crypto
from repro.x509.certificate import Certificate

#: Default ceiling on entries folded per merge.
DEFAULT_MAX_BATCH = 256

#: How long a duplicate submission waits for the original submitter's
#: in-flight SCT signature before giving up (defensive; signing takes
#: microseconds-to-milliseconds).
_DEDUP_WAIT_S = 30.0


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class _PendingEntry:
    """One submitted-but-not-yet-merged entry."""

    __slots__ = (
        "cache_key",
        "entry_input",
        "entry_type",
        "certificate",
        "submitted_at",
        "sct",
        "ready",
        "trace_context",
    )

    def __init__(
        self,
        cache_key: bytes,
        entry_input: bytes,
        entry_type: SctEntryType,
        certificate: Certificate,
        submitted_at: datetime,
    ) -> None:
        self.cache_key = cache_key
        self.entry_input = entry_input
        self.entry_type = entry_type
        self.certificate = certificate
        self.submitted_at = submitted_at
        self.sct: Optional[SignedCertificateTimestamp] = None
        # Set once the SCT signature lands; duplicate submitters that
        # lose the reservation race wait on this instead of re-signing.
        self.ready = threading.Event()
        # The submitting span's context (the server span handling the
        # add-pre-chain call); the merge span links back to it across
        # the async boundary.
        self.trace_context: Optional[TraceContext] = None


@dataclass(frozen=True)
class MergeResult:
    """Outcome of one :meth:`LogSequencer.merge` call."""

    merged: int
    tree_size: int
    sth: Optional[SignedTreeHead]
    max_lag_s: float = 0.0

    @property
    def empty(self) -> bool:
        return self.merged == 0


Clock = Callable[[], datetime]


class LogSequencer:
    """Batched MMD write pipeline in front of one :class:`CTLog`.

    Parameters
    ----------
    log:
        The log to sequence.  The sequencer owns the log's write path:
        once sequenced, submissions must go through :meth:`submit_*`
        (mixing in direct ``add_pre_chain`` calls would bypass the
        pending queue's dedup view).
    max_batch:
        Entries folded per merge (the merge worker repeats merges
        until the queue drains, so this bounds batch size, not lag).
    merge_interval:
        Seconds between background merges; ``None`` (default) means
        deterministic mode — merges happen only when explicitly asked.
    clock:
        Injectable UTC-now source for SCT/STH timestamps.
    tree_lock:
        The lock readers of ``log`` hold; merges take it while folding
        a batch.  Defaults to a private RLock —
        :class:`~repro.ct.server.LogServer` passes its per-log lock so
        HTTP readers and merges stay mutually consistent.
    metrics / events:
        Obs sinks (the server middleware shares them); the null sinks
        by default.  The registry is thread-safe, so submitters and
        the merge worker record into it directly.
    tracer:
        :class:`~repro.obs.trace.SpanTracer`.  ``submit`` records the
        submitting span's context on the pending entry; every
        ``merge`` then runs under one ``sequencer.merge`` consumer
        span *linked* to all folded submissions (one merge, N links —
        the async-boundary case).  The default
        :data:`~repro.obs.trace.NULL_TRACER` records no span.
    """

    def __init__(
        self,
        log: CTLog,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        merge_interval: Optional[float] = None,
        clock: Optional[Clock] = None,
        tree_lock: Optional[threading.RLock] = None,
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        tracer: SpanTracer = NULL_TRACER,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if merge_interval is not None and merge_interval < 0:
            raise ValueError(
                f"merge_interval must be >= 0, got {merge_interval}"
            )
        self.log = log
        self.max_batch = max_batch
        self.merge_interval = merge_interval
        self.tree_lock = tree_lock if tree_lock is not None else threading.RLock()
        self._clock = clock if clock is not None else _utc_now
        self._metrics = metrics
        self._events = events
        self._tracer = tracer
        # Admission/dedup state: guards the pending map, the queue, and
        # the log's capacity counters.  Held only for dict/deque ops —
        # never across an RSA signature.
        self._submit_lock = threading.Lock()
        self._pending: Dict[bytes, _PendingEntry] = {}
        self._queue: Deque[_PendingEntry] = deque()
        # Merges serialize among themselves (worker + explicit calls).
        self._merge_lock = threading.Lock()
        self._latest_sth: Optional[SignedTreeHead] = None
        self._worker: Optional[threading.Thread] = None
        self._stop = threading.Event()
        # Cumulative tree sizes at each published merge (the batch
        # boundaries get-batch-digest serves).  Entries the log held
        # before sequencing form the first batch.
        self._batch_boundaries: List[int] = [log.size] if log.size else []
        # Lifetime counters (kept even without a metrics registry).
        self._merges = 0
        self._entries_merged = 0
        self._dedup_hits = 0
        self._max_batch_merged = 0
        self._max_lag_s = 0.0

    # -- submission (SCT issuance) -------------------------------------------

    def submit_pre_chain(
        self,
        precert: Certificate,
        issuer_key_hash: bytes,
        now: Optional[datetime] = None,
    ) -> SignedCertificateTimestamp:
        """Submit a precertificate; returns the inclusion promise."""
        if not precert.is_precertificate:
            raise ValueError("submit_pre_chain requires a poisoned precertificate")
        entry_input = precert_signing_input(precert, issuer_key_hash)
        return self._submit(
            precert, entry_input, SctEntryType.PRECERT_ENTRY, now
        )

    def submit_chain(
        self, cert: Certificate, now: Optional[datetime] = None
    ) -> SignedCertificateTimestamp:
        """Submit a final certificate."""
        if cert.is_precertificate:
            raise ValueError("submit_chain requires a final certificate")
        return self._submit(
            cert, x509_signing_input(cert), SctEntryType.X509_ENTRY, now
        )

    def _submit(
        self,
        cert: Certificate,
        entry_input: bytes,
        entry_type: SctEntryType,
        now: Optional[datetime],
    ) -> SignedCertificateTimestamp:
        when = now if now is not None else self._clock()
        log = self.log
        if log.disqualified:
            raise LogDisqualifiedError(f"{log.name} is disqualified")
        cache_key = log.submission_cache_key(entry_input)
        with self._submit_lock:
            merged = log.cached_sct(cache_key)
            if merged is not None:
                self._dedup_hits += 1
                self._metrics.inc(
                    "sequencer.dedup_hits", log=log.name, state="merged"
                )
                return merged
            pending = self._pending.get(cache_key)
            if pending is None:
                # Admission (capacity gate + quota) happens exactly
                # once per unique entry, atomically with the
                # reservation, so a dedup race never double-charges.
                log.admit(when)
                pending = _PendingEntry(
                    cache_key, entry_input, entry_type, cert, when
                )
                # The submitting span (e.g. the server span for this
                # add-pre-chain call) is open on this thread.
                pending.trace_context = self._tracer.current_context()
                self._pending[cache_key] = pending
                owner = True
            else:
                self._dedup_hits += 1
                owner = False
        if not owner:
            self._metrics.inc("sequencer.dedup_hits", log=log.name, state="pending")
            # The original submitter is signing right now; its entry is
            # already reserved, so we never enqueue a second one.
            pending.ready.wait(timeout=_DEDUP_WAIT_S)
            if pending.sct is None:  # pragma: no cover - defensive
                raise RuntimeError(
                    "duplicate submission timed out waiting for the "
                    "original SCT signature"
                )
            return pending.sct
        # RSA signing OUTSIDE every lock: this is the write-path win —
        # a slow signature neither blocks readers nor other submitters.
        try:
            sct = log.sign_sct(entry_type, entry_input, when)
        except BaseException:
            with self._submit_lock:
                self._pending.pop(cache_key, None)
            pending.ready.set()
            raise
        with self._submit_lock:
            pending.sct = sct
            self._queue.append(pending)
            depth = len(self._queue)
        pending.ready.set()
        self._metrics.set_gauge("sequencer.pending_depth", depth, log=log.name)
        return sct

    # -- merging (MMD) -------------------------------------------------------

    def merge(
        self,
        now: Optional[datetime] = None,
        max_batch: Optional[int] = None,
    ) -> MergeResult:
        """Fold one batch of pending entries into the tree.

        Takes up to ``max_batch`` entries off the queue, appends them
        to the Merkle tree in one batched operation, installs their
        SCTs into the dedup cache, and publishes one new STH.  Returns
        an empty :class:`MergeResult` when nothing is pending.
        """
        limit = max_batch if max_batch is not None else self.max_batch
        if limit < 1:
            raise ValueError(f"max_batch must be >= 1, got {limit}")
        with self._merge_lock:
            when = now if now is not None else self._clock()
            with self._submit_lock:
                take = min(limit, len(self._queue))
                batch = [self._queue.popleft() for _ in range(take)]
            if not batch:
                return MergeResult(
                    merged=0, tree_size=self.log.size, sth=None
                )
            # One merge, N links: the consumer span points back at
            # every folded submission's span across the async boundary.
            links = [
                p.trace_context for p in batch if p.trace_context is not None
            ]
            with self._tracer.span(
                "sequencer.merge",
                kind="consumer",
                links=links,
                log=self.log.name,
            ) as span:
                rows = [
                    (p.entry_input, p.entry_type, p.certificate, p.submitted_at)
                    for p in batch
                ]
                with self.tree_lock:
                    # Readers see the whole batch land atomically.
                    self.log.append_batch(rows)
                    size = self.log.tree.size
                    root = self.log.tree.root()
                    self._batch_boundaries.append(size)
                # The tree-head signature (one per merge, not per entry)
                # also happens outside the read lock.
                ts = timestamp_ms(when)
                payload = SignedTreeHead.signed_payload(size, ts, root)
                sth = SignedTreeHead(
                    tree_size=size,
                    timestamp_ms=ts,
                    root_hash=root,
                    signature=crypto.sign(self.log.key, payload),
                )
                with self._submit_lock:
                    for p in batch:
                        # Keys leave the pending map only after the merged
                        # SCT cache covers them: a resubmission always sees
                        # exactly one of the two.
                        self.log.register_sct(p.cache_key, p.sct)
                        self._pending.pop(p.cache_key, None)
                    depth = len(self._queue)
                self._latest_sth = sth
                lag = max(
                    (timestamp_ms(when) - timestamp_ms(p.submitted_at)) / 1e3
                    for p in batch
                )
                self._merges += 1
                self._entries_merged += len(batch)
                self._max_batch_merged = max(self._max_batch_merged, len(batch))
                self._max_lag_s = max(self._max_lag_s, lag)
                self._metrics.set_gauge(
                    "sequencer.pending_depth", depth, log=self.log.name
                )
                record(
                    self._metrics, self._events, "sequencer_merge",
                    log=self.log.name, batch=len(batch), tree_size=size,
                    max_lag_ms=round(lag * 1e3, 3),
                )
                span.set("merged", len(batch))
                span.set("tree_size", size)
                span.set("lag_s", round(lag, 6))
                return MergeResult(
                    merged=len(batch), tree_size=size, sth=sth, max_lag_s=lag
                )

    def run_merges(
        self, n: int, now: Optional[datetime] = None
    ) -> List[MergeResult]:
        """Run up to ``n`` merges (stops early once the queue is dry)."""
        results: List[MergeResult] = []
        for _ in range(n):
            result = self.merge(now)
            if result.empty:
                break
            results.append(result)
        return results

    def drain(self, now: Optional[datetime] = None) -> int:
        """Merge until nothing is pending; returns entries merged.

        Waits out reservations whose SCT signature is still in flight
        on another thread, so after ``drain`` every issued SCT has a
        merged entry behind it.
        """
        total = 0
        while True:
            result = self.merge(now)
            total += result.merged
            if result.merged:
                continue
            with self._submit_lock:
                settled = not self._queue and not self._pending
            if settled:
                return total
            # A submitter holds a reservation but has not enqueued yet
            # (signing in flight); yield and retry.
            time.sleep(0.001)

    # -- background worker ---------------------------------------------------

    def start(self) -> "LogSequencer":
        """Start the background merge worker (no-op in deterministic mode)."""
        if self.merge_interval is None or self._worker is not None:
            return self
        self._stop.clear()
        self._worker = threading.Thread(
            target=self._run_worker,
            name=f"repro-sequencer-{self.log.name}",
            daemon=True,
        )
        self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; by default merge whatever is still queued."""
        worker = self._worker
        if worker is not None:
            self._stop.set()
            worker.join(timeout=30.0)
            self._worker = None
        if drain:
            self.drain()

    def _run_worker(self) -> None:
        interval = self.merge_interval or 0.0
        while not self._stop.wait(timeout=interval):
            while not self.merge().empty:
                pass

    def __enter__(self) -> "LogSequencer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- introspection -------------------------------------------------------

    def latest_sth(self) -> Optional[SignedTreeHead]:
        """The STH published by the most recent merge (None pre-merge)."""
        return self._latest_sth

    def batch_boundaries(self) -> List[int]:
        """Cumulative tree sizes at each merge, oldest first.

        Callers wanting a consistent view against the tree should hold
        ``tree_lock`` (boundaries are appended under it during merges).
        """
        with self.tree_lock:
            return list(self._batch_boundaries)

    def pending_count(self) -> int:
        """Entries with an issued (or in-flight) SCT awaiting merge."""
        with self._submit_lock:
            return len(self._pending)

    def queued_count(self) -> int:
        """Signed entries sitting in the merge queue right now."""
        with self._submit_lock:
            return len(self._queue)

    def stats(self) -> Dict[str, float]:
        """Lifetime sequencing counters (kept without a registry too)."""
        with self._submit_lock:
            pending = len(self._pending)
            queued = len(self._queue)
        return {
            "merges": self._merges,
            "entries_merged": self._entries_merged,
            "dedup_hits": self._dedup_hits,
            "pending": pending,
            "queued": queued,
            "max_batch_merged": self._max_batch_merged,
            "max_lag_s": self._max_lag_s,
        }


__all__ = [
    "DEFAULT_MAX_BATCH",
    "LogSequencer",
    "MergeResult",
]
