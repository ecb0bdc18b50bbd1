"""Seeded load storms against a served CT log.

The paper's vantage points — browsers validating SCTs, monitors
tailing ``get-entries``, CAs submitting precertificates in bursts —
are all *clients* of log HTTP endpoints.  This module builds that
client population deterministically and drives a
:class:`repro.ct.server.LogServer` over real sockets:

* the **plan** is fully seeded: :func:`plan_storm` expands a
  :class:`LoadStormConfig` against a pre-seeded log into per-client
  operation lists (which leaf a browser audits, which pages a monitor
  tails, which precertificates a CA submits) — two calls with the same
  seed produce identical plans, byte for byte;
* the **execution** is real concurrency: every client plan runs in a
  worker (thread pool by default, process pool under
  ``executor="process"`` — the same two modes the pipeline engine's
  ``REPRO_EXECUTOR`` matrix exercises) issuing genuine HTTP requests
  through :class:`repro.ct.server.LogClient`;
* the **verification** is cryptographic, not cosmetic: browsers check
  the returned audit paths against the seeded tree root, monitors
  check consistency proofs between tree heads, submitters check the
  returned SCT signatures.

:func:`run_storm` returns a :class:`LoadStormReport` with sustained
submissions/sec, read p50/p99 latency, per-endpoint status counts, and
verification tallies — the numbers the ``repro loadstorm`` CLI prints
and the server benchmark gates.

Against a *batched* server (``LogServer(..., merge_interval=...)``)
SCT issuance and Merkle inclusion are separate moments: the SCT comes
back immediately, the leaf appears in the tree only after the next
merge.  Each submitter therefore ends its plan with an
``await_inclusion`` op (unless ``LoadStormConfig.await_inclusion`` is
off) that polls ``get-sth`` + ``get-proof-by-hash`` until every leaf
it submitted verifies against a served root — the measured duration of
that op *is* the observed merge lag, reported separately from SCT
latency (``sct_p50``/``sct_p99`` vs ``merge_lag_max_s``).
"""

from __future__ import annotations

import base64
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.ct.auditor import AuditFinding, GossipPool
    from repro.x509 import crypto as _crypto

from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.merkle import (
    leaf_hash,
    verify_consistency_proof,
    verify_inclusion_proof,
)
from repro.ct.monitor import (
    BatchMonitor,
    HttpTransport,
    LightweightMonitor,
    domain_matches,
)
from repro.ct.sct import precert_signing_input
from repro.ct.server import LogClient, LogClientError
from repro.ct.storage import certificate_to_dict
from repro.util.rng import SeededRng
from repro.util.stats import percentile
from repro.util.timeutil import utc_datetime
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest

#: Executor modes for the client population (mirrors the pipeline).
STORM_EXECUTORS = ("thread", "process", "serial")

#: Op kinds that count as *reads* for the latency percentiles.
#: ``await_inclusion`` is deliberately excluded: it is a polling loop
#: whose duration measures merge lag, not a single-request latency.
READ_OPS = ("get_sth", "get_entries", "get_proof_by_hash", "get_sth_consistency")

#: Sleep between inclusion polls while waiting for a merge.
_AWAIT_POLL_S = 0.005


@dataclass(frozen=True)
class StormOp:
    """One planned client operation; all fields picklable primitives."""

    kind: str
    start: int = 0
    end: int = 0
    first: int = 0
    second: int = 0
    leaf: bytes = b""
    tree_size: int = 0
    expected_root: bytes = b""
    old_root: bytes = b""
    chain: Tuple[Dict, ...] = ()
    issuer_key_hash: bytes = b""
    leaves: Tuple[bytes, ...] = ()


@dataclass(frozen=True)
class ClientPlan:
    """One client's seeded request sequence."""

    kind: str  # "browser" | "monitor" | "submitter"
    name: str
    ops: Tuple[StormOp, ...]

    @property
    def reads(self) -> int:
        return sum(1 for op in self.ops if op.kind in READ_OPS)

    @property
    def submissions(self) -> int:
        return sum(1 for op in self.ops if op.kind == "add_pre_chain")

    @property
    def awaited_leaves(self) -> int:
        return sum(len(op.leaves) for op in self.ops if op.kind == "await_inclusion")


@dataclass(frozen=True)
class LoadStormConfig:
    """Shape of the storm population (all rates are per client)."""

    seed: int = 2018
    browsers: int = 6
    monitors: int = 2
    submitters: int = 2
    audits_per_browser: int = 8
    pages_per_monitor: int = 6
    page_size: int = 16
    submissions_per_submitter: int = 10
    #: Wall-clock budget per HTTP call before a client gives up.
    timeout_s: float = 30.0
    #: Whether each submitter ends its plan by polling until every
    #: leaf it submitted is provably included (measures merge lag).
    await_inclusion: bool = True

    @property
    def clients(self) -> int:
        return self.browsers + self.monitors + self.submitters

    @property
    def planned_submissions(self) -> int:
        return self.submitters * self.submissions_per_submitter


def plan_storm(
    config: LoadStormConfig,
    log: CTLog,
    *,
    submission_day: Optional[datetime] = None,
) -> List[ClientPlan]:
    """Expand a config into deterministic per-client op sequences.

    ``log`` is the (already seeded, not yet served) log the storm will
    hit: browsers audit leaves that exist *now*, monitors tail the
    seeded range, submitters carry freshly built precertificates for
    names derived from the seed.  The log object is only read here —
    submissions happen over HTTP at execution time.
    """
    if log.size == 0:
        raise ValueError("plan_storm needs a log seeded with entries")
    rng = SeededRng(config.seed, "loadstorm")
    seed_size = log.tree.size
    seed_root = log.tree.root()
    plans: List[ClientPlan] = []

    for b in range(config.browsers):
        browser_rng = rng.fork(f"browser:{b}")
        ops: List[StormOp] = [StormOp(kind="get_sth")]
        for _ in range(config.audits_per_browser):
            entry = log.entries[browser_rng.randrange(seed_size)]
            ops.append(
                StormOp(
                    kind="get_proof_by_hash",
                    leaf=entry.leaf_input,
                    tree_size=seed_size,
                    expected_root=seed_root,
                )
            )
        plans.append(ClientPlan("browser", f"browser-{b}", tuple(ops)))

    for m in range(config.monitors):
        monitor_rng = rng.fork(f"monitor:{m}")
        cursor = monitor_rng.randrange(max(1, seed_size // 2))
        ops = [StormOp(kind="get_sth")]
        old_size = max(1, cursor)
        for _ in range(config.pages_per_monitor):
            if cursor >= seed_size:
                cursor = 0  # wrap: monitors re-tail from the start
            ops.append(
                StormOp(
                    kind="get_entries",
                    start=cursor,
                    # Pin the page to the STH the monitor verifies
                    # against: submitters grow the log mid-storm, and
                    # an unclamped tail would hand back entries past
                    # the seeded tree head (a read-then-fetch TOCTOU).
                    end=min(cursor + config.page_size - 1, seed_size - 1),
                    tree_size=seed_size,
                )
            )
            cursor += config.page_size
        ops.append(
            StormOp(
                kind="get_sth_consistency",
                first=old_size,
                second=seed_size,
                old_root=log.tree.root(old_size),
                expected_root=seed_root,
                tree_size=seed_size,
            )
        )
        plans.append(ClientPlan("monitor", f"monitor-{m}", tuple(ops)))

    when = submission_day or utc_datetime(2018, 5, 2, 9, 0)
    for s in range(config.submitters):
        submitter_rng = rng.fork(f"submitter:{s}")
        ca = CertificateAuthority(f"Storm CA {config.seed}-{s}", key_bits=256)
        scratch = CTLog(
            name=f"storm-scratch-{s}",
            operator="storm",
            key=crypto.KeyPair.generate(f"storm-scratch:{config.seed}:{s}", 256),
        )
        ops = []
        leaves: List[bytes] = []
        for n in range(config.submissions_per_submitter):
            name = (
                f"burst{n}.{submitter_rng.token(8)}.storm-{config.seed}.example"
            )
            pair = ca.issue(
                IssuanceRequest((name, f"www.{name}")),
                [scratch],
                when + timedelta(seconds=n),
            )
            assert pair.precertificate is not None
            ops.append(
                StormOp(
                    kind="add_pre_chain",
                    chain=(certificate_to_dict(pair.precertificate),),
                    issuer_key_hash=ca.issuer_key_hash,
                )
            )
            leaves.append(
                precert_signing_input(pair.precertificate, ca.issuer_key_hash)
            )
        if config.await_inclusion and leaves:
            ops.append(StormOp(kind="await_inclusion", leaves=tuple(leaves)))
        plans.append(ClientPlan("submitter", f"submitter-{s}", tuple(ops)))

    return plans


def _await_inclusion(
    client: LogClient, leaves: Sequence[bytes], timeout_s: float
) -> bool:
    """Poll until every leaf verifies inclusion against a served STH.

    A batched log answers ``add-pre-chain`` before the leaf is in the
    tree; this loop is the client-side other half of MMD semantics —
    wait for a merge, then check the promise was kept.  Returns whether
    every leaf produced a valid inclusion proof before ``timeout_s``.
    """
    deadline = time.monotonic() + timeout_s
    pending: Dict[bytes, bytes] = {leaf_hash(leaf): leaf for leaf in leaves}
    while pending:
        sth = client.get_sth()
        tree_size = int(sth["tree_size"])  # type: ignore[arg-type]
        root = base64.b64decode(str(sth["sha256_root_hash"]))
        if tree_size > 0:
            for digest in list(pending):
                try:
                    index, path = client.get_proof_by_hash(digest, tree_size)
                except LogClientError:
                    continue  # not merged into this tree size yet
                if verify_inclusion_proof(
                    pending[digest], index, tree_size, path, root
                ):
                    del pending[digest]
        if not pending:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(_AWAIT_POLL_S)
    return True


@dataclass
class OpResult:
    """Outcome of one executed operation.

    ``sth`` carries the raw ``get-sth`` body (picklable primitives)
    when the op fetched one — the material :func:`gossip_storm_sths`
    feeds into a :class:`~repro.ct.auditor.GossipPool` after the storm.
    """

    kind: str
    status: int
    seconds: float
    verified: Optional[bool] = None
    sth: Optional[Dict[str, object]] = None


@dataclass
class ClientResult:
    """Everything one client observed during the storm.

    ``spans`` carries the client's closed trace spans as plain dicts
    (picklable), so process-pool workers ship their half of each trace
    back to the coordinator for :class:`~repro.obs.TraceStore` assembly.
    """

    kind: str
    name: str
    ops: List[OpResult] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    spans: List[Dict[str, object]] = field(default_factory=list)


def _op_span_attrs(plan: ClientPlan, op: StormOp) -> Dict[str, object]:
    """Attributes for one storm op's client root span.

    The domain is read straight off the serialized chain dict —
    mirroring ``Certificate.dns_names()[0]`` (subject CN, falling back
    to the first DNS SAN) without rebuilding the certificate, since
    this runs per op inside the timed storm path.
    """
    attrs: Dict[str, object] = {"client": plan.name}
    if op.kind == "add_pre_chain" and op.chain:
        leaf = op.chain[0]
        domain = leaf.get("subject_cn") or next(
            (value for kind, value in leaf.get("san", ()) if kind == "dns"),
            None,
        )
        if domain:
            attrs["domain"] = domain
    elif op.kind == "await_inclusion":
        attrs["leaves"] = len(op.leaves)
    return attrs


def _execute_plan(
    base_url: str,
    plan: ClientPlan,
    timeout_s: float,
    trace_seed: Optional[int] = None,
) -> ClientResult:
    """Run one client's ops over HTTP (module-level: process-picklable)."""
    from repro.ct.storage import certificate_from_dict
    from repro.obs.trace import NULL_TRACER, SpanTracer

    tracer = NULL_TRACER
    if trace_seed is not None:
        # Seeding by (storm seed, client name) keeps every client's ID
        # stream deterministic yet disjoint across the population.
        tracer = SpanTracer(seed=trace_seed, name=f"storm:{plan.name}")
    client = LogClient(
        base_url, timeout=timeout_s, client_id=plan.name, tracer=tracer
    )
    result = ClientResult(plan.kind, plan.name)
    for op in plan.ops:
        started = time.perf_counter()
        status = 200
        verified: Optional[bool] = None
        sth_body: Optional[Dict[str, object]] = None
        with tracer.span(
            f"storm.{op.kind}",
            kind="client",
            **_op_span_attrs(plan, op),
        ) as root:
            try:
                if op.kind == "get_sth":
                    body = client.get_sth()
                    verified = int(body["tree_size"]) >= 0
                    sth_body = {
                        key: body[key]
                        for key in (
                            "tree_size",
                            "timestamp",
                            "sha256_root_hash",
                            "tree_head_signature",
                        )
                        if key in body
                    }
                elif op.kind == "get_entries":
                    entries = client.get_entries(op.start, op.end)
                    # Pages must stay inside the requested window and,
                    # when the plan pinned a tree size, inside the STH the
                    # client is verifying against — a server racing
                    # concurrent appends must not leak newer entries here.
                    verified = len(entries) > 0 and all(
                        op.start <= entry.index <= op.end for entry in entries
                    )
                    if op.tree_size:
                        verified = verified and all(
                            entry.index < op.tree_size for entry in entries
                        )
                elif op.kind == "get_proof_by_hash":
                    index, path = client.get_proof_by_hash(
                        leaf_hash(op.leaf), op.tree_size
                    )
                    verified = verify_inclusion_proof(
                        op.leaf, index, op.tree_size, path, op.expected_root
                    )
                elif op.kind == "get_sth_consistency":
                    proof = client.get_sth_consistency(op.first, op.second)
                    verified = verify_consistency_proof(
                        op.first, op.second, op.old_root, op.expected_root,
                        proof,
                    )
                elif op.kind == "add_pre_chain":
                    precert = certificate_from_dict(dict(op.chain[0]))
                    sct = client.add_pre_chain(precert, op.issuer_key_hash)
                    verified = sct.timestamp_ms > 0 and len(sct.signature) > 0
                elif op.kind == "await_inclusion":
                    verified = _await_inclusion(client, op.leaves, timeout_s)
                else:  # pragma: no cover - plan builder controls kinds
                    raise ValueError(f"unknown op kind {op.kind!r}")
            except LogClientError as exc:
                status = exc.status
            except Exception as exc:  # socket errors, timeouts
                status = -1
                result.errors.append(f"{op.kind}: {exc!r}")
            root.set("status", status)
            if verified is not None:
                root.set("verified", verified)
        result.ops.append(
            OpResult(
                op.kind,
                status,
                time.perf_counter() - started,
                verified,
                sth_body,
            )
        )
    client.close()
    result.spans = tracer.to_records()
    return result


def gossip_storm_sths(
    report: "LoadStormReport",
    pool: "GossipPool",
    log_name: str,
    *,
    now: Optional[datetime] = None,
) -> List["AuditFinding"]:
    """Feed every STH the storm's clients observed into a gossip pool.

    This is the wire-level gossip loop closed: the STHs were fetched
    over HTTP by independent clients (each with its own
    ``X-Repro-Client`` identity), so a split-view server that showed
    different clients different roots is caught here — the pool
    returns one finding per detected fork, and one per STH whose
    signature does not verify under the key the pool holds.
    """
    findings: List["AuditFinding"] = []
    for result in report.results:
        for op in result.ops:
            if op.kind != "get_sth" or op.status != 200 or not op.sth:
                continue
            sth = SignedTreeHead(
                tree_size=int(op.sth["tree_size"]),  # type: ignore[arg-type]
                timestamp_ms=int(op.sth["timestamp"]),  # type: ignore[arg-type]
                root_hash=base64.b64decode(str(op.sth["sha256_root_hash"])),
                signature=base64.b64decode(
                    str(op.sth["tree_head_signature"])
                ),
            )
            finding = pool.submit(log_name, sth, result.name, now=now)
            if finding is not None:
                findings.append(finding)
    return findings


@dataclass
class LoadStormReport:
    """Aggregated storm outcome (the benchmark's gated numbers)."""

    wall_seconds: float
    executor: str
    workers: int
    clients: int
    results: List[ClientResult]

    # -- aggregates ----------------------------------------------------------

    def _ops(self, *kinds: str) -> List[OpResult]:
        wanted = kinds or None
        out: List[OpResult] = []
        for result in self.results:
            for op in result.ops:
                if wanted is None or op.kind in wanted:
                    out.append(op)
        return out

    @property
    def read_latencies(self) -> List[float]:
        return sorted(
            op.seconds for op in self._ops(*READ_OPS) if op.status == 200
        )

    @property
    def read_p50(self) -> float:
        lats = self.read_latencies
        return percentile(lats, 50) if lats else 0.0

    @property
    def read_p99(self) -> float:
        lats = self.read_latencies
        return percentile(lats, 99) if lats else 0.0

    @property
    def sct_latencies(self) -> List[float]:
        """Time-to-SCT for accepted submissions (promise latency)."""
        return sorted(
            op.seconds for op in self._ops("add_pre_chain") if op.status == 200
        )

    @property
    def sct_p50(self) -> float:
        lats = self.sct_latencies
        return percentile(lats, 50) if lats else 0.0

    @property
    def sct_p99(self) -> float:
        lats = self.sct_latencies
        return percentile(lats, 99) if lats else 0.0

    @property
    def merge_lags(self) -> List[float]:
        """Observed merge lag per submitter (await_inclusion durations)."""
        return sorted(
            op.seconds for op in self._ops("await_inclusion") if op.status == 200
        )

    @property
    def merge_lag_max_s(self) -> float:
        lags = self.merge_lags
        return lags[-1] if lags else 0.0

    @property
    def merge_lag_mean_s(self) -> float:
        lags = self.merge_lags
        return sum(lags) / len(lags) if lags else 0.0

    @property
    def inclusions_verified(self) -> int:
        """await_inclusion ops whose every leaf proved inclusion."""
        return sum(
            1 for op in self._ops("await_inclusion") if op.verified is True
        )

    @property
    def submissions_ok(self) -> int:
        return sum(
            1 for op in self._ops("add_pre_chain") if op.status == 200
        )

    @property
    def submissions_rejected(self) -> int:
        return sum(
            1 for op in self._ops("add_pre_chain") if op.status == 429
        )

    @property
    def submissions_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.submissions_ok / self.wall_seconds

    @property
    def reads_ok(self) -> int:
        return sum(1 for op in self._ops(*READ_OPS) if op.status == 200)

    @property
    def reads_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.reads_ok / self.wall_seconds

    @property
    def verified_ok(self) -> int:
        return sum(1 for op in self._ops() if op.verified is True)

    @property
    def verification_failures(self) -> int:
        return sum(
            1
            for op in self._ops()
            if op.status == 200 and op.verified is False
        )

    @property
    def transport_errors(self) -> int:
        return sum(1 for op in self._ops() if op.status == -1)

    def status_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for op in self._ops():
            counts[op.status] = counts.get(op.status, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 2,
            "executor": self.executor,
            "workers": self.workers,
            "clients": self.clients,
            "wall_seconds": self.wall_seconds,
            "reads_ok": self.reads_ok,
            "reads_per_sec": self.reads_per_sec,
            "read_p50_s": self.read_p50,
            "read_p99_s": self.read_p99,
            "submissions_ok": self.submissions_ok,
            "submissions_rejected": self.submissions_rejected,
            "submissions_per_sec": self.submissions_per_sec,
            "sct_p50_s": self.sct_p50,
            "sct_p99_s": self.sct_p99,
            "merge_lag_max_s": self.merge_lag_max_s,
            "merge_lag_mean_s": self.merge_lag_mean_s,
            "inclusions_verified": self.inclusions_verified,
            "verified_ok": self.verified_ok,
            "verification_failures": self.verification_failures,
            "transport_errors": self.transport_errors,
            "status_counts": {
                str(status): count
                for status, count in self.status_counts().items()
            },
        }

    def render(self) -> str:
        lines = [
            f"Load storm — {self.clients} clients over {self.executor} "
            f"pool ({self.workers} workers), {self.wall_seconds:.2f}s wall",
            f"  reads        {self.reads_ok:6d} ok   "
            f"{self.reads_per_sec:8.1f}/s   "
            f"p50 {self.read_p50 * 1e3:7.2f} ms   "
            f"p99 {self.read_p99 * 1e3:7.2f} ms",
            f"  submissions  {self.submissions_ok:6d} ok   "
            f"{self.submissions_per_sec:8.1f}/s   "
            f"{self.submissions_rejected} rejected (429)",
            f"  sct latency  p50 {self.sct_p50 * 1e3:7.2f} ms   "
            f"p99 {self.sct_p99 * 1e3:7.2f} ms",
            f"  verification {self.verified_ok:6d} ok   "
            f"{self.verification_failures} failed   "
            f"{self.transport_errors} transport errors",
        ]
        if self.merge_lags:
            lines.append(
                f"  merge lag    max {self.merge_lag_max_s * 1e3:7.2f} ms   "
                f"mean {self.merge_lag_mean_s * 1e3:7.2f} ms   "
                f"{self.inclusions_verified} submitters fully included"
            )
        lines += [
            "  statuses     "
            + "  ".join(
                f"{status}:{count}"
                for status, count in self.status_counts().items()
            ),
        ]
        return "\n".join(lines)


def run_storm(
    plans: Sequence[ClientPlan],
    base_url: str,
    *,
    executor: str = "thread",
    workers: int = 8,
    timeout_s: float = 30.0,
    trace_seed: Optional[int] = None,
) -> LoadStormReport:
    """Execute every client plan against a served log, concurrently.

    ``executor="thread"`` runs clients on a thread pool (cheap,
    default), ``"process"`` on a process pool (real parallel clients —
    plans are picklable by construction), ``"serial"`` in-line (for
    debugging).  Requests inside one client stay ordered; across
    clients everything races, exactly like the real population.

    ``trace_seed`` turns on client-side tracing: every op runs under a
    ``storm.<kind>`` root span, the trace context crosses the HTTP
    boundary via the traceparent header, and each
    :class:`ClientResult` ships its closed spans back as picklable
    records (even from process-pool workers).
    """
    if executor not in STORM_EXECUTORS:
        raise ValueError(
            f"executor must be one of {STORM_EXECUTORS}, got {executor!r}"
        )
    started = time.perf_counter()
    if executor == "serial" or workers <= 1 or len(plans) <= 1:
        results = [
            _execute_plan(base_url, plan, timeout_s, trace_seed)
            for plan in plans
        ]
    else:
        pool_cls = (
            ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        )
        with pool_cls(max_workers=min(workers, len(plans))) as pool:
            futures = [
                pool.submit(_execute_plan, base_url, plan, timeout_s,
                            trace_seed)
                for plan in plans
            ]
            results = [future.result() for future in futures]
    wall = time.perf_counter() - started
    return LoadStormReport(
        wall_seconds=wall,
        executor=executor,
        workers=workers,
        clients=len(plans),
        results=results,
    )


# -- monitor swarms ------------------------------------------------------------


@dataclass(frozen=True)
class MonitorSwarmConfig:
    """Shape of a light-weight monitor population."""

    seed: int = 2018
    monitors: int = 100
    domains_per_monitor: int = 2
    page_size: int = 512
    timeout_s: float = 30.0
    workers: int = 8


def plan_swarm_subscriptions(
    config: MonitorSwarmConfig, domain_pool: Sequence[str]
) -> List[Tuple[str, Tuple[str, ...]]]:
    """Deterministic ``(monitor name, subscribed domains)`` pairs.

    Each monitor samples ``domains_per_monitor`` domains from the pool
    through its own forked stream, so the subscription map depends only
    on the seed — not on population size or build order.
    """
    pool = sorted(set(domain_pool))
    if not pool:
        raise ValueError("plan_swarm_subscriptions needs a non-empty pool")
    rng = SeededRng(config.seed, "monitor-swarm")
    count = min(config.domains_per_monitor, len(pool))
    return [
        (
            f"lw-monitor-{m}",
            tuple(sorted(rng.fork(f"subscribe:{m}").sample(pool, count))),
        )
        for m in range(config.monitors)
    ]


class MonitorSwarm:
    """A monitor population polling one served log over real HTTP.

    ``mode="lightweight"`` runs :class:`~repro.ct.monitor.LightweightMonitor`
    members (proof subscription: digests + matching bodies only);
    ``mode="replay"`` runs the equal-coverage control population of
    :class:`~repro.ct.monitor.BatchMonitor` members that download every
    entry — the cost baseline the paper's §5/§6 monitors pay.  Both
    modes track the same subscriptions, so their observed
    subscribed-domain entry sets are directly comparable.
    """

    MODES = ("lightweight", "replay")

    def __init__(
        self,
        base_url: str,
        log_name: str,
        subscriptions: Sequence[Tuple[str, Sequence[str]]],
        *,
        mode: str = "lightweight",
        key: Optional["_crypto.KeyPair"] = None,
        seed: int = 2018,
        page_size: int = 512,
        timeout_s: float = 30.0,
        workers: int = 8,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if not subscriptions:
            raise ValueError("MonitorSwarm needs at least one subscription")
        self.mode = mode
        self.log_name = log_name
        self.workers = workers
        rng = SeededRng(seed, f"monitor-swarm:{mode}")
        self.members: List[Tuple[object, HttpTransport, Tuple[str, ...]]] = []
        for name, domains in subscriptions:
            transport = HttpTransport(
                base_url,
                log_name,
                page_size=page_size,
                timeout=timeout_s,
                client_id=name,
            )
            monitor: object
            if mode == "lightweight":
                monitor = LightweightMonitor(name, domains, key=key)
            else:
                monitor = BatchMonitor(name, rng)
            self.members.append((monitor, transport, tuple(domains)))
        #: Per-monitor indices of *subscribed-domain* entries observed.
        self.observed: Dict[str, Set[int]] = {
            name: set() for name, _ in subscriptions
        }

    def poll(self, now: datetime) -> int:
        """One poll round across the population; returns new matches."""

        def run(member: Tuple[object, HttpTransport, Tuple[str, ...]]):
            monitor, transport, domains = member
            if self.mode == "lightweight":
                return monitor, domains, monitor.poll(transport, now)  # type: ignore[attr-defined]
            return monitor, domains, monitor.observe(transport)  # type: ignore[attr-defined]

        if self.workers > 1 and len(self.members) > 1:
            with ThreadPoolExecutor(
                max_workers=min(self.workers, len(self.members))
            ) as pool:
                results = list(pool.map(run, self.members))
        else:
            results = [run(member) for member in self.members]
        matched = 0
        for monitor, domains, observations in results:
            for obs in observations:
                if any(
                    domain_matches(domain, name)
                    for name in obs.dns_names
                    for domain in domains
                ):
                    self.observed[monitor.name].add(obs.entry.index)  # type: ignore[attr-defined]
                    matched += 1
        return matched

    def wire_totals(self) -> Dict[str, int]:
        """Cumulative wire cost summed over every member transport."""
        totals = {"requests": 0, "entries": 0, "bytes": 0}
        for _, transport, _ in self.members:
            stats = transport.stats()
            for key in totals:
                totals[key] += stats[key]
        return totals

    def findings(self) -> List["AuditFinding"]:
        """Verification findings across the population (lightweight mode)."""
        out: List["AuditFinding"] = []
        for monitor, _, _ in self.members:
            out.extend(getattr(monitor, "findings", []))
        return out

    def missed_subscribed(self, log: CTLog) -> int:
        """Subscribed-domain entries of ``log`` a member failed to see.

        The zero-miss gate: every entry whose certificate claims a name
        under a member's subscription must appear in that member's
        observed set.
        """
        missed = 0
        for monitor, _, domains in self.members:
            expected = {
                entry.index
                for entry in log.entries
                if any(
                    domain_matches(domain, name)
                    for name in entry.certificate.dns_names()
                    for domain in domains
                )
            }
            missed += len(
                expected - self.observed[monitor.name]  # type: ignore[attr-defined]
            )
        return missed
