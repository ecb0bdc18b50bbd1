"""The benchmark's world and its three client journeys.

:func:`build_world` seeds a CT log from ``--seed``, serves it on
loopback through a real :class:`~repro.ct.server.LogServer` backed by
an MMD sequencer, pins the served tree head, and pre-builds everything
the clients will send.  The journeys then drive it from client threads
named ``ctbench-client-*`` and verify every answer:

* :func:`audit_phase` — closed loop, two clients, in the load storm's
  read mix: STHs, inclusion proofs at the pinned STH (Zipf-skewed
  leaves), small ``get-entries`` pages and consistency proofs, each
  checked against the pinned tree head or roots the benchmark computed
  itself;
* :func:`lifecycle_phase` — an open-loop submitter posting precerts at
  a fixed rate beside a closed-loop :class:`LightweightMonitor`; SCT
  signatures are checked with the log key and every submission must be
  detected with no monitor findings;
* :func:`harvest_phase` — one tailer running :func:`harvest_log` with a
  fresh :class:`LiveAnalytics` over the whole log; the rebuilt root
  must equal the signed STH and the live fold must equal a batch
  recompute over the replica.

A failed check or a raised error counts as a failed operation; nothing
here raises out of a phase.
"""

from __future__ import annotations

import base64
import random
import threading
import time
from dataclasses import dataclass, field
from datetime import timedelta
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Tuple

from repro.ct import merkle
from repro.ct.log import CTLog, SignedTreeHead
from repro.ct.monitor import HttpTransport, LightweightMonitor
from repro.ct.sct import precert_signing_input
from repro.ct.sequencer import LogSequencer
from repro.ct.server import LogClient, LogServer, harvest_log
from repro.dataset.corpus import CertCorpus
from repro.dataset.live import LiveAnalytics
from repro.util.timeutil import utc_datetime
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest
from repro.workloads.loadgen import LoadStormConfig
from repro.x509.certificate import Certificate

from layertrace import CLIENT_THREAD_PREFIX

#: Client threads of the audit journey, each in a closed loop.
AUDIT_CLIENTS = 2
#: Offered precert submissions per second (below the monitor's capacity).
RATE = 50.0
#: Seconds between the live log's background merges.
MERGE_INTERVAL = 0.02
#: Untimed lead-in of every phase (first connections, thread start).
WARMUP_S = 0.1
#: How long the monitor may take to detect the last submissions.
DRAIN_S = 5.0
#: Think time of the closed-loop monitor between polls.  Polling
#: without pause sent ~500 get-sth/s that crowded the submitter, so SCT
#: and detection latency tracked the host's load more than the log's.
MONITOR_GAP_S = 0.005
#: Audit-read mix, in reads per round of the default load-storm
#: population (:class:`LoadStormConfig`): every browser and monitor
#: fetches one STH, each browser then ``audits_per_browser`` inclusion
#: proofs, each monitor ``pages_per_monitor`` pages and one consistency
#: proof.  The defaults give 8 STHs, 48 proofs, 12 pages and 2
#: consistency proofs per 70 reads.
_STORM = LoadStormConfig()
AUDIT_MIX = {
    "audit.sth": _STORM.browsers + _STORM.monitors,
    "audit.proof": _STORM.browsers * _STORM.audits_per_browser,
    "audit.entries": _STORM.monitors * _STORM.pages_per_monitor,
    "audit.consistency": _STORM.monitors,
}
AUDIT_PAGE = _STORM.page_size
HARVEST_PAGE = 256
#: Zipf exponent of leaf popularity.  An assumption of this benchmark:
#: the load storm draws leaves uniformly and no measured source is cited.
ZIPF_S = 1.0
#: Entries the live log holds before the first submission.
LIVE_SEED_SIZE = 16
BRANDS = ("Let's Encrypt", "DigiCert", "Comodo", "GlobalSign")


class SetupError(RuntimeError):
    """The served log does not match what the benchmark seeded."""


@dataclass
class Submission:
    name: str
    precert: Certificate
    issuer_key_hash: bytes
    entry_input: bytes


@dataclass
class World:
    """Two served logs plus the benchmark's own reference data.

    Like a real operator's temporal shards, ``archive`` is frozen (the
    audit and harvest journeys read it) and ``live`` takes the
    lifecycle journey's submissions through an MMD sequencer, so the
    read journeys see the same log however far the writes got.
    """

    seed: int
    archive: CTLog
    live: CTLog
    sequencer: LogSequencer
    server: LogServer
    archive_url: str
    live_url: str
    pinned_size: int
    pinned_root: bytes
    leaf_inputs: List[bytes]
    leaf_hashes: List[bytes]
    popularity: List[int]
    cum_weights: List[float]
    roots: Dict[int, bytes]
    submissions: List[Submission]
    monitor: LightweightMonitor
    transport: HttpTransport
    taken: int = 0

    def take(self, count: int) -> List[Submission]:
        batch = self.submissions[self.taken : self.taken + count]
        self.taken += len(batch)
        return batch

    def close(self) -> None:
        self.server.stop()
        self.sequencer.stop(drain=True)


def _seeded_log(
    name: str, rng: random.Random, size: int, cas: List[CertificateAuthority]
) -> CTLog:
    """A log of ``size`` certificates logged over 16 months."""
    log = CTLog(name=name, operator="ctbench", key=crypto.KeyPair.generate(name))
    base = utc_datetime(2017, 1, 1, 9, 0)
    minutes = sorted(rng.randrange(16 * 30 * 24 * 60) for _ in range(size))
    for i, offset in enumerate(minutes):
        brand = rng.randrange(len(cas))
        host = f"h{i}-{rng.getrandbits(32):08x}.brand{brand}.example"
        cas[brand].issue(
            IssuanceRequest((host, f"www.{host}")), [log], base + timedelta(minutes=offset)
        )
    return log


def build_world(seed: int, log_size: int, submissions: int) -> World:
    """Seed both logs, serve them, pin the archive STH, build precerts."""
    rng = random.Random(f"ctbench:{seed}")
    cas = [CertificateAuthority(brand, key_bits=256) for brand in BRANDS]
    archive = _seeded_log("ctbench archive", rng, log_size, cas)
    live = _seeded_log("ctbench live", rng, LIVE_SEED_SIZE, cas)
    leaf_inputs = [entry.leaf_input for entry in archive.entries]
    reference = merkle.MerkleTree()
    reference.append_many(leaf_inputs)
    sizes = sorted({rng.randrange(1, log_size + 1) for _ in range(32)})
    roots = {size: reference.root(size) for size in sizes}

    popularity = list(range(log_size))
    rng.shuffle(popularity)
    cum_weights = list(accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(log_size)))

    watch_domains = tuple(f"watch{k}-s{seed}.example" for k in range(4))
    lifecycle_ca = CertificateAuthority(f"ctbench lifecycle CA {seed}", key_bits=256)
    scratch = CTLog(
        name="ctbench scratch",
        operator="ctbench",
        key=crypto.KeyPair.generate("ctbench-scratch", 256),
    )
    issued = utc_datetime(2018, 5, 2, 9, 0)
    subs: List[Submission] = []
    for n in range(submissions):
        name = f"c{n}-{rng.getrandbits(32):08x}.{watch_domains[n % len(watch_domains)]}"
        pair = lifecycle_ca.issue(IssuanceRequest((name,)), [scratch], issued)
        precert = pair.precertificate
        assert precert is not None
        key_hash = lifecycle_ca.issuer_key_hash
        subs.append(
            Submission(name, precert, key_hash, precert_signing_input(precert, key_hash))
        )

    sequencer = LogSequencer(live, merge_interval=MERGE_INTERVAL)
    server = LogServer([archive, sequencer]).start()
    sequencer.start()
    try:
        archive_url = server.log_url(archive.name)
        live_url = server.log_url(live.name)
        sth = LogClient(archive_url).get_signed_tree_head()
        if not (
            sth.verify(archive.key)
            and sth.tree_size == log_size
            and sth.root_hash == reference.root()
        ):
            raise SetupError("served archive STH does not match the seeded log")
        monitor = LightweightMonitor("ctbench-monitor", watch_domains, key=live.key)
        transport = HttpTransport(live_url, live.name)
        monitor.poll(transport)  # catch up over the seeded entries
        if monitor.findings or monitor.entries_matched:
            raise SetupError(f"monitor catch-up failed: {monitor.findings}")
    except BaseException:
        server.stop()
        sequencer.stop()
        raise
    return World(
        seed=seed,
        archive=archive,
        live=live,
        sequencer=sequencer,
        server=server,
        archive_url=archive_url,
        live_url=live_url,
        pinned_size=log_size,
        pinned_root=sth.root_hash,
        leaf_inputs=leaf_inputs,
        leaf_hashes=[merkle.leaf_hash(leaf) for leaf in leaf_inputs],
        popularity=popularity,
        cum_weights=cum_weights,
        roots=roots,
        submissions=subs,
        monitor=monitor,
        transport=transport,
    )


@dataclass
class PhaseResult:
    """Samples (seconds) and tallies from one phase."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.samples.setdefault(name, []).append(value)

    def absorb(self, other: "PhaseResult") -> None:
        """Fold another block of the same phase into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.seconds += other.seconds
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)
        for name, value in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.errors.extend(other.errors[: max(0, 10 - len(self.errors))])

    def tally(self, ok: bool, error: Optional[str] = None) -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if error and len(self.errors) < 10:
                    self.errors.append(error)


def run_clients(fns: List[Callable[[], None]], result: PhaseResult) -> None:
    """Run each function on its own client thread and wait for all."""

    def guarded(fn: Callable[[], None]) -> None:
        try:
            fn()
        except Exception as exc:  # a client crash is a failed op, not a crash
            result.tally(False, f"client thread: {exc!r}")

    threads = [
        threading.Thread(target=guarded, args=(fn,), name=f"{CLIENT_THREAD_PREFIX}-{i}")
        for i, fn in enumerate(fns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def audit_phase(world: World, seconds: float, tracer, tag: str) -> PhaseResult:
    """Closed loop: each client waits for its verified reply, then sends."""
    result = PhaseResult()
    barrier = threading.Barrier(AUDIT_CLIENTS)
    finished: List[float] = []
    size, root = world.pinned_size, world.pinned_root
    firsts = sorted(world.roots)
    pages = max(1, size // AUDIT_PAGE)
    kinds = list(AUDIT_MIX)
    cum_mix = list(accumulate(AUDIT_MIX.values()))

    def client(t: int) -> None:
        rng = random.Random(f"ctbench:{world.seed}:{tag}:audit:{t}")
        http = LogClient(world.archive_url)

        def leaf() -> int:
            return rng.choices(world.popularity, cum_weights=world.cum_weights)[0]

        barrier.wait()
        warm_end = time.perf_counter() + WARMUP_S
        end = warm_end + seconds
        n = 0
        while True:
            started = time.perf_counter()
            if started >= end:
                break
            kind = rng.choices(kinds, cum_weights=cum_mix)[0]
            if kind == "audit.proof":
                index = leaf()
            elif kind == "audit.entries":
                index = rng.randrange(pages) * AUDIT_PAGE
            elif kind == "audit.consistency":
                index = rng.choice(firsts)
            else:
                index = size
            op = f"{tag}a{t}-{n}"
            n += 1
            http.client_id = op
            tracer.begin_op(op, kind)
            started = time.perf_counter()
            ok, error = False, None
            try:
                if kind == "audit.sth":
                    sth = http.get_signed_tree_head()
                    ok = (
                        sth.tree_size == size
                        and sth.root_hash == root
                        and sth.verify(world.archive.key)
                    )
                elif kind == "audit.proof":
                    got, path = http.get_proof_by_hash(world.leaf_hashes[index], size)
                    ok = got == index and merkle.verify_inclusion_proof(
                        world.leaf_inputs[index], index, size, path, root
                    )
                elif kind == "audit.entries":
                    last = min(index + AUDIT_PAGE, size) - 1
                    entries = http.get_entries(index, last)
                    ok = len(entries) == last - index + 1 and all(
                        entry.index == index + i
                        and merkle.leaf_hash(entry.leaf_input) == world.leaf_hashes[index + i]
                        for i, entry in enumerate(entries)
                    )
                else:
                    proof = http.get_sth_consistency(index, size)
                    ok = merkle.verify_consistency_proof(
                        index, size, world.roots[index], root, proof
                    )
            except Exception as exc:
                error = f"{kind}: {exc!r}"
            done = time.perf_counter()
            tracer.end_op()
            if not ok and error is None:
                error = f"{kind} at {index} did not verify"
            result.tally(ok, error)
            if started >= warm_end:
                result.add("read", done - started)
        finished.append(time.perf_counter() - warm_end)

    run_clients([lambda t=t: client(t) for t in range(AUDIT_CLIENTS)], result)
    result.seconds = max(finished) if finished else seconds
    return result


class _HarvestClient(LogClient):
    """A :class:`LogClient` that marks each page as one operation."""

    def __init__(self, url: str, tracer, tag: str) -> None:
        super().__init__(url)
        self.ops = tracer
        self.tag = tag
        self.marks: List[float] = []
        self.sth: Dict[str, object] = {}
        self.n = 0

    def _begin(self, kind: str) -> None:
        op = f"{self.tag}-{self.n}"
        self.n += 1
        self.client_id = op
        self.ops.begin_op(op, kind)

    def get_sth(self) -> Dict[str, object]:
        self._begin("harvest.sth")
        self.sth = super().get_sth()
        return self.sth

    def get_entries(self, start: int, end: int):
        self.marks.append(time.perf_counter())
        self._begin("harvest.page")
        return super().get_entries(start, end)


def check_harvest(world: World, client: _HarvestClient, replica, live: LiveAnalytics) -> Optional[str]:
    """Why a finished harvest is wrong, or None when it is right."""
    body = client.sth
    sth = SignedTreeHead(
        tree_size=int(body["tree_size"]),
        timestamp_ms=int(body["timestamp"]),
        root_hash=_unb64(body["sha256_root_hash"]),
        signature=_unb64(body["tree_head_signature"]),
    )
    if not sth.verify(world.archive.key):
        return "harvest STH signature does not verify"
    if replica.size != sth.tree_size or replica.tree.root() != sth.root_hash:
        return "harvested replica does not match the STH"
    # The archive is frozen: a tree head of any other size or root is
    # stale or truncated, however well signed.
    if sth.tree_size != world.pinned_size or sth.root_hash != world.pinned_root:
        return "harvest STH differs from the pinned tree head"
    batch = LiveAnalytics()
    batch.fold_records(CertCorpus.from_logs([replica], with_names=False).iter_records())
    if live.to_dict()["sections"] != batch.to_dict()["sections"]:
        return "live analytics differ from a batch recompute over the replica"
    return None


def _unb64(text: object) -> bytes:
    return base64.b64decode(str(text))


def harvest_phase(world: World, seconds: float, tracer, tag: str) -> PhaseResult:
    """One tailer re-harvesting the whole log, folding live analytics."""
    result = PhaseResult()
    busy: List[float] = []

    def tailer() -> None:
        warm_end = time.perf_counter() + WARMUP_S
        end = warm_end + seconds
        n = 0
        while time.perf_counter() < end:
            client = _HarvestClient(world.archive_url, tracer, f"{tag}h{n}")
            n += 1
            live = LiveAnalytics()
            started = time.perf_counter()
            error = None
            try:
                replica = harvest_log(
                    client,
                    name=world.archive.name,
                    operator=world.archive.operator,
                    page_size=HARVEST_PAGE,
                    analytics=live,
                )
            except Exception as exc:
                replica, error = None, f"harvest: {exc!r}"
            done = time.perf_counter()
            tracer.end_op()
            if replica is not None:
                error = check_harvest(world, client, replica, live)
            result.tally(error is None, error)
            if started >= warm_end and replica is not None:
                busy.append(done - started)
                result.counts["entries"] = result.counts.get("entries", 0) + replica.size
                marks = client.marks + [done]
                for a, b in zip(marks, marks[1:]):
                    result.add("page", b - a)

    run_clients([tailer], result)
    result.seconds = sum(busy)
    return result


def lifecycle_phase(world: World, seconds: float, tracer, tag: str) -> PhaseResult:
    """Open-loop submissions beside a closed-loop light-weight monitor."""
    result = PhaseResult()
    subs = world.take(int(RATE * (seconds + WARMUP_S)) + 1)
    by_name = {sub.name: sub for sub in subs}
    due: Dict[str, Tuple[float, bool]] = {}
    detected: Dict[str, float] = {}
    submitted = threading.Event()
    monitor, transport = world.monitor, world.transport
    findings_before = len(monitor.findings)
    key = world.live.key

    def submitter() -> None:
        http = LogClient(world.live_url)
        start = time.perf_counter() + 0.01
        warm_end = start + WARMUP_S
        end = warm_end + seconds
        try:
            for i, sub in enumerate(subs):
                when = start + i / RATE
                if when >= end:
                    break
                wait = when - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                timed = when >= warm_end
                sent = time.perf_counter()
                if timed:
                    result.add("late", sent - when)
                due[sub.name] = (when, timed)
                op = f"{tag}s-{i}"
                http.client_id = op
                tracer.begin_op(op, "lifecycle.submit")
                ok, error = False, None
                try:
                    sct = http.add_pre_chain(sub.precert, sub.issuer_key_hash)
                    ok = sct.verify(key, sub.entry_input)
                except Exception as exc:
                    error = f"add-pre-chain: {exc!r}"
                done = time.perf_counter()
                tracer.end_op()
                if not ok and error is None:
                    error = f"SCT for {sub.name} does not verify"
                result.tally(ok, error)
                if timed:
                    result.add("sct", done - when)
        finally:
            submitted.set()

    def watcher() -> None:
        n = 0
        deadline = None
        while True:
            op = f"{tag}m-{n}"
            n += 1
            transport.client.client_id = op
            tracer.begin_op(op, "lifecycle.poll")
            observations = monitor.poll(transport)
            seen = time.perf_counter()
            tracer.end_op()
            for observation in observations:
                name = observation.entry.certificate.subject_cn
                sub = by_name.get(name)
                if sub is None or name in detected or name not in due:
                    continue
                same = observation.entry.leaf_input == sub.entry_input
                detected[name] = seen - due[name][0] if same else None
            if submitted.is_set():
                if len(detected) >= len(due):
                    break
                deadline = deadline or seen + DRAIN_S
                if seen > deadline:
                    break
            time.sleep(MONITOR_GAP_S)

    run_clients([submitter, watcher], result)
    for name, (when, timed) in due.items():
        if name not in detected:
            result.tally(False, f"{name} was never detected")
        elif detected[name] is None:
            result.tally(False, f"logged entry for {name} differs from the submission")
        else:
            result.tally(True)
            if timed:
                result.add("detect", detected[name])
    for finding in monitor.findings[findings_before:]:
        result.tally(False, f"monitor finding: {finding}")
    result.seconds = seconds
    return result
