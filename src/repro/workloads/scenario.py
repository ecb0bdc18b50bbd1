"""One seeded storm world: a served log, a client storm and its checks.

:class:`Scenario` is the spec of every storm world: the ``loadstorm``,
``lifecycle`` and ``gossip`` commands, the live storm benchmarks and
the lifecycle integration test.  Inside ``with spec.serve() as world``
the caller runs ``world.storm()`` and its own post-storm phase; on a
clean exit the world drains writes, stops the server and checks the
standing invariants (see :meth:`World.check`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Iterator, List, Optional

from repro.ct.auditor import make_split_view_log
from repro.ct.log import CTLog
from repro.ct.server import LogServer, SplitView
from repro.ct.storage import certificate_from_dict
from repro.obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_TRACER,
    EventLog,
    MetricsRegistry,
    SpanTracer,
    TraceStore,
    read_events,
)
from repro.util.timeutil import utc_datetime
from repro.workloads.loadgen import (
    ClientPlan,
    LoadStormConfig,
    LoadStormReport,
    plan_storm,
    run_storm,
)
from repro.x509 import crypto
from repro.x509.ca import CertificateAuthority, IssuanceRequest


def seeded_log(seed: int, entries: int) -> CTLog:
    """A CT log pre-populated with ``entries`` deterministic precerts."""
    log = CTLog(
        name="Repro Serve Log",
        operator="Repro",
        key=crypto.KeyPair.generate(f"serve-log:{seed}", 256),
    )
    ca = CertificateAuthority(name="Serve Seed CA", key_bits=256)
    start = utc_datetime(2018, 5, 1, 12, 0)
    for i in range(entries):
        ca.issue(
            IssuanceRequest((f"seed{i}.serve.example",)),
            [log],
            start + timedelta(seconds=i),
        )
    return log


@dataclass(frozen=True)
class Scenario:
    """A seeded served log and the client storm run against it.

    ``storm.seed`` seeds the log too.  ``merge_interval``/``max_batch``
    pick the write path (``None``: per-entry writes); ``split_view``
    mounts the log beside an equivocating twin that forks at half its
    size; ``executor``/``workers`` run the storm.
    """

    log_entries: int = 32
    storm: LoadStormConfig = field(default_factory=LoadStormConfig)
    merge_interval: Optional[float] = None
    max_batch: int = 256
    split_view: bool = False
    executor: str = "thread"
    workers: int = 8

    @contextmanager
    def serve(
        self,
        *,
        host: str = "127.0.0.1",
        metrics: MetricsRegistry = NULL_METRICS,
        events: EventLog = NULL_EVENTS,
        tracer: SpanTracer = NULL_TRACER,
    ) -> Iterator["World"]:
        """Serve the world; drain, stop and check it on a clean exit.

        Tracing is on exactly when ``tracer`` is a real tracer; its
        events (``tracer.events``: a file, or a ring that must hold the
        whole run) are what the exit check replays.
        """
        log = seeded_log(self.storm.seed, self.log_entries)
        mount = log
        if self.split_view:
            twin = make_split_view_log(log, log.size // 2, pad_to=log.size)
            mount = SplitView(log, twin)
        plans = plan_storm(self.storm, log)
        server = LogServer(
            mount,
            host=host,
            metrics=metrics,
            events=events,
            tracer=tracer,
            merge_interval=self.merge_interval,
            max_batch=self.max_batch,
        )
        world = World(self, log, plans, tracer, server, server.log_url(log.name))
        with server:
            yield world
            server.drain_writes()
        world.check()


@dataclass
class World:
    """A served :class:`Scenario`: what the caller drives and reads."""

    spec: Scenario
    log: CTLog
    plans: List[ClientPlan]
    tracer: SpanTracer
    server: LogServer
    url: str
    report: Optional[LoadStormReport] = None
    #: Every span of a traced run, assembled on exit.
    trace_store: TraceStore = field(default_factory=TraceStore)

    @property
    def traced(self) -> bool:
        return self.tracer is not NULL_TRACER

    def submitted_domains(self) -> List[str]:
        """Every name the storm's submitters claim, sorted."""
        leaves = [op.chain[0] for plan in self.plans for op in plan.ops if op.chain]
        certificates = [certificate_from_dict(dict(leaf)) for leaf in leaves]
        return sorted({name for cert in certificates for name in cert.dns_names()})

    def storm(self) -> LoadStormReport:
        """Run the planned storm against the served log."""
        self.report = run_storm(
            self.plans,
            self.url,
            executor=self.spec.executor,
            workers=self.spec.workers,
            timeout_s=self.spec.storm.timeout_s,
            trace_seed=self.spec.storm.seed if self.traced else None,
        )
        return self.report

    def check(self) -> None:
        """Raise one :class:`AssertionError` naming each broken invariant.

        ``transport``: an op failed on the wire.  ``verification``: an
        op failed its check on an honest mount.  ``inclusion``: an
        awaited leaf was never proven included.  Traced runs also need
        no ``orphan-spans`` and an ``event-replay``: every event of the
        run must rebuild :attr:`trace_store`.
        """
        results = self.report.results if self.report is not None else []
        ops = [op for result in results for op in result.ops]
        wire = sum(1 for op in ops if op.status == -1)
        checked = [op for op in ops if op.kind != "await_inclusion"]
        awaits = [op for op in ops if op.kind == "await_inclusion"]
        failed = sum(1 for op in checked if op.status == 200 and op.verified is False)
        unproven = sum(1 for op in awaits if op.verified is not True)
        broken = []
        if wire:
            broken.append(f"transport: {wire} ops failed on the wire")
        if failed and not self.spec.split_view:
            broken.append(f"verification: {failed} ops failed their check")
        if unproven:
            broken.append(f"inclusion: {unproven} submitters saw a leaf never proven")
        if self.traced:
            # Ship the storm workers' client spans home: record_remote
            # files them and re-emits each as a ``span`` event.
            for result in results:
                for record in result.spans:
                    self.tracer.record_remote(record)
            self.trace_store.add_many(self.tracer.to_records())
            orphans = len(self.trace_store.orphan_spans())
            if orphans:
                broken.append(f"orphan-spans: {orphans} spans lack their parent")
            events = self.tracer.events
            if events.path is not None:
                replayed = read_events(events.path)
            else:
                replayed = events.tail(events.emitted)
            if len(replayed) != events.emitted:
                broken.append(
                    f"event-replay: {len(replayed)} of {events.emitted} events "
                    "of the run are still readable"
                )
            elif TraceStore.from_events(replayed) != self.trace_store:
                broken.append("event-replay: the replayed events rebuild another store")
        if broken:
            raise AssertionError("scenario invariants broken: " + "; ".join(broken))
