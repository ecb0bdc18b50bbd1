"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro list
    python -m repro fig1a [--scale 1e-5] [--seed 7]
    python -m repro table4
    python -m repro sec43 --ablations

Each artifact command runs the corresponding workload + analysis and
prints the rendered table/figure (the same renderings the benchmark
harness writes to ``benchmarks/output/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core import adoption, enumeration, evolution, misissuance
from repro.core import report as rpt
from repro.core import serversupport
from repro.core.honeypot import CtHoneypotExperiment, render_table4
from repro.core.phishdetect import PhishingDetector
from repro.core.threatintel import build_threat_report, render_threat_report


def _write_json_artifact(path, payload) -> Path:
    """The one JSON-artifact writer behind ``--metrics-out``,
    ``--trace-out``, ``--status-out``: sorted keys, 2-space indent,
    trailing newline (byte-identical to
    :meth:`repro.obs.MetricsSnapshot.write`)."""
    path = Path(path)
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _engine(args):
    """Build the execution engine from the parallelism/resilience flags.

    ``--workers 1`` (the default) is the serial fallback: analyses run
    the original single-threaded code and parallel runs are guaranteed
    to produce the same bytes.  ``--retries``/``--backoff`` attach a
    seeded :class:`~repro.resilience.RetryPolicy` so transient shard
    failures are retried inside the workers, and ``--on-error degrade``
    lets a run whose retries are exhausted complete with partial
    results plus a degradation report instead of aborting.

    When ``--metrics-out``/``--trace`` are active, :func:`main` stashes
    a registry/tracer on ``args`` and the engine (plus retry policy)
    records into them; artifact outputs are unaffected either way.
    """
    from repro.pipeline import DEFAULT_SHARD_SIZE, PipelineEngine
    from repro.resilience import RetryPolicy
    from repro.util.rng import SeededRng

    metrics = getattr(args, "metrics", None)
    tracer = getattr(args, "tracer", None)
    events = getattr(args, "events", None)
    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            base_delay_s=args.backoff,
            rng=SeededRng(args.seed, "cli-retry"),
            metrics=metrics,
        )
    return PipelineEngine(
        workers=args.workers,
        shard_size=args.shard_size or DEFAULT_SHARD_SIZE,
        retry=retry,
        on_error=args.on_error,
        metrics=metrics,
        tracer=tracer,
        events=events,
    )


def _evolution_run(args):
    from repro.workloads.ca_profiles import CaLoggingWorkload

    scale = args.scale or 1e-5
    return CaLoggingWorkload(
        scale=scale, end=date(2018, 4, 30), seed=args.seed
    ).run()


def cmd_fig1a(args) -> str:
    from repro.pipeline import evolution_growth

    run = _evolution_run(args)
    growth = evolution_growth(run.logs, _engine(args))
    return rpt.render_figure1a(growth, weight=run.weight)


def cmd_fig1b(args) -> str:
    from repro.pipeline import evolution_rates

    run = _evolution_run(args)
    return rpt.render_figure1b(evolution_rates(run.logs, _engine(args)))


def cmd_fig1c(args) -> str:
    from repro.pipeline import evolution_matrix

    run = _evolution_run(args)
    matrix = evolution_matrix(run.logs, "2018-04", _engine(args))
    load = evolution.log_load_report(run.logs, "2018-04", matrix=matrix)
    return rpt.render_figure1c(matrix) + "\n\n" + rpt.render_log_load(load)


def cmd_sec2(args) -> str:
    """Figures 1a-1c (plus log load) from one fused corpus traversal.

    Renders the same bytes as running ``fig1a``, ``fig1b`` and
    ``fig1c`` separately, but the underlying analysis walks each
    corpus shard exactly once for all three passes (see
    :func:`repro.pipeline.evolution_sections`).
    """
    from repro.pipeline import evolution_sections

    run = _evolution_run(args)
    sections = evolution_sections(run.logs, "2018-04", _engine(args))
    load = evolution.log_load_report(
        run.logs, "2018-04", matrix=sections["matrix"]
    )
    return "\n\n".join(
        [
            rpt.render_figure1a(sections["growth"], weight=run.weight),
            rpt.render_figure1b(sections["rates"]),
            rpt.render_figure1c(sections["matrix"]),
            rpt.render_log_load(load),
        ]
    )


def _traffic_stats(args):
    from repro.bro.analyzer import BroSctAnalyzer
    from repro.pipeline import traffic_adoption
    from repro.workloads.traffic import UplinkTrafficWorkload

    per_day = int(args.scale * 26.5e9 / 393) if args.scale else 400
    workload = UplinkTrafficWorkload(
        connections_per_day=max(50, per_day), seed=args.seed
    )
    analyzer = BroSctAnalyzer(workload.logs)
    return traffic_adoption(workload.stream(), analyzer, _engine(args))


def cmd_fig2(args) -> str:
    return rpt.render_figure2(_traffic_stats(args))


def cmd_table1(args) -> str:
    return rpt.render_table1(adoption.table1(_traffic_stats(args)))


def cmd_sec32(args) -> str:
    return rpt.render_section32(_traffic_stats(args))


def cmd_sec33(args) -> str:
    from repro.tls.scanner import TlsScanner
    from repro.util.timeutil import utc_datetime
    from repro.workloads.hosting import HostingWorkload

    scale = args.scale or 1 / 20_000
    population = HostingWorkload(scale=scale, seed=args.seed).build()
    scanner = TlsScanner(population.resolver(), population.endpoints)
    records = scanner.scan(population.domains, utc_datetime(2018, 5, 18))
    names = {log.log_id: log.name for log in population.logs.values()}
    stats = serversupport.analyze_scan(records, names)
    return rpt.render_section33(stats, weight=1.0 / scale)


def cmd_sec34(args) -> str:
    from repro.workloads.incidents import MisissuanceWorkload

    corpus = MisissuanceWorkload(healthy_certificates=200, seed=args.seed).build()
    audit = misissuance.audit_certificates(
        (pair.final_certificate for pair in corpus.pairs),
        corpus.issuer_key_hashes(),
        corpus.logs,
    )
    return rpt.render_section34(audit)


def _domain_corpus(args, default_scale=1 / 2_000):
    from repro.workloads.domains import DomainWorkload

    return DomainWorkload(scale=args.scale or default_scale, seed=args.seed).build()


def cmd_table2(args) -> str:
    from repro.pipeline import leakage_names

    corpus = _domain_corpus(args, 1 / 1_000)
    stats = leakage_names(corpus.ct_fqdns, _engine(args), corpus.psl)
    return rpt.render_table2(stats, weight=1.0 / corpus.scale)


def cmd_sec43(args) -> str:
    from repro.pipeline import leakage_names

    corpus = _domain_corpus(args, 1 / 10_000)
    stats = leakage_names(corpus.ct_fqdns, _engine(args), corpus.psl)
    _, _, result = enumeration.run_enumeration_experiment(
        stats, corpus, seed=args.seed, with_ablations=args.ablations
    )
    return rpt.render_section43(result, corpus.scale)


def cmd_table3(args) -> str:
    from repro.workloads.phishing import PhishingWorkload

    scale = args.scale or 1 / 100
    corpus = PhishingWorkload(scale=scale, seed=args.seed).build()
    result = PhishingDetector().scan(corpus.names)
    return rpt.render_table3(result, weight=1.0 / scale)


def cmd_table4(args) -> str:
    result = CtHoneypotExperiment(seed=args.seed).run()
    return render_table4(result.table4())


def cmd_threatintel(args) -> str:
    result = CtHoneypotExperiment(seed=args.seed).run()
    return render_threat_report(build_threat_report(result))


def cmd_status(args) -> str:
    """Per-log SLO verdicts from a short live monitoring session.

    Runs a deterministic feed loop over four known logs — two healthy,
    one flaky-but-recovering (``degraded``: every fetch needs a retry),
    one with a permanently dead read API (``failing`` once the
    consecutive-failure streak crosses the policy threshold) — and
    renders the same per-log health table a
    :class:`~repro.obs.export.TelemetryServer` serves at ``/health``
    for a real loop.  A second, equally deterministic exercise covers
    the *write path*: two MMD sequencers merging under injected clocks
    (one within the merge-lag budget, one far past it) and a
    capacity-limited served log shedding submissions with 429s, folded
    into verdicts by :func:`repro.obs.evaluate_write_path`.
    ``--status-out FILE`` writes both reports as machine-readable JSON
    (the write-path verdicts under a ``write_path`` key);
    ``--events-out`` captures the per-poll ``feed_poll`` events live.
    """
    import base64
    from datetime import timedelta

    from repro.ct.feed import CertFeed
    from repro.ct.log import CTLog
    from repro.ct.loglist import build_default_logs
    from repro.ct.sequencer import LogSequencer
    from repro.ct.server import LogServer
    from repro.ct.storage import certificate_to_dict
    from repro.obs import MetricsRegistry, evaluate_write_path
    from repro.resilience import FlakyLog, RetryPolicy
    from repro.util.rng import SeededRng
    from repro.util.timeutil import utc_datetime
    from repro.x509 import crypto
    from repro.x509.ca import CertificateAuthority, IssuanceRequest

    rng = SeededRng(args.seed, "cli-status")
    known = build_default_logs(with_capacities=False, key_bits=256)
    degraded = FlakyLog(
        known["DigiCert Log Server"],
        rng,
        failure_rate=1.0,
        max_consecutive=1,
        methods=("get_entries",),
    )
    failing = FlakyLog(
        known["Symantec log"],
        rng,
        failure_rate=0.0,
        methods=("get_entries",),
        fail_when=lambda method, call: method == "get_entries",
    )
    logs = [
        known["Google Pilot log"],
        known["Google Rocketeer log"],
        degraded,
        failing,
    ]
    metrics = args.metrics if args.metrics is not None else MetricsRegistry()
    feed = CertFeed(
        logs,
        retry=RetryPolicy(
            max_attempts=2,
            base_delay_s=0.0,
            rng=rng.fork("retry"),
            metrics=metrics,
        ),
        metrics=metrics,
        events=args.events,
        flush_interval_s=0.0 if args.events is not None else None,
    )
    feed.subscribe("status", lambda event: None)
    ca = CertificateAuthority(name="Status CA", key_bits=256)
    rounds = 6
    start = utc_datetime(2018, 5, 1)
    for round_no in range(rounds):
        now = start + timedelta(minutes=10 * round_no)
        for log in logs:
            ca.issue(
                IssuanceRequest(dns_names=(f"round{round_no}.status.example",)),
                [log],
                now,
            )
        feed.run_once(now)
    feed.flush_telemetry()
    report = feed.health_report()
    delivered, _, _ = feed.stats("status")

    # Write-path exercise, fully clock-injected so the verdicts (and
    # the rendered bytes) are deterministic: two sequencers merging the
    # same submissions with very different lags, and one served log
    # shedding over-capacity submissions as 429s through the real
    # request middleware (handle_request called in-process).
    t0 = utc_datetime(2018, 5, 1, 12, 0)
    wp_ca = CertificateAuthority(name="Status Write CA", key_bits=256)
    scratch = CTLog(
        name="status-scratch",
        operator="Repro",
        key=crypto.KeyPair.generate(f"status-scratch:{args.seed}", 256),
    )
    pairs = [
        wp_ca.issue(
            IssuanceRequest(dns_names=(f"merge{n}.status.example",)),
            [scratch],
            t0,
        )
        for n in range(3)
    ]
    for seq_name, lag_s in (("Sequenced Fast", 0.5), ("Sequenced Slow", 150.0)):
        seq_log = CTLog(
            name=seq_name,
            operator="Repro",
            key=crypto.KeyPair.generate(f"status-wp:{args.seed}:{seq_name}", 256),
        )
        sequencer = LogSequencer(seq_log, metrics=metrics, events=args.events)
        for pair in pairs:
            sequencer.submit_pre_chain(
                pair.precertificate, wp_ca.issuer_key_hash, now=t0
            )
        sequencer.merge(now=t0 + timedelta(seconds=lag_s))
    shed_log = CTLog(
        name="Status Shed",
        operator="Repro",
        key=crypto.KeyPair.generate(f"status-shed:{args.seed}", 256),
        capacity_per_day=1,
        strict_capacity=True,
    )
    shed_server = LogServer(
        shed_log, metrics=metrics, events=args.events, clock=lambda: t0
    )
    for _ in range(2):
        shed_server.handle_request("GET", "/ct/v1/get-sth", "", b"")
    for pair in pairs:  # capacity 1: first lands, the rest shed as 429
        body = json.dumps(
            {
                "chain": [certificate_to_dict(pair.precertificate)],
                "issuer_key_hash": base64.b64encode(
                    wp_ca.issuer_key_hash
                ).decode("ascii"),
            }
        ).encode("utf-8")
        shed_server.handle_request("POST", "/ct/v1/add-pre-chain", "", body)
    write_report = evaluate_write_path(metrics.snapshot())

    if args.status_out:
        payload = report.to_dict()
        payload["write_path"] = write_report.to_dict()
        _write_json_artifact(args.status_out, payload)
    return "\n".join(
        [
            f"CT monitoring status — seed {args.seed}, {rounds} poll rounds",
            "",
            report.render(),
            "",
            write_report.render(),
            "",
            f"feed: {feed.events_emitted} events emitted, "
            f"{delivered} delivered to 1 subscriber",
        ]
    )


def cmd_watch(args) -> str:
    """Live Fig 1a/1b/Table 1 aggregates from a streaming feed loop.

    Starts three empty logs, issues seeded precertificates into them
    day by day, and lets ``CertFeed.poll`` fold every batch into a
    :class:`~repro.dataset.LiveAnalytics` accumulator — the streaming
    path a real CT monitor runs, no corpus rebuild anywhere.  After
    the last round the folded aggregates are cross-checked against a
    batch recompute over the same entries (they must match exactly).
    ``--analytics-out FILE`` writes the version-1 JSON snapshot — the
    same payload a :class:`~repro.obs.export.TelemetryServer` serves
    at ``/analytics`` for a real loop.
    """
    from datetime import timedelta

    from repro.ct.feed import CertFeed
    from repro.ct.log import CTLog
    from repro.dataset import CertCorpus, LiveAnalytics, section2_graph
    from repro.util.timeutil import utc_datetime
    from repro.x509 import crypto
    from repro.x509.ca import CertificateAuthority, IssuanceRequest

    logs = [
        CTLog(
            name=f"Watch Log {i}",
            operator="Repro",
            key=crypto.KeyPair.generate(f"watch-log:{args.seed}:{i}", 256),
        )
        for i in range(3)
    ]
    cas = [
        CertificateAuthority(name=f"Watch CA {i}", key_bits=256)
        for i in range(3)
    ]
    live = LiveAnalytics(section2_graph(month="2018-04"), metrics=args.metrics)
    feed = CertFeed(
        logs, metrics=args.metrics, events=args.events, analytics=live
    )
    rounds = 6
    start = utc_datetime(2018, 4, 1, 9, 0)
    for round_no in range(rounds):
        now = start + timedelta(days=round_no)
        for c, ca in enumerate(cas):
            for n in range(c + 1):  # CA volumes differ -> visible shares
                ca.issue(
                    IssuanceRequest(
                        dns_names=(f"r{round_no}n{n}.watch{c}.example",)
                    ),
                    [logs[(round_no + n + c) % len(logs)]],
                    now + timedelta(minutes=n),
                )
        feed.poll(now)
    batch = LiveAnalytics(section2_graph(month="2018-04"))
    batch.fold_records(
        CertCorpus.from_logs(logs, with_names=False).iter_records()
    )
    snapshot = live.to_dict()
    if snapshot["sections"] != batch.to_dict()["sections"]:
        raise AssertionError(
            "incremental fold diverged from the batch recompute"
        )
    if args.analytics_out:
        _write_json_artifact(args.analytics_out, snapshot)
    return "\n".join(
        [
            f"CT live analytics — seed {args.seed}, {rounds} poll rounds",
            "",
            live.render(),
            "",
            "cross-check: incremental fold == batch recompute over "
            f"{live.records_folded} records in {live.batches_folded} batches",
        ]
    )


def cmd_projection(args) -> str:
    from repro.core.projection import project_adoption, render_projection

    share = args.scale if args.scale is not None else 0.3261
    return render_projection(project_adoption(share))


def _seeded_ct_log(seed: int, entries: int):
    """A CT log pre-populated with ``entries`` deterministic precerts."""
    from datetime import timedelta

    from repro.ct.log import CTLog
    from repro.util.timeutil import utc_datetime
    from repro.x509 import crypto
    from repro.x509.ca import CertificateAuthority, IssuanceRequest

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


def cmd_serve(args) -> str:
    """Serve a seeded CT log over RFC 6962 HTTP endpoints.

    Boots a :class:`~repro.ct.server.LogServer` on ``--host``/``--port``
    (port 0 picks an ephemeral port), prints the endpoint URLs
    immediately, then serves for ``--duration-s`` seconds (0 = until
    interrupted).  ``--metrics-out``/``--events-out`` attach the
    observability layer: every request lands in per-endpoint latency
    histograms, status counters, and ``log_server_request`` events.
    """
    import time as _time

    from repro.ct.server import LogServer

    log = _seeded_ct_log(args.seed, args.log_entries)
    server = LogServer(
        log,
        host=args.host,
        port=args.port,
        metrics=args.metrics,
        events=args.events,
        merge_interval=args.merge_interval,
        max_batch=args.max_batch,
    )
    server.start()
    base = server.log_url(log.name)
    mode = (
        f"batched writes, merge every {args.merge_interval}s"
        if args.merge_interval is not None
        else "per-entry writes"
    )
    print(
        f"serving {log.name!r} ({log.size} entries, {mode}) at {server.url}",
        flush=True,
    )
    for endpoint in (
        "get-sth",
        "get-entries",
        "get-proof-by-hash",
        "get-sth-consistency",
        "add-pre-chain",
    ):
        print(f"  {base}/ct/v1/{endpoint}", flush=True)
    try:
        if args.duration_s > 0:
            _time.sleep(args.duration_s)
        else:
            print("press Ctrl-C to stop", flush=True)
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    memo = server.memo_stats()
    hits = sum(int(stats["hits"]) for stats in memo.values())
    misses = sum(int(stats["misses"]) for stats in memo.values())
    lookups = hits + misses
    # A server stopped before any memoized request has zero lookups;
    # the rate is defined as 0.0 then, never a division by zero.
    hit_rate = hits / lookups if lookups else 0.0
    summary = (
        f"served {log.name!r}: tree size {log.size}, "
        f"memo hits {hits}, misses {misses}, hit rate {hit_rate:.0%}"
    )
    for slug, stats in sorted(server.sequencer_stats().items()):
        summary += (
            f"\nsequencer {slug}: {stats['merges']} merges, "
            f"{stats['entries_merged']} entries merged, "
            f"max batch {stats['max_batch_merged']}, "
            f"{stats['dedup_hits']} dedup hits"
        )
    return summary


def cmd_loadstorm(args) -> str:
    """Boot a served log and drive a seeded client storm against it.

    Seeds a log with ``--log-entries`` precertificates, serves it on an
    ephemeral port, expands the ``--browsers``/``--monitors``/
    ``--submitters`` population into deterministic plans, and runs them
    concurrently over real sockets with ``--executor`` workers.  Prints
    the storm report (reads/sec, p50/p99, submissions/sec); with
    ``--storm-out FILE`` also writes it as JSON.

    ``--lightweight-monitors N`` additionally runs a swarm of N
    verifiable light-weight monitors (proof subscription via
    ``get-batch-digest``) against the served log after the storm
    settles, reporting their wire cost and zero-miss coverage;
    ``--swarm-out FILE`` writes that report as JSON.
    """
    from datetime import datetime, timezone

    from repro.ct.server import LogServer
    from repro.workloads.loadgen import (
        LoadStormConfig,
        MonitorSwarm,
        MonitorSwarmConfig,
        plan_storm,
        plan_swarm_subscriptions,
        run_storm,
    )

    log = _seeded_ct_log(args.seed, args.log_entries)
    config = LoadStormConfig(
        seed=args.seed,
        browsers=args.browsers,
        monitors=args.monitors,
        submitters=args.submitters,
    )
    plans = plan_storm(config, log)
    swarm_summary = None
    with LogServer(
        log,
        host=args.host,
        metrics=args.metrics,
        events=args.events,
        merge_interval=args.merge_interval,
        max_batch=args.max_batch,
    ) as server:
        report = run_storm(
            plans,
            server.log_url(log.name),
            executor=args.executor,
            workers=args.workers if args.workers > 1 else 8,
        )
        server.drain_writes()
        if args.lightweight_monitors > 0:
            swarm_config = MonitorSwarmConfig(
                seed=args.seed, monitors=args.lightweight_monitors
            )
            domain_pool = [
                name
                for entry in log.entries
                for name in entry.certificate.dns_names()
            ]
            swarm = MonitorSwarm(
                server.log_url(log.name),
                log.name,
                plan_swarm_subscriptions(swarm_config, domain_pool),
                key=log.key,
            )
            matched = swarm.poll(datetime.now(timezone.utc))
            totals = swarm.wire_totals()
            swarm_summary = {
                "monitors": args.lightweight_monitors,
                "tree_size": log.size,
                "matched_observations": matched,
                "missed_subscribed": swarm.missed_subscribed(log),
                "findings": len(swarm.findings()),
                "wire_requests": totals["requests"],
                "wire_entries": totals["entries"],
                "wire_bytes": totals["bytes"],
            }
    if args.storm_out:
        _write_json_artifact(args.storm_out, report.to_dict())
    rendered = report.render()
    if swarm_summary is not None:
        if args.swarm_out:
            _write_json_artifact(args.swarm_out, swarm_summary)
        rendered += (
            f"\nLight-weight swarm — {swarm_summary['monitors']} monitors "
            f"over tree size {swarm_summary['tree_size']}:"
            f"\n  matched      {swarm_summary['matched_observations']:6d} "
            f"observations   {swarm_summary['missed_subscribed']} missed   "
            f"{swarm_summary['findings']} findings"
            f"\n  wire cost    {swarm_summary['wire_requests']:6d} requests   "
            f"{swarm_summary['wire_entries']} entry bodies   "
            f"{swarm_summary['wire_bytes']} bytes"
        )
    return rendered


def cmd_lifecycle(args) -> str:
    """Per-certificate lifecycle timelines reconstructed from spans.

    Boots a sequencer-backed :class:`~repro.ct.server.LogServer` with a
    seeded tracer, drives a seeded client storm against it with tracing
    on (every hop propagates the trace context through the
    ``X-Repro-Traceparent`` header), then polls a traced light-weight
    monitor subscribed to every submitted domain.  The resulting span
    events are assembled into a :class:`~repro.obs.TraceStore` and
    decomposed into the paper's Sec. 6 timeline — submit → SCT signed →
    merge/STH published → inclusion verified → first monitor detection
    — **from spans alone**.  The assembly is checked end to end: zero
    orphan spans (every server span's parent resolves to a recorded
    client span across the process boundary) and the replayed event log
    rebuilds an identical store.  ``--lifecycle-out FILE`` writes the
    timelines as JSON.
    """
    from datetime import datetime, timezone

    from repro.ct.monitor import HttpTransport, LightweightMonitor
    from repro.ct.server import LogServer
    from repro.ct.storage import certificate_from_dict
    from repro.obs import (
        EventLog,
        SpanTracer,
        TraceStore,
        certificate_lifecycles,
        read_events,
        render_lifecycles,
    )
    from repro.workloads.loadgen import LoadStormConfig, plan_storm, run_storm

    events = args.events if args.events is not None else EventLog(tail_size=16384)
    tracer = SpanTracer(seed=args.seed, name="lifecycle", events=events)
    log = _seeded_ct_log(args.seed, args.log_entries)
    merge_interval = (
        args.merge_interval if args.merge_interval is not None else 0.05
    )
    config = LoadStormConfig(
        seed=args.seed,
        browsers=args.browsers,
        monitors=args.monitors,
        submitters=args.submitters,
    )
    plans = plan_storm(config, log)
    submitted_domains = sorted(
        {
            name
            for plan in plans
            for op in plan.ops
            if op.kind == "add_pre_chain" and op.chain
            for name in certificate_from_dict(dict(op.chain[0])).dns_names()
        }
    )
    with LogServer(
        log,
        host=args.host,
        metrics=args.metrics,
        events=events,
        merge_interval=merge_interval,
        max_batch=args.max_batch,
        tracer=tracer,
    ) as server:
        report = run_storm(
            plans,
            server.log_url(log.name),
            executor=args.executor,
            workers=args.workers if args.workers > 1 else 8,
            trace_seed=args.seed,
        )
        server.drain_writes()
        monitor = LightweightMonitor(
            "lifecycle-monitor",
            submitted_domains or ("none.example",),
            key=log.key,
            tracer=tracer,
        )
        transport = HttpTransport(
            server.log_url(log.name),
            log.name,
            timeout=30.0,
            client_id="lifecycle-monitor",
            tracer=tracer,
        )
        monitor.poll(transport, datetime.now(timezone.utc))
        transport.close()
    # Ship every storm worker's client spans home: record_remote files
    # them on the coordinating tracer *and* re-emits them as ``span``
    # events, so the event log is the complete cross-process record.
    for result in report.results:
        for record in result.spans:
            tracer.record_remote(record)
    store = TraceStore()
    store.add_many(tracer.to_records())
    orphans = store.orphan_spans()
    if args.events_out:
        replayed = TraceStore.from_events(read_events(args.events_out))
    else:
        replayed = TraceStore.from_events(events.tail(events.emitted))
    replay_identical = replayed == store
    lifecycles = certificate_lifecycles(store)
    complete = sum(1 for item in lifecycles if item["complete"])
    if args.lifecycle_out:
        _write_json_artifact(
            args.lifecycle_out,
            {
                "version": 1,
                "seed": args.seed,
                "certificates": lifecycles,
                "complete": complete,
                "traces": len(store.trace_ids()),
                "spans": len(store),
                "orphan_spans": len(orphans),
                "replay_identical": replay_identical,
            },
        )
    lines = [
        f"Certificate lifecycle — seed {args.seed}, "
        f"{config.clients} clients, merge every {merge_interval}s",
        "",
        render_lifecycles(lifecycles),
        "",
        f"traces: {len(store.trace_ids())}  spans: {len(store)}  "
        f"orphans: {len(orphans)}  "
        f"replay: {'identical' if replay_identical else 'DIVERGED'}",
    ]
    if orphans or not replay_identical:
        raise AssertionError(
            f"trace assembly broken: {len(orphans)} orphan spans, "
            f"replay identical={replay_identical}"
        )
    return "\n".join(lines)


def cmd_gossip(args) -> str:
    """Demonstrate wire-level STH gossip catching a split-view log.

    Seeds a log, builds a fully servable equivocating twin (same size,
    diverging tail), and mounts both as one
    :class:`~repro.ct.server.SplitView`: clients on one side of the
    partition read the honest view, clients on the other side the twin.
    A read-only seeded storm (browsers + monitors, no submitters) then
    hits the server, every client's fetched STH is gossiped into a
    :class:`~repro.ct.auditor.GossipPool`, and the detected
    equivocation surfaces as split-view incidents.  ``--gossip-out
    FILE`` writes the storm report plus the incidents as JSON.
    """
    from repro.ct.auditor import GossipPool, make_split_view_log
    from repro.ct.server import LogServer, SplitView
    from repro.workloads.incidents import split_view_incidents
    from repro.workloads.loadgen import (
        LoadStormConfig,
        gossip_storm_sths,
        plan_storm,
        run_storm,
    )

    log = _seeded_ct_log(args.seed, args.log_entries)
    twin = make_split_view_log(log, fork_at=log.size // 2, pad_to=log.size)
    config = LoadStormConfig(
        seed=args.seed,
        browsers=args.browsers,
        monitors=args.monitors,
        submitters=0,
    )
    plans = plan_storm(config, log)
    with LogServer(
        SplitView(log, twin),
        host=args.host,
        metrics=args.metrics,
        events=args.events,
    ) as server:
        report = run_storm(
            plans,
            server.log_url(log.name),
            executor=args.executor,
            workers=args.workers if args.workers > 1 else 8,
        )
    pool = GossipPool(metrics=args.metrics, events=args.events)
    gossip_storm_sths(report, pool, log.name)
    incidents = split_view_incidents(pool)
    if args.gossip_out:
        _write_json_artifact(
            args.gossip_out,
            {
                "storm": report.to_dict(),
                "sths_gossiped": pool.sths_gossiped,
                "split_view_incidents": [
                    incident.to_dict() for incident in incidents
                ],
            },
        )
    lines = [
        report.render(),
        f"Gossip — {pool.sths_gossiped} STHs gossiped by "
        f"{config.clients} clients:",
    ]
    if incidents:
        for incident in incidents:
            lines.append(
                f"  SPLIT VIEW detected on {incident.log_name!r} at tree "
                f"size {incident.tree_size}: {incident.first_reporter} saw "
                f"{incident.first_root[:16]}…, {incident.second_reporter} "
                f"saw {incident.second_root[:16]}…"
            )
    else:
        lines.append("  no equivocation detected")
    return "\n".join(lines)


COMMANDS: Dict[str, Callable] = {
    "fig1a": cmd_fig1a,
    "fig1b": cmd_fig1b,
    "fig1c": cmd_fig1c,
    "sec2": cmd_sec2,
    "fig2": cmd_fig2,
    "table1": cmd_table1,
    "sec32": cmd_sec32,
    "sec33": cmd_sec33,
    "sec34": cmd_sec34,
    "table2": cmd_table2,
    "sec43": cmd_sec43,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "threatintel": cmd_threatintel,
    "projection": cmd_projection,
    "status": cmd_status,
    "watch": cmd_watch,
    "serve": cmd_serve,
    "loadstorm": cmd_loadstorm,
    "lifecycle": cmd_lifecycle,
    "gossip": cmd_gossip,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of the IMC'18 CT paper.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(COMMANDS) + ["list"],
        help="which table/figure/section to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="simulated:real ratio (artifact-specific default)",
    )
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sharded analysis passes "
        "(1 = serial fallback; outputs are identical either way)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="entries per shard for parallel analysis (default 4096)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retries per failed shard before giving up (0 disables; "
        "transient faults like log overloads are retried with "
        "exponential backoff, seeded jitter)",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base backoff delay in seconds between shard retries "
        "(doubles per attempt; default 0.05)",
    )
    parser.add_argument(
        "--on-error",
        choices=["raise", "degrade"],
        default="raise",
        help="what to do when a shard exhausts its retries: abort with "
        "the failing shard named (raise) or finish on partial results "
        "with a degradation report (degrade)",
    )
    parser.add_argument(
        "--ablations",
        action="store_true",
        help="include methodology ablations where supported (sec43)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write a JSON metrics snapshot (counters, gauges, "
        "histograms from the pipeline/retry layer) to FILE after the "
        "artifact is rendered; stdout is unchanged",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans around the run and print the span tree to "
        "stderr (stdout is unchanged)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="record spans around the run and write the span tree as "
        "JSON to FILE (combinable with --trace; stdout is unchanged)",
    )
    parser.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="append a structured JSONL event log (run/shard lifecycle, "
        "retries, degradation, per-log fetch outcomes) to FILE, "
        "flushed line-by-line while the run is live; stdout is "
        "unchanged",
    )
    parser.add_argument(
        "--status-out",
        metavar="FILE",
        default=None,
        help="(status only) also write the health report as JSON to "
        "FILE — the same payload the telemetry server serves at "
        "/health",
    )
    parser.add_argument(
        "--analytics-out",
        metavar="FILE",
        default=None,
        help="(watch only) also write the live-analytics snapshot as "
        "JSON to FILE — the same payload the telemetry server serves "
        "at /analytics",
    )
    server_group = parser.add_argument_group(
        "log server / load storm options (serve, loadstorm)"
    )
    server_group.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for the served log (default 127.0.0.1)",
    )
    server_group.add_argument(
        "--port",
        type=int,
        default=0,
        help="port for `serve` (0 = ephemeral; loadstorm always uses "
        "an ephemeral port)",
    )
    server_group.add_argument(
        "--duration-s",
        type=float,
        default=0.0,
        help="(serve only) seconds to serve before exiting "
        "(0 = run until Ctrl-C)",
    )
    server_group.add_argument(
        "--log-entries",
        type=int,
        default=32,
        help="precertificates to seed the served log with (default 32)",
    )
    server_group.add_argument(
        "--browsers",
        type=int,
        default=6,
        help="(loadstorm) SCT-auditing browser clients (default 6)",
    )
    server_group.add_argument(
        "--monitors",
        type=int,
        default=2,
        help="(loadstorm) tailing monitor clients (default 2)",
    )
    server_group.add_argument(
        "--submitters",
        type=int,
        default=2,
        help="(loadstorm) bursty CA submitter clients (default 2)",
    )
    server_group.add_argument(
        "--executor",
        choices=["thread", "process", "serial"],
        default="thread",
        help="(loadstorm) client concurrency mode (default thread)",
    )
    server_group.add_argument(
        "--merge-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="(serve, loadstorm) batch writes through the MMD sequencer, "
        "merging pending submissions every SECONDS (default: per-entry "
        "writes, no sequencer)",
    )
    server_group.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="(serve, loadstorm) max submissions folded into the Merkle "
        "tree per merge when --merge-interval is set (default 256)",
    )
    server_group.add_argument(
        "--storm-out",
        metavar="FILE",
        default=None,
        help="(loadstorm) also write the storm report as JSON to FILE",
    )
    server_group.add_argument(
        "--lightweight-monitors",
        type=int,
        default=0,
        metavar="N",
        help="(loadstorm) after the storm, run N verifiable light-weight "
        "monitors (get-batch-digest proof subscription) against the "
        "served log and report their wire cost (default 0 = off)",
    )
    server_group.add_argument(
        "--swarm-out",
        metavar="FILE",
        default=None,
        help="(loadstorm) also write the light-weight swarm report as "
        "JSON to FILE",
    )
    server_group.add_argument(
        "--lifecycle-out",
        metavar="FILE",
        default=None,
        help="(lifecycle) also write the per-certificate lifecycle "
        "timelines (reconstructed from span events) as JSON to FILE",
    )
    server_group.add_argument(
        "--gossip-out",
        metavar="FILE",
        default=None,
        help="(gossip) also write the storm report + detected split-view "
        "incidents as JSON to FILE",
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    from repro.obs import EventLog, MetricsRegistry, SpanTracer, maybe_span

    args = build_parser().parse_args(argv)
    args.metrics = MetricsRegistry() if args.metrics_out else None
    args.events = EventLog(args.events_out) if args.events_out else None
    # Seeded IDs + the shared event log make traced runs reproducible
    # and let ``--events-out`` carry ``span`` events for later replay.
    args.tracer = (
        SpanTracer(seed=args.seed, name="cli", events=args.events)
        if (args.trace or args.trace_out)
        else None
    )
    try:
        if args.artifact == "list":
            print("available artifacts:")
            for name in sorted(COMMANDS):
                print(f"  {name}")
            return 0
        if args.events is not None:
            args.events.emit(
                "run_start",
                artifact=args.artifact,
                seed=args.seed,
                workers=args.workers,
            )
        try:
            with maybe_span(args.tracer, f"cli.{args.artifact}", seed=args.seed):
                rendered = COMMANDS[args.artifact](args)
        except Exception as exc:
            if args.events is not None:
                args.events.emit(
                    "run_finish", artifact=args.artifact, ok=False, error=repr(exc)
                )
            raise
        print(rendered)
        if args.events is not None:
            args.events.emit("run_finish", artifact=args.artifact, ok=True)
        if args.metrics is not None:
            _write_json_artifact(args.metrics_out, args.metrics.snapshot().to_dict())
        if args.trace_out:
            _write_json_artifact(args.trace_out, args.tracer.to_dicts())
        if args.trace:
            print(args.tracer.render(), file=sys.stderr)
    except BrokenPipeError:  # e.g. piped into `head`
        return 0
    finally:
        if args.events is not None:
            args.events.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
