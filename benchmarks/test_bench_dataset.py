"""Columnar corpus build cost and the fused-traversal payoff.

Measurements over the Figure 1 workload at benchmark scale:

* corpus construction throughput (records/s and resident bytes per
  record, straight from the ``dataset.*`` build metrics);
* the fused §2 traversal (growth + rates + matrix, the ``sec2``
  artifact) versus the three single-pass scans it replaces — same
  graph machinery either way, so the delta is traversal fusion itself;
* the same comparison with the §4 leakage pass added (reported, not
  gated: the PSL fold dominates per-record cost there, so fusion's
  saved traversals are a smaller share of the total).

The fused §2 pass must beat the summed per-section scans by
``FUSION_TARGET`` (outputs asserted identical first); every timing is
best-of-``TRIALS`` and the gate is skipped in benchmark-smoke mode
where timing is meaningless.
"""

import json
import threading
import time
import urllib.request

from conftest import EVOLUTION_SCALE, record_artifact

from repro.dataset import (
    CertCorpus,
    LiveAnalytics,
    PassGraph,
    growth_extractor,
    growth_pass,
    leakage_extractor,
    leakage_pass,
    matrix_extractor,
    matrix_pass,
    rates_pass,
    section2_graph,
    sections_graph,
)
from repro.obs import MetricsRegistry, TelemetryServer
from repro.workloads.loadgen import LoadStormConfig
from repro.workloads.scenario import Scenario

FUSION_TARGET = 1.5
TRIALS = 2

#: The append path must beat per-poll full recomputes by this much.
APPEND_TARGET = 10.0
APPEND_BATCHES = 40
SCRAPE_EVERY = 8


def _single_pass(extractor, section):
    """One section as its own corpus scan: the layout fusion replaces."""
    graph = PassGraph().add_extractor(extractor).add_pass(section)
    return lambda corpus: graph.run(corpus.iter_records())[section.name]


def _timed(fn):
    """(result, best-of-TRIALS seconds) — min damps scheduler noise."""
    best = float("inf")
    for _ in range(TRIALS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_bench_dataset_fused_traversal(evolution_run, request):
    metrics = MetricsRegistry()
    corpus, build_seconds = _timed(
        lambda: CertCorpus.from_logs(evolution_run.logs, metrics=metrics)
    )
    snapshot = metrics.snapshot()
    bytes_per_record = snapshot.gauge("dataset.bytes_per_record")

    sections = {
        "growth": _single_pass(growth_extractor(), growth_pass()),
        "rates": _single_pass(growth_extractor(), rates_pass()),
        "matrix": _single_pass(matrix_extractor("2018-04"), matrix_pass()),
        "leakage": _single_pass(leakage_extractor(), leakage_pass()),
    }
    separate = {}
    separate_seconds = {}
    for name, section in sections.items():
        separate[name], separate_seconds[name] = _timed(
            lambda section=section: section(corpus)
        )

    sec2_graph = section2_graph()
    sec2, sec2_seconds = _timed(
        lambda: sec2_graph.run(corpus.iter_records())
    )
    all_graph = sections_graph()
    fused_all, all_seconds = _timed(
        lambda: all_graph.run(corpus.iter_records())
    )

    # Fusion must not change a bit of any section result.
    for result in (sec2, fused_all):
        assert result["growth"] == separate["growth"]
        assert result["rates"] == separate["rates"]
        assert result["matrix"].cells() == separate["matrix"].cells()
    assert fused_all["leakage"] == separate["leakage"]

    sec2_summed = sum(
        separate_seconds[name] for name in ("growth", "rates", "matrix")
    )
    all_summed = sum(separate_seconds.values())
    sec2_ratio = sec2_summed / sec2_seconds if sec2_seconds else 0.0
    all_ratio = all_summed / all_seconds if all_seconds else 0.0

    lines = [
        "Columnar corpus + fused traversal "
        f"(scale 1:{int(1 / EVOLUTION_SCALE)}, {len(corpus)} records)",
        f"  corpus build        {build_seconds:8.3f} s   "
        f"{len(corpus) / build_seconds:10.0f} records/s, "
        f"{bytes_per_record:.0f} B/record",
        *(
            f"  {name:<10} scan     {seconds:8.3f} s"
            for name, seconds in separate_seconds.items()
        ),
        f"  fused Sec2 (3 passes) {sec2_seconds:6.3f} s vs "
        f"{sec2_summed:.3f} s summed -> {sec2_ratio:.2f}x",
        f"  fused all  (4 passes) {all_seconds:6.3f} s vs "
        f"{all_summed:.3f} s summed -> {all_ratio:.2f}x",
    ]
    record_artifact(
        "dataset",
        "\n".join(lines),
        data={
            "records": len(corpus),
            "build_seconds": build_seconds,
            "bytes_per_record": bytes_per_record,
            "approx_bytes": corpus.approx_bytes(),
            "separate_seconds": separate_seconds,
            "sec2_summed_seconds": sec2_summed,
            "sec2_fused_seconds": sec2_seconds,
            "sec2_fusion_ratio": sec2_ratio,
            "all_summed_seconds": all_summed,
            "all_fused_seconds": all_seconds,
            "all_fusion_ratio": all_ratio,
            "metrics": snapshot.to_dict(),
        },
    )

    smoke = request.config.getoption("--benchmark-disable", default=False)
    if not smoke:
        assert sec2_ratio >= FUSION_TARGET, (
            f"fused Sec2 traversal must be >= {FUSION_TARGET}x the summed "
            f"per-section scans, measured {sec2_ratio:.2f}x"
        )


def _poll_batches(logs, count):
    """The evolution entries as ``count`` ordered poll batches of pairs."""
    pairs = [
        (log.name, entry)
        for log in logs.values()
        for entry in log.entries
    ]
    size = max(1, -(-len(pairs) // count))
    return [pairs[i : i + size] for i in range(0, len(pairs), size)]


def _append_pass(batches, on_batch=None):
    """Fold every batch through the streaming path; timed.

    Returns ``(live, seconds)`` where ``seconds`` covers the full
    incremental pipeline: columnar append + per-delta graph fold.
    """
    corpus = CertCorpus.empty()
    live = LiveAnalytics()
    start = time.perf_counter()
    for index, batch in enumerate(batches):
        live.fold_delta(corpus.append_batch(batch, with_names=False))
        if on_batch is not None:
            on_batch(index)
    return live, time.perf_counter() - start


#: The storm the append leg folds beside.
APPEND_STORM = Scenario(
    log_entries=10,
    storm=LoadStormConfig(
        seed=18, browsers=2, monitors=1, submitters=1, audits_per_browser=3,
        pages_per_monitor=2, page_size=4, submissions_per_submitter=3,
    ),
    workers=4,
)


def test_bench_dataset_append_path(evolution_run, request):
    """Streaming append+fold vs per-poll batch recompute, served live.

    The rebuild leg models a naive monitor: after every poll it
    rebuilds the corpus over the whole prefix and reruns the Section 2
    graph from scratch.  The append leg is the streaming path —
    ``append_batch`` plus ``LiveAnalytics.fold_delta`` per poll — and
    must come out ``APPEND_TARGET`` times cheaper over the same
    ``APPEND_BATCHES`` polls (results asserted identical first).

    The first append trial additionally runs "under fire": a telemetry
    server exposes the folding accumulator's ``GET /analytics`` while a
    seeded load storm hammers a ``LogServer`` in the background, and
    the benchmark scrapes the endpoint between folds — pinning that
    live serving works mid-storm.  Timing takes best-of-trials, so the
    gate compares clean runs.
    """
    batches = _poll_batches(evolution_run.logs, APPEND_BATCHES)

    # -- append leg, trial 1: folding while serving during a storm ----------
    registry = MetricsRegistry()
    scrapes = []
    served_live = {}

    def scrape(index):
        if (index + 1) % SCRAPE_EVERY:
            return
        url = served_live["url"] + "/analytics"
        with urllib.request.urlopen(url, timeout=5) as response:
            assert response.status == 200
            scrapes.append(json.loads(response.read().decode()))

    live = LiveAnalytics()
    # Leaving the world checks the storm: no transport error, every
    # read verified.
    with APPEND_STORM.serve() as world, TelemetryServer(
        registry.snapshot, analytics_source=live.to_dict
    ) as telemetry:
        served_live["url"] = telemetry.url
        storm_thread = threading.Thread(target=world.storm)
        storm_thread.start()
        corpus = CertCorpus.empty()
        start = time.perf_counter()
        for index, batch in enumerate(batches):
            live.fold_delta(corpus.append_batch(batch, with_names=False))
            scrape(index)
        storm_seconds = time.perf_counter() - start
        storm_thread.join(timeout=60)
    live_storm = live
    report = world.report
    # Every scrape is a well-formed version-1 snapshot; the folded
    # record count grows monotonically across them.
    assert len(scrapes) == APPEND_BATCHES // SCRAPE_EVERY
    assert all(snap["version"] == 1 for snap in scrapes)
    folded = [snap["records_folded"] for snap in scrapes]
    assert folded == sorted(folded)
    assert folded[-1] == live_storm.records_folded

    # -- append leg, trial 2: clean (no concurrent serving) -----------------
    live_clean, clean_seconds = _append_pass(batches)
    append_seconds = min(storm_seconds, clean_seconds)

    # -- rebuild leg: full recompute after every poll ------------------------
    graph = section2_graph()
    prefix = []
    rebuild_results = None
    start = time.perf_counter()
    for batch in batches:
        prefix.extend(batch)
        rebuilt = CertCorpus.empty()
        rebuilt.append_batch(prefix, with_names=False)
        rebuild_results = graph.run(rebuilt.iter_records())
    rebuild_seconds = time.perf_counter() - start

    # Identical outputs before any timing claim: both append trials and
    # the final rebuild agree bit-for-bit.
    for results in (live_storm.results(), live_clean.results()):
        assert results["growth"] == rebuild_results["growth"]
        assert list(results["growth"]) == list(rebuild_results["growth"])
        assert results["rates"] == rebuild_results["rates"]
        assert (
            results["matrix"].cells() == rebuild_results["matrix"].cells()
        )
    assert json.dumps(live_storm.to_dict(), sort_keys=True) == json.dumps(
        live_clean.to_dict(), sort_keys=True
    )

    speedup = rebuild_seconds / append_seconds if append_seconds else 0.0
    records = live_clean.records_folded
    lines = [
        "Streaming append path vs per-poll recompute "
        f"(scale 1:{int(1 / EVOLUTION_SCALE)}, {records} records, "
        f"{len(batches)} polls)",
        f"  append+fold (clean)   {clean_seconds:8.3f} s",
        f"  append+fold (storm)   {storm_seconds:8.3f} s   "
        f"{len(scrapes)} /analytics scrapes, "
        f"{report.reads_ok} storm reads served alongside",
        f"  rebuild every poll    {rebuild_seconds:8.3f} s",
        f"  speedup               {speedup:8.1f} x  (gate >= "
        f"{APPEND_TARGET}x)",
    ]
    record_artifact(
        "dataset_append",
        "\n".join(lines),
        data={
            "version": 1,
            "records": records,
            "batches": len(batches),
            "analytics_scrapes": len(scrapes),
            "storm_reads_ok": report.reads_ok,
            "storm_submissions_ok": report.submissions_ok,
            "append_seconds": append_seconds,
            "append_clean_seconds": clean_seconds,
            "append_storm_seconds": storm_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": speedup,
            "gate_min_speedup": APPEND_TARGET,
        },
    )

    smoke = request.config.getoption("--benchmark-disable", default=False)
    if not smoke:
        assert speedup >= APPEND_TARGET, (
            f"streaming append must be >= {APPEND_TARGET}x cheaper than "
            f"per-poll recompute, measured {speedup:.2f}x"
        )
