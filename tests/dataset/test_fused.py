"""Fused traversal == per-section references, serial and pooled.

The tentpole acceptance bar: every pass registered on the graph comes
out bit-identical to its standalone per-section scan, from the same
corpus, whether the engine runs inline or on a process/thread pool —
and the obs counters prove each shard was walked exactly once for all
passes together.
"""

import json
import os
import pickle
from datetime import date

import pytest

from repro.bro.analyzer import BroSctAnalyzer
from repro.core import adoption, evolution, leakage
from repro.ct.storage import dump_log
from repro.dataset import (
    CertCorpus,
    PassGraph,
    adoption_extractor,
    adoption_pass,
    analyze,
    leakage_name_extractor,
    leakage_pass,
    section2_graph,
    sections_graph,
)
from repro.obs import MetricsRegistry
from repro.pipeline import PipelineEngine
from repro.pipeline.shard import plan_sequence_shards
from repro.workloads.ca_profiles import CaLoggingWorkload
from repro.workloads.traffic import UplinkTrafficWorkload

EXECUTORS = (
    [os.environ["REPRO_EXECUTOR"]]
    if os.environ.get("REPRO_EXECUTOR")
    else ["process", "thread"]
)


@pytest.fixture(scope="module")
def logs():
    run = CaLoggingWorkload(scale=2e-6, end=date(2018, 4, 30), seed=7).run()
    return run.logs


@pytest.fixture(scope="module")
def corpus(logs):
    return CertCorpus.from_logs(logs)


@pytest.fixture(scope="module")
def reference(logs):
    """Per-section results from the independent reference algebra."""
    records = list(evolution.growth_records(logs.values()))
    firsts = evolution.growth_map(records)
    names = [
        name
        for log in logs.values()
        for entry in log.entries
        for name in entry.certificate.dns_names()
    ]
    return {
        "growth": evolution.growth_reduce([firsts]),
        "rates": evolution.rates_reduce([firsts]),
        "matrix": evolution.matrix_map(
            list(evolution.matrix_records(logs.values())), "2018-04"
        ),
        "leakage": leakage.analyze_names(names),
    }


def _assert_sections_match(result, reference):
    assert result["growth"] == reference["growth"]
    assert list(result["growth"]) == list(reference["growth"])
    assert result["rates"] == reference["rates"]
    assert result["matrix"].cells() == reference["matrix"].cells()
    assert result["matrix"].rows() == reference["matrix"].rows()
    assert result["matrix"].cols() == reference["matrix"].cols()
    assert result["leakage"] == reference["leakage"]
    assert (
        result["leakage"].top_labels(10) == reference["leakage"].top_labels(10)
    )


class TestFusedEqualsReference:
    def test_serial_single_traversal(self, corpus, reference):
        result = analyze(
            corpus, sections_graph(), PipelineEngine(workers=1)
        )
        _assert_sections_match(result, reference)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pooled_matches_serial_bit_for_bit(
        self, corpus, reference, executor
    ):
        engine = PipelineEngine(workers=3, shard_size=512, executor=executor)
        result = analyze(corpus, sections_graph(), engine)
        _assert_sections_match(result, reference)

    def test_date_window_passes_through(self, logs, corpus):
        window = dict(start=date(2017, 1, 1), end=date(2018, 3, 31))
        engine = PipelineEngine(workers=3, shard_size=512)
        result = analyze(
            corpus, section2_graph(start=window["start"], end=window["end"]),
            engine,
        )
        assert result["growth"] == evolution.cumulative_precert_growth(
            logs, **window
        )


class TestTraversalAccounting:
    def test_each_shard_traversed_exactly_once(self, corpus):
        """However many passes are fused, shard traversals == shards."""
        metrics = MetricsRegistry()
        engine = PipelineEngine(
            workers=3, shard_size=512, executor="thread", metrics=metrics
        )
        graph = sections_graph()
        assert graph.traversals_fused() == 4
        analyze(corpus, graph, engine)
        shards = len(plan_sequence_shards(len(corpus), 512))
        snap = metrics.snapshot()
        assert snap.counter("dataset.shard_traversals") == shards
        assert snap.counter("dataset.records_scanned") == len(corpus)
        assert (
            snap.counter("dataset.separate_traversals_avoided")
            == 3 * shards
        )

    def test_serial_run_is_one_traversal(self, corpus):
        metrics = MetricsRegistry()
        engine = PipelineEngine(workers=1, metrics=metrics)
        analyze(corpus, sections_graph(), engine)
        snap = metrics.snapshot()
        assert snap.counter("dataset.shard_traversals") == 1
        assert snap.counter("dataset.records_scanned") == len(corpus)


class TestEvolutionSectionsDriver:
    def test_matches_single_pass_drivers(self, logs):
        engine = PipelineEngine(workers=3, shard_size=512, executor="thread")
        fused = analyze(
            CertCorpus.from_logs(logs, with_names=False),
            section2_graph("2018-04"),
            engine,
        )
        assert fused["growth"] == evolution.cumulative_precert_growth(logs)
        assert fused["rates"] == evolution.relative_daily_rates(logs)
        assert (
            fused["matrix"].cells()
            == evolution.ca_log_matrix(logs, "2018-04").cells()
        )


class TestAnalyzeRecords:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fqdn_stream_equals_serial_leakage(self, corpus, executor):
        names = [name for row in corpus.names for name in row]
        graph = PassGraph().add_extractor(leakage_name_extractor())
        graph.add_pass(leakage_pass())
        engine = PipelineEngine(workers=3, shard_size=256, executor=executor)
        result = analyze(names, graph, engine)
        assert result["leakage"] == leakage.analyze_names(names)


class TestAdoptionPayloadIsPlainData:
    """Satellite: shard payloads carry AnalyzerConfig, not the analyzer."""

    def test_graph_pickles_without_an_analyzer(self):
        workload = UplinkTrafficWorkload(connections_per_day=60, seed=42)
        analyzer = BroSctAnalyzer(workload.logs)
        graph = PassGraph().add_extractor(
            adoption_extractor(analyzer.config())
        )
        graph.add_pass(adoption_pass())
        payload = pickle.dumps(graph)
        assert b"BroSctAnalyzer" not in payload

    def test_rebuilt_analyzer_observes_identically(self):
        workload = UplinkTrafficWorkload(connections_per_day=40, seed=9)
        analyzer = BroSctAnalyzer(workload.logs)
        rebuilt = BroSctAnalyzer.from_config(analyzer.config())
        connections = list(workload.stream())
        serial = adoption.aggregate(analyzer.analyze_stream(connections))
        assert (
            adoption.aggregate(rebuilt.analyze_stream(connections)) == serial
        )


class TestHarvestSections:
    def test_streamed_harvest_matches_in_memory_fused(self, logs, tmp_path):
        name = next(iter(logs))
        path = tmp_path / "harvest.jsonl"
        dump_log(logs[name], path)
        engine = PipelineEngine(workers=3, shard_size=256, executor="thread")
        streamed = analyze(CertCorpus.from_stored(path), sections_graph(), engine)
        in_memory = analyze(
            CertCorpus.from_logs([logs[name]]), sections_graph(), engine
        )
        assert streamed["growth"] == in_memory["growth"]
        assert streamed["rates"] == in_memory["rates"]
        assert streamed["matrix"].cells() == in_memory["matrix"].cells()
        assert streamed["leakage"] == in_memory["leakage"]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_checkpointed_harvest_and_live_log_match_in_memory(
        self, logs, tmp_path, executor
    ):
        name = next(iter(logs))
        path = tmp_path / "harvest.jsonl"
        dump_log(logs[name], path)
        engine = PipelineEngine(workers=3, shard_size=256, executor=executor)
        in_memory = analyze(
            CertCorpus.from_logs([logs[name]]), sections_graph(), engine
        )
        cold = analyze(
            CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
        )
        resumed = analyze(
            CertCorpus.from_stored(path), sections_graph(), engine, checkpoint=True
        )
        live = analyze(logs[name], sections_graph(), engine)
        for result in (cold, resumed, live):
            _assert_sections_match(result, in_memory)


class TestPartialCodecs:
    def test_sections_partials_survive_json(self, corpus, reference):
        graph = sections_graph()
        result = graph.run_shard(corpus.iter_records())
        payload = json.loads(json.dumps(graph.encode_shard(result)))
        decoded = graph.reduce([graph.decode_shard(payload).partials])
        _assert_sections_match(decoded, reference)
