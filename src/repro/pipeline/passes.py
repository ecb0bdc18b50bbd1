"""The paper's analysis passes, driven through the fused dataset layer.

Each driver materializes the shared columnar
:class:`repro.dataset.CertCorpus` (or a plain record list for stream
passes), registers the section's extractor/merger pair on a
:class:`repro.dataset.PassGraph`, and hands zero-copy corpus views to
the engine.  Serial (``--workers 1``) is the single-shard special case
of the same fold/reduce decomposition, so ``--workers N`` is asserted
(by the test suite) to match it bit-for-bit.

:func:`evolution_sections` is the fused entry point: Figures 1a-1c
from **one traversal per shard** instead of three separate scans.

Task payloads carry plain data only — graphs built from module-level
functions, materialized view slices, the analyzer's plain
:class:`~repro.bro.analyzer.AnalyzerConfig` — never live analyzers or
log objects.
"""

from __future__ import annotations

import sys
from datetime import date
from typing import Any, Dict, Iterable, Optional

from repro.bro.analyzer import BroSctAnalyzer
from repro.core import adoption, leakage
from repro.ct.log import CTLog
from repro.dataset import (
    CertCorpus,
    PassGraph,
    adoption_extractor,
    adoption_pass,
    analyze_corpus,
    analyze_records,
    leakage_name_extractor,
    leakage_pass,
    section2_graph,
)
from repro.dnscore.psl import PublicSuffixList
from repro.pipeline.engine import PipelineEngine
from repro.resilience.degrade import DegradedResult
from repro.tls.connection import TlsConnection

# -- shared plumbing --------------------------------------------------------


def _unwrap(result: Any) -> Any:
    """Unwrap a degrading engine's result so passes keep their shape.

    These passes render straight into the paper's tables/figures, so a
    :class:`DegradedResult` collapses to its value; a non-empty report
    (shards actually lost) is surfaced on stderr rather than silently
    discarded.  Callers that need the report programmatically use
    ``engine.map`` or the harvest entry points instead.
    """
    if isinstance(result, DegradedResult):
        if not result.report.ok:
            print(f"[degraded] {result.report.summary()}", file=sys.stderr)
        return result.value
    return result


def _logs_corpus(logs: Dict[str, CTLog], engine: PipelineEngine) -> CertCorpus:
    # §2 passes never read the names column; skip it to keep the
    # corpus (and every pickled view slice) small.
    return CertCorpus.from_logs(logs, with_names=False, metrics=engine.metrics)


# -- pass drivers ----------------------------------------------------------


def evolution_sections(
    logs: Dict[str, CTLog],
    month: str = "2018-04",
    engine: Optional[PipelineEngine] = None,
    *,
    start: Optional[date] = None,
    end: Optional[date] = None,
) -> Dict[str, Any]:
    """Figures 1a-1c fused: one corpus traversal per shard for all three.

    Returns ``{"growth": ..., "rates": ..., "matrix": ...}``, each value
    bit-identical to its serial :mod:`repro.core.evolution` result
    (``cumulative_precert_growth`` over ``start``/``end``,
    ``relative_daily_rates``, ``ca_log_matrix`` for ``month``) — the
    ``growth`` and ``rates`` passes even share one extractor state, so
    the fused run folds strictly less work than three separate scans
    (``dataset.separate_traversals_avoided`` counts the difference when
    the engine carries a metrics registry).
    """
    engine = engine or PipelineEngine()
    graph = section2_graph(month, start=start, end=end)
    result = analyze_corpus(_logs_corpus(logs, engine), graph, engine)
    return _unwrap(result)


def traffic_adoption(
    connections: Iterable[TlsConnection],
    analyzer: BroSctAnalyzer,
    engine: Optional[PipelineEngine] = None,
) -> adoption.AdoptionStats:
    """Figure 2 / Table 1 accounting via the engine.

    Equals ``adoption.aggregate(analyzer.analyze_stream(connections))``:
    every aggregate field is a weighted sum, so chunk aggregates merge
    exactly.  Shard payloads carry the analyzer's plain
    :class:`~repro.bro.analyzer.AnalyzerConfig`; each worker rebuilds
    its own analyzer (fresh identity caches) from it.
    """
    engine = engine or PipelineEngine()
    if engine.serial:
        # Keep the stream lazy and the caller's warm analyzer caches.
        return adoption.aggregate(analyzer.analyze_stream(connections))
    materialized = list(connections)
    graph = PassGraph().add_extractor(adoption_extractor(analyzer.config()))
    graph.add_pass(adoption_pass())
    result = analyze_records(
        materialized, graph, engine, source="connections"
    )
    return _unwrap(result)["adoption"]


def leakage_names(
    names: Iterable[str],
    engine: Optional[PipelineEngine] = None,
    psl: Optional[PublicSuffixList] = None,
) -> leakage.LeakageStats:
    """Table 2 / Section 4.3 FQDN pass via the engine.

    Equals ``leakage.analyze_names(names, psl)``; cross-shard FQDN
    deduplication happens in the in-order reduce.
    """
    engine = engine or PipelineEngine()
    if engine.serial:
        # Keep the name stream lazy (the §4 corpus is 206M domains).
        return leakage.analyze_names(names, psl)
    materialized = list(names)
    graph = PassGraph().add_extractor(leakage_name_extractor(psl))
    graph.add_pass(leakage_pass())
    result = analyze_records(materialized, graph, engine, source="fqdns")
    return _unwrap(result)["leakage"]
