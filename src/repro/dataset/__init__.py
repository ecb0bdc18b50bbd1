"""The shared columnar certificate corpus and its fused pass graph.

The paper's §2-§4 analyses iterate one certificate population.  This
package materializes that population **once** — columnar, compact,
sliceable — and walks it **once** per shard for every registered
section pass:

* :mod:`repro.dataset.corpus` — :class:`CertCorpus` (parallel column
  tuples for issuer, serial, day, log, month, entry type, CN/SAN
  names) built from in-memory logs or streamed from ``ct.storage``
  JSON-lines harvests, plus zero-copy :class:`CorpusView` windows
  that pickle as just their slice;
* :mod:`repro.dataset.graph` — :class:`PassGraph`, a registry of
  per-record :class:`Extractor`\\ s and typed :class:`SectionPass`
  mergers, fused so each shard is traversed exactly once;
* :mod:`repro.dataset.sections` — the §2 (growth/rates/matrix),
  §3 (adoption) and §4 (leakage) passes registered on the graph,
  wrapping the same fold/reduce primitives the serial analyses use,
  and the prebuilt graphs (:func:`section2_graph`,
  :func:`sections_graph`, :func:`adoption_graph`, :func:`fqdn_graph`);
* :mod:`repro.dataset.fused` — :func:`analyze`, the one batch entry
  point: any graph over a corpus, a stored harvest, a live log or a
  record stream, sharded on a :class:`repro.pipeline.PipelineEngine`
  and reduced for every pass at once, bit-identically serial or
  process-pooled, with checkpointed resume through each extractor's
  partial codec;
* :mod:`repro.dataset.live` — :class:`LiveAnalytics`, the incremental
  mode: live extractor states folding ``CertFeed.poll`` batches,
  harvest pages, and :class:`CorpusDelta` windows into the current
  Fig 1a/1b/Table 1 aggregates (the ``GET /analytics`` payload),
  bit-identical to a batch recompute over the same entries.

Layer stack: **dataset** (this package) feeds the pipeline engine,
which wears the resilience and obs layers — see README.md.
"""

from repro.dataset.corpus import CertCorpus, CertRecord, CorpusDelta, CorpusView
from repro.dataset.fused import LogWindow, analyze, fused_shard_task
from repro.dataset.graph import Extractor, PassGraph, SectionPass, ShardResult
from repro.dataset.live import ANALYTICS_SCHEMA_VERSION, LiveAnalytics
from repro.dataset.sections import (
    adoption_extractor,
    adoption_graph,
    adoption_pass,
    fqdn_graph,
    growth_extractor,
    growth_pass,
    leakage_extractor,
    leakage_name_extractor,
    leakage_pass,
    matrix_extractor,
    matrix_pass,
    rates_pass,
    section2_graph,
    sections_graph,
)

__all__ = [
    "ANALYTICS_SCHEMA_VERSION",
    "CertCorpus",
    "CertRecord",
    "CorpusDelta",
    "CorpusView",
    "LiveAnalytics",
    "LogWindow",
    "Extractor",
    "PassGraph",
    "SectionPass",
    "ShardResult",
    "analyze",
    "fused_shard_task",
    "adoption_extractor",
    "adoption_graph",
    "adoption_pass",
    "fqdn_graph",
    "growth_extractor",
    "growth_pass",
    "leakage_extractor",
    "leakage_name_extractor",
    "leakage_pass",
    "matrix_extractor",
    "matrix_pass",
    "rates_pass",
    "section2_graph",
    "sections_graph",
]
