"""Checkpointed, sharded analysis of stored harvests.

A harvest file (see :mod:`repro.ct.storage`) is an append-ordered
entry sequence with a verified tree head — exactly the shape the
shard planner wants.  Workers read their own index range straight
from disk, so task payloads stay tiny and a resumed run re-reads only
the shards that were not checkpointed yet.
"""

from __future__ import annotations

from datetime import date
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core import leakage
from repro.ct.storage import (
    HarvestCheckpoint,
    entry_from_record,
    iter_stored_entries,
    read_tree_head,
)
from repro.dataset import CertCorpus, analyze_corpus, sections_graph
from repro.dnscore.psl import PublicSuffixList
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.shard import plan_sequence_shards

#: Pass name recorded in checkpoints; changing the pass semantics
#: must change this name so stale checkpoints are rejected.
FQDN_LEAKAGE_PASS = "fqdn-leakage-v1"


def harvest_entry_names(
    path: Union[str, Path], start: int, stop: int
) -> List[str]:
    """CN/SAN DNS names of the stored entries with indices [start, stop)."""
    names: List[str] = []
    index = 0
    for record in iter_stored_entries(path):
        if record.get("type") != "entry":
            continue
        if index >= stop:
            break
        if index >= start:
            names.extend(entry_from_record(record).certificate.dns_names())
        index += 1
    return names


def _harvest_leakage_task(
    payload: Tuple[str, int, int]
) -> leakage.LeakagePartial:
    path, start, stop = payload
    return leakage.map_name_chunk(harvest_entry_names(path, start, stop))


def analyze_harvest_names(
    path: Union[str, Path],
    engine: Optional[PipelineEngine] = None,
    *,
    checkpoint: bool = False,
) -> leakage.LeakageStats:
    """Run the Section 4.2 FQDN pass over one stored harvest.

    Shards the harvest by entry index range, extracts CN/SAN names per
    shard, and reduces in shard order — identical to loading the
    harvest and running ``leakage.analyze_certificates`` serially.

    With ``checkpoint=True`` a ``<harvest>.checkpoint`` sidecar records
    every finished shard; re-running after an interruption resumes
    from the last completed shard.  A corrupted or mismatched sidecar
    raises :class:`repro.ct.storage.LogStorageError`.

    When the engine runs with ``on_error="degrade"``, the return value
    is a :class:`repro.resilience.DegradedResult` pairing the stats
    (over the shards that survived) with the run's
    :class:`~repro.resilience.DegradationReport`; the report is also
    appended to the checkpoint sidecar, so a resume re-runs exactly
    the lost shards.
    """
    engine = engine or PipelineEngine()
    trailer = read_tree_head(path)
    shards = plan_sequence_shards(
        trailer["tree_size"], engine.shard_size, source=str(path)
    )
    tasks = [(str(path), shard.start, shard.stop) for shard in shards]
    store: Optional[HarvestCheckpoint] = None
    if checkpoint:
        store = HarvestCheckpoint.for_harvest(
            path, FQDN_LEAKAGE_PASS, engine.shard_size, metrics=engine.metrics
        )
    return engine.map_reduce(
        _harvest_leakage_task,
        tasks,
        leakage.reduce_name_partials,
        checkpoint=store,
        encode=leakage.encode_leakage_partial,
        decode=leakage.decode_leakage_partial,
    )


def analyze_harvest_sections(
    path: Union[str, Path],
    engine: Optional[PipelineEngine] = None,
    *,
    month: str = "2018-04",
    start: Optional[date] = None,
    end: Optional[date] = None,
    psl: Optional[PublicSuffixList] = None,
) -> Dict[str, Any]:
    """Every corpus-backed section pass over one stored harvest, fused.

    Streams the harvest once into a columnar
    :class:`repro.dataset.CertCorpus` (truncated trailing lines are
    skipped with a ``storage.corrupt_lines_skipped`` count, duplicate
    entry indices with ``dataset.duplicate_entries_skipped``), then runs
    the §2 growth/rates/matrix passes *and* the §4 leakage pass in one
    traversal per shard.  Returns ``{"growth": ..., "rates": ...,
    "matrix": ..., "leakage": ...}``; with ``on_error="degrade"`` the
    mapping is wrapped in a :class:`repro.resilience.DegradedResult`.

    Unlike :func:`analyze_harvest_names` this holds the corpus columns
    in memory (no checkpoint sidecar), buying fused single-traversal
    analysis in exchange — use the checkpointed pass for harvests too
    large to materialize.
    """
    engine = engine or PipelineEngine()
    corpus = CertCorpus.from_stored(path, metrics=engine.metrics)
    graph = sections_graph(month, start=start, end=end, psl=psl)
    return analyze_corpus(corpus, graph, engine)


def log_entry_names(log: Any, start: int, stop: int) -> List[str]:
    """CN/SAN DNS names of a live log's entries with indices [start, stop).

    Fetched through the public ``get_entries`` read API (never private
    state), so fault-injection wrappers like
    :class:`repro.resilience.FlakyLog` see every access.
    """
    if stop <= start:
        return []
    return [
        name
        for entry in log.get_entries(start, stop - 1)
        for name in entry.certificate.dns_names()
    ]


def _log_leakage_task(payload: Tuple[Any, int, int]) -> leakage.LeakagePartial:
    log, start, stop = payload
    return leakage.map_name_chunk(log_entry_names(log, start, stop))


def analyze_log_names(
    log: Any,
    engine: Optional[PipelineEngine] = None,
) -> leakage.LeakageStats:
    """Run the Section 4.2 FQDN pass over one *live* log.

    Every shard fetches its index range through ``get_entries`` — the
    same surface real monitors harvest through — which makes this the
    natural pass to run against a :class:`repro.resilience.FlakyLog`
    under a retry policy: transiently failing fetches are retried
    inside the worker, and the output stays bit-identical to the
    fault-free serial run.

    ``log`` may be a :class:`repro.ct.CTLog` or any wrapper exposing
    ``name``, ``size``, and ``get_entries``; with a process-pool
    engine it must be picklable.  With ``on_error="degrade"`` the
    return value is a :class:`repro.resilience.DegradedResult`.
    """
    engine = engine or PipelineEngine()
    shards = plan_sequence_shards(log.size, engine.shard_size, source=log.name)
    tasks = [(log, shard.start, shard.stop) for shard in shards]
    return engine.map_reduce(
        _log_leakage_task, tasks, leakage.reduce_name_partials
    )
