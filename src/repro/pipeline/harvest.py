"""The fused §2 + §4 section graph over stored harvests and live logs.

Both entry points run :func:`repro.dataset.sections_graph` through the
dataset layer's one shard task and the graph's one reduce, and return
``{"growth", "rates", "matrix", "leakage"}`` — a
:class:`repro.resilience.DegradedResult` under ``on_error="degrade"``.
A stored harvest (see :mod:`repro.ct.storage`) is read once into an
index-deduplicated corpus and may be checkpointed; a live log is read
through ``get_entries`` inside each worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.ct.storage import HarvestCheckpoint, LogStorageError
from repro.dataset import (
    CertCorpus,
    CertRecord,
    analyze_corpus,
    analyze_shards,
    sections_graph,
)
from repro.dataset.corpus import cert_record, entry_row
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.shard import plan_sequence_shards

#: Checkpoint pass name; change it when the graph or its partial codecs
#: change meaning, so stale sidecars are rejected.
SECTIONS_PASS = "sections-v1"


def analyze_harvest_sections(
    path: Union[str, Path],
    engine: Optional[PipelineEngine] = None,
    *,
    checkpoint: bool = False,
    month: str = "2018-04",
    start: Optional[date] = None,
    end: Optional[date] = None,
    psl: Optional[PublicSuffixList] = None,
) -> Any:
    """Every §2 and §4 section pass over one stored harvest, fused.

    With ``checkpoint=True`` a ``<harvest>.checkpoint`` sidecar records
    every finished shard (shards follow ``engine.shard_size``, serial
    or pooled, and a degraded run's report), and a re-run re-runs only
    the shards it lacks.  The sidecar header binds the tree head, the
    shard size and the graph with its ``month``/``start``/``end`` and
    PSL rules; a mismatched or corrupted sidecar raises
    :class:`repro.ct.storage.LogStorageError`.
    """
    engine = engine or PipelineEngine()
    corpus = CertCorpus.from_stored(path, metrics=engine.metrics)
    store: Optional[HarvestCheckpoint] = None
    if checkpoint:
        # The corpus pass already read the trailer: no second pass.
        head = corpus.tree_head
        if head is None:
            raise LogStorageError("harvest file has no tree-head trailer")
        store = HarvestCheckpoint(
            f"{path}.checkpoint",
            pass_name=(
                f"{SECTIONS_PASS} month={month} start={start} end={end} "
                f"psl={(psl or default_psl()).rules_digest()}"
            ),
            shard_size=engine.shard_size,
            tree_size=head["tree_size"],
            root_hash=head["root_hash"],
            metrics=engine.metrics,
        )
        if len(corpus) != store.tree_size:
            raise LogStorageError(
                f"harvest {path} holds {len(corpus)} readable entries but "
                f"its tree head covers {store.tree_size}; cannot checkpoint"
            )
    graph = sections_graph(month, start=start, end=end, psl=psl)
    return analyze_corpus(corpus, graph, engine, checkpoint=store)


@dataclass(frozen=True)
class LogWindow:
    """Entries ``[start, stop)`` of a live log: one ``get_entries``
    call, made when a worker iterates the shard."""

    log: Any
    start: int
    stop: int

    def iter_records(self) -> Iterator[CertRecord]:
        name = self.log.name
        for entry in self.log.get_entries(self.start, self.stop - 1):
            yield entry_row(cert_record, name, entry, True)


def analyze_log_sections(
    log: Any,
    engine: Optional[PipelineEngine] = None,
    *,
    month: str = "2018-04",
    start: Optional[date] = None,
    end: Optional[date] = None,
    psl: Optional[PublicSuffixList] = None,
) -> Any:
    """Every §2 and §4 section pass over one *live* log.

    ``log`` is a :class:`repro.ct.CTLog` or any wrapper exposing
    ``name``, ``size`` and ``get_entries`` (picklable for a process
    pool).  A failing fetch is retried inside its worker, so faults
    plus retries leave the output bit-identical.
    """
    engine = engine or PipelineEngine()
    shards = plan_sequence_shards(log.size, engine.shard_size, source=log.name)
    graph = sections_graph(month, start=start, end=end, psl=psl)
    windows = [LogWindow(log, shard.start, shard.stop) for shard in shards]
    return analyze_shards(windows, graph, engine)
