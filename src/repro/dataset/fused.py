"""One entry point for every batch section result: :func:`analyze`.

:func:`analyze` folds a :class:`PassGraph` over one source — a
:class:`CertCorpus` (in memory, or streamed ``from_stored`` out of a
harvest and optionally checkpointed), a live log read through
``get_entries``, or a plain record sequence or iterable (the §3
connection stream, the §4 FQDN list).  It hands ``(graph, shard)``
payloads to one shard task on a :class:`repro.pipeline.PipelineEngine`
and reduces the ordered shard partials through the graph, so a serial
run (one shard) and a process-pool run produce bit-identical results
for every registered pass at once.

Observability (counted into the engine's
:class:`repro.obs.MetricsRegistry`):

* ``dataset.shard_traversals`` — actual record-loop runs; the fused
  graph's invariant is **exactly one per shard**, however many passes
  are registered (the acceptance tests assert this);
* ``dataset.separate_traversals_avoided`` — scans a one-pass-at-a-time
  implementation would have added;
* ``dataset.records_scanned`` — total records folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ct.storage import HarvestCheckpoint, LogStorageError
from repro.dataset.corpus import CertCorpus, CertRecord, cert_record, entry_row
from repro.dataset.graph import PassGraph, ShardResult

if TYPE_CHECKING:  # live consumers import the dataset layer without the engine
    from repro.pipeline.engine import PipelineEngine

FusedPayload = Tuple[PassGraph, Any]


def fused_shard_task(payload: FusedPayload) -> ShardResult:
    """Run one shard through the graph (module-level: pools pickle it)."""
    graph, shard = payload
    iter_records = getattr(shard, "iter_records", None)
    return graph.run_shard(shard if iter_records is None else iter_records())


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


def analyze(
    source: Any,
    graph: PassGraph,
    engine: Optional["PipelineEngine"] = None,
    *,
    checkpoint: bool = False,
) -> Any:
    """Every pass registered on ``graph`` over ``source``, one traversal
    per shard.

    Returns ``{pass name: result}``; under ``on_error="degrade"``, a
    :class:`repro.resilience.DegradedResult` wrapping that mapping.

    A serial engine folds a corpus or record source as one lazy shard;
    otherwise shards follow ``engine.shard_size``.  A live log
    (anything with ``name``, ``size`` and ``get_entries``, picklable
    for a process pool) is always read one ``shard_size`` window per
    shard, and a failing fetch is retried inside its worker.

    With ``checkpoint=True`` the source must be a ``from_stored``
    corpus: a ``<harvest>.checkpoint`` sidecar records every finished
    shard (and a degraded run's report), and a re-run re-runs only the
    shards it lacks.  The sidecar header binds the tree head, the
    shard size and ``graph.checkpoint_key``; a mismatched or corrupted
    sidecar raises :class:`repro.ct.storage.LogStorageError`.
    """
    from repro.pipeline.engine import PipelineEngine

    engine = engine or PipelineEngine()
    store = _open_checkpoint(source, graph, engine) if checkpoint else None
    metrics = engine.metrics
    fused = graph.traversals_fused()

    def reduce_fn(shard_results: Sequence[ShardResult]) -> Dict[str, Any]:
        for result in shard_results:
            metrics.inc("dataset.shard_traversals", result.traversals)
            metrics.inc("dataset.records_scanned", result.records)
            metrics.inc(
                "dataset.separate_traversals_avoided",
                (fused - 1) * result.traversals,
            )
        return graph.reduce([result.partials for result in shard_results])

    return engine.map_reduce(
        fused_shard_task,
        [(graph, shard) for shard in _shards(source, engine, checkpoint)],
        reduce_fn,
        checkpoint=store,
        encode=graph.encode_shard,
        decode=graph.decode_shard,
    )


def _shards(source: Any, engine: "PipelineEngine", checkpoint: bool) -> List[Any]:
    from repro.pipeline.shard import plan_sequence_shards

    if hasattr(source, "get_entries"):
        plan = plan_sequence_shards(source.size, engine.shard_size)
        return [LogWindow(source, shard.start, shard.stop) for shard in plan]
    if engine.serial and not checkpoint:
        return [source]
    if not isinstance(source, (CertCorpus, Sequence)):
        source = list(source)
    plan = plan_sequence_shards(len(source), engine.shard_size)
    if isinstance(source, CertCorpus):
        return [source.view(shard.start, shard.stop) for shard in plan]
    return [source[shard.start : shard.stop] for shard in plan]


def _open_checkpoint(
    source: Any, graph: PassGraph, engine: "PipelineEngine"
) -> HarvestCheckpoint:
    """The sidecar of a ``from_stored`` corpus, bound to its tree head."""
    if graph.checkpoint_key is None:
        raise ValueError("graph has no checkpoint_key; cannot checkpoint")
    head = getattr(source, "tree_head", None)
    if head is None:
        raise LogStorageError("harvest file has no tree-head trailer")
    if len(source) != head["tree_size"]:
        raise LogStorageError(
            f"harvest {source.path} holds {len(source)} readable entries but "
            f"its tree head covers {head['tree_size']}; cannot checkpoint"
        )
    return HarvestCheckpoint(
        f"{source.path}.checkpoint",
        pass_name=graph.checkpoint_key,
        shard_size=engine.shard_size,
        tree_size=head["tree_size"],
        root_hash=head["root_hash"],
        metrics=engine.metrics,
    )
