"""Run a fused pass graph over a corpus, serial or sharded.

One entry point per corpus shape:

* :func:`analyze_corpus` — a :class:`CertCorpus`, sharded into
  zero-copy :class:`CorpusView` windows, optionally checkpointed;
* :func:`analyze_records` — any plain record sequence (the §3
  connection stream, the §4 FQDN list), sharded by index range;
* :func:`analyze_shards` — shards the caller planned, each a record
  sequence or any object whose ``iter_records()`` yields the shard's
  records inside the worker (a corpus view, a live-log index range).

All three hand ``(graph, shard)`` payloads to one shard task on a
:class:`repro.pipeline.PipelineEngine` and reduce the ordered shard
partials through the graph, so serial (one shard) and process-pool
runs produce bit-identical results for every registered pass at once.

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

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.dataset.corpus import CertCorpus
from repro.dataset.graph import PassGraph, ShardResult

if TYPE_CHECKING:  # pipeline imports dataset; keep the reverse edge lazy
    from repro.pipeline.engine import PipelineEngine

FusedPayload = Tuple[PassGraph, Any]


def _default_engine() -> "PipelineEngine":
    from repro.pipeline.engine import PipelineEngine

    return PipelineEngine()


def fused_shard_task(payload: FusedPayload) -> ShardResult:
    """Run one shard through the graph (module-level: pools pickle it)."""
    graph, shard = payload
    iter_records = getattr(shard, "iter_records", None)
    return graph.run_shard(shard if iter_records is None else iter_records())


def analyze_corpus(
    corpus: CertCorpus,
    graph: PassGraph,
    engine: Optional["PipelineEngine"] = None,
    *,
    checkpoint: Optional[Any] = None,
) -> Any:
    """Every registered pass over the corpus, one traversal per shard.

    Returns ``{pass name: result}``; with a degrading engine, a
    :class:`repro.resilience.DegradedResult` wrapping that mapping.
    ``checkpoint`` (a :class:`repro.ct.storage.HarvestCheckpoint`)
    records each finished shard's encoded partials and skips the
    shards it already holds; its shard plan then follows
    ``engine.shard_size`` whether the engine is serial or pooled.
    """
    from repro.pipeline.shard import plan_sequence_shards

    engine = engine or _default_engine()
    if engine.serial and checkpoint is None:
        views = [corpus.view()]
    else:
        shards = plan_sequence_shards(
            len(corpus), engine.shard_size, source="corpus"
        )
        views = [corpus.view(shard.start, shard.stop) for shard in shards]
    return analyze_shards(views, graph, engine, checkpoint=checkpoint)


def analyze_records(
    records: Sequence[Any],
    graph: PassGraph,
    engine: Optional["PipelineEngine"] = None,
    *,
    source: str = "records",
) -> Any:
    """Every registered pass over a plain record sequence."""
    from repro.pipeline.shard import plan_sequence_shards

    engine = engine or _default_engine()
    if engine.serial:
        return analyze_shards([records], graph, engine)
    shards = plan_sequence_shards(len(records), engine.shard_size, source=source)
    return analyze_shards(
        [shard.slice(records) for shard in shards], graph, engine
    )


def analyze_shards(
    shards: Sequence[Any],
    graph: PassGraph,
    engine: "PipelineEngine",
    *,
    checkpoint: Optional[Any] = None,
) -> Any:
    """Every registered pass over pre-planned shards, in shard order."""
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
        [(graph, shard) for shard in shards],
        reduce_fn,
        checkpoint=checkpoint,
        encode=graph.encode_shard,
        decode=graph.decode_shard,
    )
