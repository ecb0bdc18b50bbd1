"""Run a fused pass graph over a corpus, serial or sharded.

One entry point per corpus shape:

* :func:`analyze_corpus` — a :class:`CertCorpus`, sharded into
  zero-copy :class:`CorpusView` windows;
* :func:`analyze_records` — any plain record sequence (the §3
  connection stream, the §4 FQDN list), sharded by index range.

Both hand ``(graph, records)`` payloads to a
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

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple, Union

from repro.dataset.corpus import CertCorpus, CorpusView
from repro.dataset.graph import PassGraph, ShardResult

if TYPE_CHECKING:  # pipeline imports dataset; keep the reverse edge lazy
    from repro.pipeline.engine import PipelineEngine

FusedPayload = Tuple[PassGraph, Union[CorpusView, Sequence[Any]]]


def _default_engine() -> "PipelineEngine":
    from repro.pipeline.engine import PipelineEngine

    return PipelineEngine()


def fused_shard_task(payload: FusedPayload) -> ShardResult:
    """Run one shard through the graph (module-level: pools pickle it)."""
    graph, records = payload
    if isinstance(records, CorpusView):
        return graph.run_shard(records.iter_records())
    return graph.run_shard(records)


def analyze_corpus(
    corpus: CertCorpus,
    graph: PassGraph,
    engine: Optional["PipelineEngine"] = None,
) -> Any:
    """Every registered pass over the corpus, one traversal per shard.

    Returns ``{pass name: result}``; with a degrading engine, a
    :class:`repro.resilience.DegradedResult` wrapping that mapping.
    """
    from repro.pipeline.shard import plan_sequence_shards

    engine = engine or _default_engine()
    if engine.serial:
        tasks: Sequence[FusedPayload] = [(graph, corpus.view())]
    else:
        shards = plan_sequence_shards(
            len(corpus), engine.shard_size, source="corpus"
        )
        tasks = [
            (graph, corpus.view(shard.start, shard.stop)) for shard in shards
        ]
    return _run(graph, tasks, engine)


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
        tasks: Sequence[FusedPayload] = [(graph, records)]
    else:
        shards = plan_sequence_shards(
            len(records), engine.shard_size, source=source
        )
        tasks = [(graph, shard.slice(records)) for shard in shards]
    return _run(graph, tasks, engine)


def _run(
    graph: PassGraph, tasks: Sequence[FusedPayload], engine: "PipelineEngine"
) -> Any:
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

    return engine.map_reduce(fused_shard_task, tasks, reduce_fn)
