"""Sharded map-reduce execution for the heavy analysis passes.

The paper's corpora are huge — hundreds of millions of log entries,
26.5G connections, 206M domains — and every analysis in this
reproduction decomposes the same way related CT monitors do: process
each log (or index range, or stream chunk) independently and merge the
typed partial results into one view.  This package provides

* :mod:`repro.pipeline.shard` — index-range shard planning;
* :mod:`repro.pipeline.engine` — :class:`PipelineEngine`, the
  ``concurrent.futures`` fan-out with a serial fallback and
  checkpoint support.

The paper's passes run on the engine through one entry point,
:func:`repro.dataset.analyze`, which folds a section graph over a
corpus, a stored harvest, a live log or a record stream.  Parallel and
serial runs produce bit-identical outputs: partials are always merged
in shard order, and a serial run is the single-shard case of the same
map/reduce decomposition.
"""

from repro.pipeline.engine import MapResult, PipelineEngine
from repro.pipeline.shard import (
    DEFAULT_SHARD_SIZE,
    Shard,
    plan_sequence_shards,
)

__all__ = [
    "MapResult",
    "PipelineEngine",
    "Shard",
    "DEFAULT_SHARD_SIZE",
    "plan_sequence_shards",
]
