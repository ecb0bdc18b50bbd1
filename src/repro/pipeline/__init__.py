"""Sharded map-reduce execution for the heavy analysis passes.

The paper's corpora are huge — hundreds of millions of log entries,
26.5G connections, 206M domains — and every analysis in this
reproduction decomposes the same way related CT monitors do: process
each log (or index range, or stream chunk) independently and merge the
typed partial results into one view.  This package provides

* :mod:`repro.pipeline.shard` — index-range shard planning;
* :mod:`repro.pipeline.engine` — :class:`PipelineEngine`, the
  ``concurrent.futures`` fan-out with a serial fallback and
  checkpoint support;
* :mod:`repro.pipeline.passes` — the paper passes (Fig. 1a-1c log
  evolution, Fig. 2 / Table 1 SCT traffic, Table 2 / Section 4.3 FQDN
  leakage) driven through the fused :mod:`repro.dataset` layer —
  :func:`~repro.pipeline.passes.evolution_sections` computes all of
  §2 in one corpus traversal per shard;
* :mod:`repro.pipeline.harvest` — the fused §2 + §4 section graph
  over a stored harvest (see :mod:`repro.ct.storage`), checkpointed
  and resumable, or over a live log's ``get_entries``:
  :func:`~repro.pipeline.harvest.analyze_harvest_sections` and
  :func:`~repro.pipeline.harvest.analyze_log_sections`.

Parallel and serial paths produce bit-identical outputs: partials are
always merged in shard order, and the serial implementations are the
single-shard special case of the same map/reduce decomposition.
"""

from repro.pipeline.engine import MapResult, PipelineEngine
from repro.pipeline.harvest import analyze_harvest_sections, analyze_log_sections
from repro.pipeline.passes import (
    evolution_sections,
    leakage_names,
    traffic_adoption,
)
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
    "evolution_sections",
    "traffic_adoption",
    "leakage_names",
    "analyze_harvest_sections",
    "analyze_log_sections",
]
