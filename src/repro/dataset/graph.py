"""The fused pass graph: one traversal, every section's partials.

A :class:`PassGraph` separates the two halves of a map/reduce pass:

* an :class:`Extractor` folds records into a shard-local state — the
  per-record work that used to force one full corpus traversal per
  section;
* a :class:`SectionPass` is a typed merger over one extractor's
  ordered shard partials — the reduce half, named after the paper
  artifact it feeds.

Several passes may share one extractor (Figures 1a and 1b both reduce
the same first-submission dictionary), and several extractors run in
the **same traversal**: :meth:`PassGraph.run_shard` walks a shard's
records exactly once, feeding every registered extractor, and returns
all partials at once.  Reducing those partials in shard order then
yields every section result from a single scan of the corpus.

Graphs are plain data (module-level fold functions, ``functools.partial``
for parameters), so a graph travels to process-pool workers inside the
shard payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def _identity(state: Any) -> Any:
    return state


@dataclass(frozen=True)
class Extractor:
    """Per-record extraction into a mergeable, picklable partial.

    ``init`` builds the empty shard-local state, ``fold`` absorbs one
    record into it, and ``finalize`` turns the state into the partial
    that crosses the pool boundary (identity by default — override it
    when the working state holds unpicklable helpers like a PSL).
    ``encode``/``decode`` convert the partial to and from the JSON
    value a checkpoint sidecar stores (identity by default, for
    partials that already are JSON values).
    """

    name: str
    init: Callable[[], Any]
    fold: Callable[[Any, Any], None]
    finalize: Callable[[Any], Any] = _identity
    encode: Callable[[Any], Any] = _identity
    decode: Callable[[Any], Any] = _identity


@dataclass(frozen=True)
class SectionPass:
    """A typed merger over one extractor's ordered shard partials."""

    name: str
    extractor: str
    reduce: Callable[[List[Any]], Any]


@dataclass
class ShardResult:
    """One shard's fused output: every extractor's partial, plus the
    traversal accounting the obs layer asserts on."""

    partials: Dict[str, Any]
    records: int
    traversals: int = 1


@dataclass
class PassGraph:
    """A registry of extractors and section passes, fused per shard.

    ``checkpoint_key`` names what the graph computes, parameters
    included; a checkpoint sidecar is bound to it, so partials written
    under another key are refused.  ``None`` means the graph cannot be
    checkpointed.
    """

    extractors: Dict[str, Extractor] = field(default_factory=dict)
    passes: Dict[str, SectionPass] = field(default_factory=dict)
    checkpoint_key: Optional[str] = None

    def add_extractor(self, extractor: Extractor) -> "PassGraph":
        if extractor.name in self.extractors:
            raise ValueError(f"duplicate extractor {extractor.name!r}")
        self.extractors[extractor.name] = extractor
        return self

    def add_pass(self, section: SectionPass) -> "PassGraph":
        if section.name in self.passes:
            raise ValueError(f"duplicate pass {section.name!r}")
        if section.extractor not in self.extractors:
            raise ValueError(
                f"pass {section.name!r} references unknown extractor "
                f"{section.extractor!r}"
            )
        self.passes[section.name] = section
        return self

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(self.passes)

    def traversals_fused(self) -> int:
        """Corpus scans a per-section implementation would have run."""
        return len(self.passes)

    # -- execution -----------------------------------------------------------

    def new_states(self) -> Dict[str, Any]:
        """Fresh working states, one per extractor.

        This is the seed of the graph's **incremental mode**: hold the
        states across calls and keep folding batches into them with
        :meth:`fold_into`; :meth:`results_from_states` reads the
        current section results at any point.  A one-shot
        :meth:`run_shard` is exactly ``new_states`` + one
        ``fold_into`` + finalize.
        """
        if not self.extractors:
            raise ValueError("pass graph has no extractors registered")
        return {
            name: extractor.init()
            for name, extractor in self.extractors.items()
        }

    def fold_into(self, states: Dict[str, Any], records: Iterable[Any]) -> int:
        """Fold one batch of records into live states, **one traversal**.

        The single ``for`` loop below is the whole point of the graph:
        however many sections are registered, each record is touched
        exactly one time per batch.  Returns the number of records
        folded.
        """
        folds = [
            (extractor.fold, states[name])
            for name, extractor in self.extractors.items()
        ]
        count = 0
        # The record loop is the whole program for large corpora;
        # unroll the common small extractor counts so each record
        # costs plain calls, not an inner loop + tuple unpacking.
        if len(folds) == 1:
            fold_a, state_a = folds[0]
            for record in records:
                count += 1
                fold_a(state_a, record)
        elif len(folds) == 2:
            (fold_a, state_a), (fold_b, state_b) = folds
            for record in records:
                count += 1
                fold_a(state_a, record)
                fold_b(state_b, record)
        elif len(folds) == 3:
            (fold_a, state_a), (fold_b, state_b), (fold_c, state_c) = folds
            for record in records:
                count += 1
                fold_a(state_a, record)
                fold_b(state_b, record)
                fold_c(state_c, record)
        else:
            for record in records:
                count += 1
                for fold, state in folds:
                    fold(state, record)
        return count

    def finalize_states(self, states: Dict[str, Any]) -> Dict[str, Any]:
        """Each extractor's pool-crossing partial from its live state.

        Finalize never mutates the state (it is identity for the
        corpus extractors; the leakage/adoption finalizers read their
        state into a fresh partial), so incremental consumers can keep
        folding into the same states afterwards.
        """
        return {
            name: extractor.finalize(states[name])
            for name, extractor in self.extractors.items()
        }

    def results_from_states(self, states: Dict[str, Any]) -> Dict[str, Any]:
        """Every section result from live states (single-partial reduce)."""
        return self.reduce([self.finalize_states(states)])

    def run_shard(self, records: Iterable[Any]) -> ShardResult:
        """Fold one shard's records through every extractor, **once**."""
        states = self.new_states()
        count = self.fold_into(states, records)
        return ShardResult(
            partials=self.finalize_states(states),
            records=count,
            traversals=1,
        )

    def encode_shard(self, result: ShardResult) -> Dict[str, Any]:
        """One shard's partials as a JSON value (a checkpoint payload)."""
        return {
            name: self.extractors[name].encode(partial)
            for name, partial in result.partials.items()
        }

    def decode_shard(self, payload: Mapping[str, Any]) -> ShardResult:
        """Inverse of :meth:`encode_shard`.  A resumed shard was not
        walked, so it counts no records and no traversal."""
        return ShardResult(
            partials={
                name: extractor.decode(payload[name])
                for name, extractor in self.extractors.items()
            },
            records=0,
            traversals=0,
        )

    def reduce(
        self, shard_results: Sequence[Mapping[str, Any]]
    ) -> Dict[str, Any]:
        """Merge ordered shard partials into every section's result.

        ``shard_results`` are the per-shard partial mappings (from
        :attr:`ShardResult.partials`), **in shard order** — order is
        what keeps dedup-style reduces bit-identical to the serial
        scan.
        """
        if not self.passes:
            raise ValueError("pass graph has no passes registered")
        results: Dict[str, Any] = {}
        for name, section in self.passes.items():
            results[name] = section.reduce(
                [shard[section.extractor] for shard in shard_results]
            )
        return results

    def run(self, records: Iterable[Any]) -> Dict[str, Any]:
        """Single-shard convenience: one traversal, all results."""
        return self.reduce([self.run_shard(records).partials])
