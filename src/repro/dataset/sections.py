"""The paper's section passes, registered on the fused graph.

Every extractor/merger here wraps the *same* primitives the serial
analyses use (:func:`repro.core.evolution.growth_fold`,
:class:`repro.core.leakage.NameFold`,
:class:`repro.core.adoption.AdoptionAccumulator`), so the fused
single-traversal outputs are bit-identical to the per-section scans by
construction:

* **§2 evolution** — ``precert_firsts`` (shared by the ``growth`` and
  ``rates`` passes) and ``matrix_cells`` (the ``matrix`` pass), both
  over :class:`~repro.dataset.corpus.CertRecord` streams;
* **§4 leakage** — ``leakage`` over corpus records (CN/SAN names
  column) or, via :func:`leakage_name_extractor`, over plain FQDN
  streams (the Section 4 name corpus);
* **§3 adoption** — ``adoption`` over TLS-connection streams; the
  extractor carries the analyzer's plain
  :class:`~repro.bro.analyzer.AnalyzerConfig` and rebuilds the
  analyzer worker-side.

Fold functions are module-level and parameterized through
``functools.partial``, so graphs pickle into process-pool payloads.
The §2 and §4 extractors also carry their partial's JSON
encode/decode pair, so those graphs' shard results can be
checkpointed.
"""

from __future__ import annotations

from datetime import date
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bro.analyzer import AnalyzerConfig, BroSctAnalyzer
from repro.core import adoption, evolution, leakage
from repro.dataset.corpus import CertRecord
from repro.dataset.graph import Extractor, PassGraph, SectionPass
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.util.stats import Counter2D

#: Canonical extractor names (one state per traversal, shared by the
#: passes that reduce it).
PRECERT_FIRSTS = "precert_firsts"
MATRIX_CELLS = "matrix_cells"
LEAKAGE_NAMES = "leakage"
ADOPTION = "adoption"

#: Version of :func:`sections_graph`'s checkpoint key; bump it when the
#: graph or its partial codecs change meaning, so stale sidecars are
#: rejected.
SECTIONS_PASS = "sections-v1"

FirstsState = Dict[Tuple[str, int], date]


# -- §2: precert growth / rates (shared extractor) --------------------------


def _firsts_init() -> FirstsState:
    return {}


def _firsts_fold(state: FirstsState, record: CertRecord) -> None:
    if record.is_precert:
        evolution.growth_fold(
            state, record.issuer_org, record.serial, record.day
        )


def _firsts_encode(state: FirstsState) -> List[List[Any]]:
    return [
        [issuer, serial, day.isoformat()]
        for (issuer, serial), day in state.items()
    ]


def _firsts_decode(data: List[List[Any]]) -> FirstsState:
    return {
        (issuer, serial): date.fromisoformat(day)
        for issuer, serial, day in data
    }


def growth_extractor() -> Extractor:
    """First submission day per unique (issuer, serial) precert."""
    return Extractor(
        PRECERT_FIRSTS,
        _firsts_init,
        _firsts_fold,
        encode=_firsts_encode,
        decode=_firsts_decode,
    )


def growth_pass(
    start: Optional[date] = None, end: Optional[date] = None
) -> SectionPass:
    """Figure 1a: cumulative unique-precert growth per CA."""
    return SectionPass(
        "growth",
        PRECERT_FIRSTS,
        partial(evolution.growth_reduce, start=start, end=end),
    )


def rates_pass() -> SectionPass:
    """Figure 1b: per-day CA shares, over the same firsts partials."""
    return SectionPass("rates", PRECERT_FIRSTS, evolution.rates_reduce)


# -- §2: the CA x log matrix -------------------------------------------------


def _matrix_init() -> Counter2D:
    return Counter2D()


def _matrix_fold(month: str, state: Counter2D, record: CertRecord) -> None:
    if record.is_precert and record.month == month:
        state.add(record.issuer_org, record.log_name, 1)


def _matrix_encode(state: Counter2D) -> List[List[Any]]:
    return [[row, col, count] for (row, col), count in state.cells().items()]


def _matrix_decode(data: List[List[Any]]) -> Counter2D:
    # Replaying cells in stored order keeps row/col first-seen order.
    matrix = Counter2D()
    for row, col, count in data:
        matrix.add(row, col, count)
    return matrix


def matrix_extractor(month: str) -> Extractor:
    """Precert log-entry counts per (CA, log) within one month."""
    return Extractor(
        MATRIX_CELLS,
        _matrix_init,
        partial(_matrix_fold, month),
        encode=_matrix_encode,
        decode=_matrix_decode,
    )


def matrix_pass() -> SectionPass:
    """Figure 1c: merge the monthly (CA, log) entry counts."""
    return SectionPass("matrix", MATRIX_CELLS, evolution.matrix_reduce)


# -- §4: subdomain leakage ---------------------------------------------------


def _leak_init(psl: Optional[PublicSuffixList]) -> leakage.NameFold:
    # ``None`` means "the shared default PSL", rebuilt worker-side
    # instead of pickled into every shard payload.
    return leakage.NameFold(psl)


def _leak_fold_record(state: leakage.NameFold, record: CertRecord) -> None:
    for name in record.names:
        state.add(name)


def _leak_finalize(state: leakage.NameFold) -> leakage.LeakagePartial:
    return state.partial


def _leak_extractor(
    psl: Optional[PublicSuffixList],
    fold: Callable[[leakage.NameFold, Any], None],
) -> Extractor:
    payload_psl = None if psl is None or psl is default_psl() else psl
    return Extractor(
        LEAKAGE_NAMES,
        partial(_leak_init, payload_psl),
        fold,
        _leak_finalize,
        leakage.encode_leakage_partial,
        leakage.decode_leakage_partial,
    )


def leakage_extractor(psl: Optional[PublicSuffixList] = None) -> Extractor:
    """Table 2 name pipeline over the corpus CN/SAN names column."""
    return _leak_extractor(psl, _leak_fold_record)


def leakage_name_extractor(
    psl: Optional[PublicSuffixList] = None,
) -> Extractor:
    """Table 2 name pipeline over a plain FQDN stream (§4 corpus)."""
    return _leak_extractor(psl, leakage.NameFold.add)


def leakage_pass() -> SectionPass:
    """Table 2 / Section 4.3: global dedup + label ranking."""
    return SectionPass(
        "leakage", LEAKAGE_NAMES, leakage.reduce_name_partials
    )


# -- §3: SCT adoption in traffic --------------------------------------------


class _AdoptionState:
    """Worker-local analyzer (rebuilt from config) plus accumulator."""

    __slots__ = ("analyzer", "accumulator")

    def __init__(self, config: AnalyzerConfig) -> None:
        self.analyzer = BroSctAnalyzer.from_config(config)
        self.accumulator = adoption.AdoptionAccumulator()


def _adoption_init(config: AnalyzerConfig) -> _AdoptionState:
    return _AdoptionState(config)


def _adoption_fold(state: _AdoptionState, connection: Any) -> None:
    state.accumulator.add(state.analyzer.analyze(connection))


def _adoption_finalize(state: _AdoptionState) -> adoption.AdoptionStats:
    return state.accumulator.finish()


def adoption_extractor(config: AnalyzerConfig) -> Extractor:
    """Figure 2 / Table 1 accounting over a TLS-connection stream.

    The extractor ships only the analyzer's plain config; the analyzer
    itself (with its identity-keyed caches) is rebuilt inside each
    worker.
    """
    return Extractor(
        ADOPTION,
        partial(_adoption_init, config),
        _adoption_fold,
        _adoption_finalize,
    )


def adoption_pass() -> SectionPass:
    """Figure 2 / Table 1: weighted-sum merge of chunk aggregates."""
    return SectionPass("adoption", ADOPTION, adoption.merge_stats)


# -- prebuilt graphs ---------------------------------------------------------


def section2_graph(
    month: str = "2018-04",
    *,
    start: Optional[date] = None,
    end: Optional[date] = None,
) -> PassGraph:
    """Growth + rates + matrix fused into one corpus traversal."""
    graph = PassGraph()
    graph.add_extractor(growth_extractor())
    graph.add_extractor(matrix_extractor(month))
    graph.add_pass(growth_pass(start, end))
    graph.add_pass(rates_pass())
    graph.add_pass(matrix_pass())
    return graph


def sections_graph(
    month: str = "2018-04",
    *,
    start: Optional[date] = None,
    end: Optional[date] = None,
    psl: Optional[PublicSuffixList] = None,
) -> PassGraph:
    """§2 evolution plus §4 leakage, all in one corpus traversal.

    Its checkpoint key binds the window and the PSL rules, so a sidecar
    written under another ``month``/``start``/``end`` or PSL is refused.
    """
    graph = section2_graph(month, start=start, end=end)
    graph.add_extractor(leakage_extractor(psl))
    graph.add_pass(leakage_pass())
    graph.checkpoint_key = (
        f"{SECTIONS_PASS} month={month} start={start} end={end} "
        f"psl={(psl or default_psl()).rules_digest()}"
    )
    return graph


def adoption_graph(config: AnalyzerConfig) -> PassGraph:
    """Figure 2 / Table 1 over a TLS-connection stream."""
    graph = PassGraph().add_extractor(adoption_extractor(config))
    return graph.add_pass(adoption_pass())


def fqdn_graph(psl: Optional[PublicSuffixList] = None) -> PassGraph:
    """Table 2 / Section 4.3 over a plain FQDN stream."""
    graph = PassGraph().add_extractor(leakage_name_extractor(psl))
    return graph.add_pass(leakage_pass())
