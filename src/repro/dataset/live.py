"""Streaming incremental analytics: the paper's figures, folded live.

A real CT monitor never rebuilds a finished corpus — it folds an
unbounded entry stream.  :class:`LiveAnalytics` is that fold: it holds
one set of live :class:`~repro.dataset.graph.PassGraph` extractor
states and absorbs batches from any streaming source —

* ``CertFeed.poll`` batches (:meth:`fold_events`, or wire the feed's
  ``analytics=`` parameter and every poll folds itself);
* ``harvest_log`` pages (:meth:`fold_entries`, or the harvester's
  ``analytics=`` parameter);
* :class:`~repro.dataset.corpus.CorpusDelta` windows from
  ``CertCorpus.append_batch`` (:meth:`fold_delta`);

— and can report the *current* Fig 1a / Fig 1b / Table 1 aggregates at
any instant (:meth:`results`), because the section reducers build
fresh outputs without mutating the partials they read.  The
:meth:`to_dict` snapshot is the version-1 JSON served by the telemetry
server's ``GET /analytics`` endpoint and written by ``repro watch``.

Incremental folding uses exactly the same typed extractor/merger code
as the batch path, so N folded polls are bit-identical to one batch
recompute over the same entries — the property the tier-1 suite pins.
"""

from __future__ import annotations

import threading
from datetime import date
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.ct.log import LogEntry
from repro.dataset.corpus import CertRecord, CorpusDelta, cert_record, entry_row
from repro.dataset.graph import PassGraph
from repro.dataset.sections import section2_graph
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.util.stats import Counter2D

#: Schema version of the ``to_dict`` / ``GET /analytics`` payload.
ANALYTICS_SCHEMA_VERSION = 1


class LiveAnalytics:
    """Live extractor states plus batch-fold entry points.

    ``graph`` defaults to :func:`~repro.dataset.sections.section2_graph`
    (growth + rates + matrix — Fig 1a/1b/Table 1).  ``with_names``
    controls whether folded records carry the CN/SAN names column
    (needed only when the graph registers the leakage extractor).

    Folding and reading are guarded by one lock, so a telemetry server
    thread can serve ``/analytics`` while the poll loop keeps folding.
    """

    def __init__(
        self,
        graph: Optional[PassGraph] = None,
        *,
        with_names: bool = False,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.graph = graph if graph is not None else section2_graph()
        self.with_names = with_names
        self.metrics = metrics
        self._states = self.graph.new_states()
        self._lock = threading.Lock()
        self.records_folded = 0
        self.batches_folded = 0

    # -- folding -------------------------------------------------------------

    def fold_records(self, records: Iterable[CertRecord]) -> int:
        """Fold one batch of pre-built records; returns the count."""
        with self._lock:
            count = self.graph.fold_into(self._states, records)
            self.records_folded += count
            self.batches_folded += 1
        self.metrics.inc("dataset.live_batches")
        if count:
            self.metrics.inc("dataset.live_records", count)
        return count

    def fold_events(self, events: Iterable[Any]) -> int:
        """Fold one ``CertFeed.poll`` batch of ``FeedEvent`` items."""
        with_names = self.with_names
        return self.fold_records(
            entry_row(cert_record, event.log_name, event.entry, with_names)
            for event in events
        )

    def fold_entries(self, log_name: str, entries: Iterable[LogEntry]) -> int:
        """Fold one harvest page (entries of a single named log)."""
        with_names = self.with_names
        return self.fold_records(
            entry_row(cert_record, log_name, entry, with_names)
            for entry in entries
        )

    def fold_delta(self, delta: CorpusDelta) -> int:
        """Fold the rows appended by one ``CertCorpus.append_batch``."""
        return self.fold_records(delta.iter_records())

    # -- reading -------------------------------------------------------------

    def results(self) -> Dict[str, Any]:
        """Every registered section's *current* result.

        Safe to call between (or during, via the lock) folds: the
        reducers build fresh outputs from the live states without
        mutating them, so folding continues seamlessly afterwards.
        """
        with self._lock:
            return self.graph.results_from_states(self._states)

    def to_dict(self) -> Dict[str, Any]:
        """The version-1 analytics snapshot (``GET /analytics`` body).

        Known sections serialize to plain JSON types::

            {
              "version": 1,
              "records_folded": 1234,
              "batches_folded": 56,
              "sections": {
                "growth":  {ca: [["2018-04-01", 17], ...]},   # Fig 1a
                "rates":   {"2018-04-01": {ca: share}, ...},  # Fig 1b
                "matrix":  {"rows": [...], "cols": [...],     # Table 1
                            "cells": [[ca, log, n], ...]}
              }
            }

        Sections this module does not know (e.g. a leakage pass on a
        custom graph) are included when their result has a
        ``to_dict``, and listed under ``"unserialized"`` otherwise.
        """
        with self._lock:
            results = self.graph.results_from_states(self._states)
            records = self.records_folded
            batches = self.batches_folded
        sections: Dict[str, Any] = {}
        unserialized: List[str] = []
        for name, result in results.items():
            if name == "growth":
                sections[name] = _growth_to_json(result)
            elif name == "rates":
                sections[name] = _rates_to_json(result)
            elif name == "matrix":
                sections[name] = _matrix_to_json(result)
            elif hasattr(result, "to_dict"):
                sections[name] = result.to_dict()
            else:
                unserialized.append(name)
        payload: Dict[str, Any] = {
            "version": ANALYTICS_SCHEMA_VERSION,
            "records_folded": records,
            "batches_folded": batches,
            "sections": sections,
        }
        if unserialized:
            payload["unserialized"] = sorted(unserialized)
        return payload

    def render(self) -> str:
        """A deterministic one-page text summary (``repro watch``)."""
        snapshot = self.to_dict()
        lines = [
            "live analytics "
            f"(schema v{snapshot['version']}, "
            f"{snapshot['records_folded']} records, "
            f"{snapshot['batches_folded']} batches)",
        ]
        sections = snapshot["sections"]
        growth = sections.get("growth")
        if growth is not None:
            lines.append("  growth (Fig 1a): cumulative unique precerts")
            for ca in sorted(growth):
                points = growth[ca]
                total = points[-1][1] if points else 0
                lines.append(f"    {ca}: {total} over {len(points)} days")
        rates = sections.get("rates")
        if rates is not None:
            lines.append(f"  rates (Fig 1b): {len(rates)} days of CA shares")
        matrix = sections.get("matrix")
        if matrix is not None:
            lines.append(
                "  matrix (Table 1): "
                f"{len(matrix['rows'])} CAs x {len(matrix['cols'])} logs, "
                f"{sum(cell[2] for cell in matrix['cells'])} entries"
            )
        return "\n".join(lines)


def _growth_to_json(
    growth: Dict[str, List[Tuple[date, int]]],
) -> Dict[str, List[List[Any]]]:
    return {
        ca: [[day.isoformat(), count] for day, count in points]
        for ca, points in sorted(growth.items())
    }


def _rates_to_json(
    rates: Dict[date, Dict[str, float]],
) -> Dict[str, Dict[str, float]]:
    return {
        day.isoformat(): {ca: rates[day][ca] for ca in sorted(rates[day])}
        for day in sorted(rates)
    }


def _matrix_to_json(matrix: Counter2D) -> Dict[str, Any]:
    return {
        "rows": list(matrix.rows()),
        "cols": list(matrix.cols()),
        "cells": [
            [row, col, count]
            for (row, col), count in sorted(matrix.cells().items())
        ],
    }
