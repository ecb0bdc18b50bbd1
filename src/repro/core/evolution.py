"""Section 2: the timeline of CT log evolution (Figures 1a-1c).

All three figures are computed from the contents of the logs
themselves — exactly how the paper harvested "data of all CT log
servers deployed" — never from the workload's bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.ct.log import CTLog
from repro.ct.sct import SctEntryType
from repro.util.stats import Counter2D, gini
from repro.util.timeutil import month_key


def _precert_entries(logs: Iterable[CTLog]):
    for log in logs:
        for entry in log.entries:
            if entry.entry_type is SctEntryType.PRECERT_ENTRY:
                yield log, entry


#: A precertificate observation: (issuer org, serial, submission day).
#: The (issuer, serial) pair identifies a unique precert across logs.
PrecertRecord = Tuple[str, int, date]

#: A log-load observation: (issuer org, log name, month key).
MatrixRecord = Tuple[str, str, str]


def growth_records(logs: Iterable[CTLog]) -> Iterator[PrecertRecord]:
    """Flatten logs into the records Figures 1a/1b aggregate over."""
    for _, entry in _precert_entries(logs):
        cert = entry.certificate
        yield cert.issuer_org, cert.serial, entry.submitted_at.date()


def matrix_records(logs: Iterable[CTLog]) -> Iterator[MatrixRecord]:
    """Flatten logs into the records Figure 1c aggregates over."""
    for log, entry in _precert_entries(logs):
        yield (
            entry.certificate.issuer_org,
            log.name,
            month_key(entry.submitted_at.date()),
        )


def growth_fold(
    firsts: Dict[Tuple[str, int], date], issuer_org: str, serial: int, day: date
) -> None:
    """Fold one precert observation into a shard-local firsts dict.

    Shared by :func:`growth_map` and the fused corpus traversal
    (:mod:`repro.dataset.sections`), so both keep identical
    first-submission semantics.
    """
    key = (issuer_org, serial)
    if key not in firsts:
        firsts[key] = day


def growth_map(records: Iterable[PrecertRecord]) -> Dict[Tuple[str, int], date]:
    """Map step shared by Figures 1a and 1b: shard-local dedup.

    Keeps, in stream order, the first submission day of every unique
    (issuer, serial) seen in this shard; the reduce steps finish the
    deduplication across shards.
    """
    firsts: Dict[Tuple[str, int], date] = {}
    for issuer_org, serial, day in records:
        growth_fold(firsts, issuer_org, serial, day)
    return firsts


def growth_reduce(
    partials: Iterable[Dict[Tuple[str, int], date]],
    *,
    start: Optional[date] = None,
    end: Optional[date] = None,
) -> Dict[str, List[Tuple[date, int]]]:
    """Reduce step of Figure 1a; partials must arrive in shard order."""
    daily_new: Dict[str, Dict[date, int]] = defaultdict(lambda: defaultdict(int))
    seen: Set[Tuple[str, int]] = set()
    for partial in partials:
        for key, day in partial.items():
            if key in seen:
                continue
            seen.add(key)
            if start is not None and day < start:
                continue
            if end is not None and day > end:
                continue
            daily_new[key[0]][day] += 1
    growth: Dict[str, List[Tuple[date, int]]] = {}
    for ca, per_day in daily_new.items():
        total = 0
        series = []
        for day in sorted(per_day):
            total += per_day[day]
            series.append((day, total))
        growth[ca] = series
    return growth


def rates_reduce(
    partials: Iterable[Dict[Tuple[str, int], date]],
) -> Dict[date, Dict[str, float]]:
    """Reduce step of Figure 1b; partials must arrive in shard order."""
    per_day: Dict[date, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    seen: Set[Tuple[str, int]] = set()
    for partial in partials:
        for key, day in partial.items():
            if key in seen:
                continue
            seen.add(key)
            per_day[day][key[0]] += 1
    shares: Dict[date, Dict[str, float]] = {}
    for day, counts in per_day.items():
        total = sum(counts.values())
        shares[day] = {ca: count / total for ca, count in counts.items()}
    return shares


def matrix_map(records: Iterable[MatrixRecord], month: str) -> Counter2D:
    """Map step of Figure 1c: one shard's (CA, log) entry counts."""
    matrix = Counter2D()
    for issuer_org, log_name, entry_month in records:
        if entry_month != month:
            continue
        matrix.add(issuer_org, log_name, 1)
    return matrix


def matrix_reduce(partials: Iterable[Counter2D]) -> Counter2D:
    """Reduce step of Figure 1c; partials must arrive in shard order."""
    merged = Counter2D()
    for partial in partials:
        merged.update(partial)
    return merged


def _sections(logs: Dict[str, CTLog], **window: Any) -> Dict[str, Any]:
    """Figures 1a-1c over the shared columnar corpus, one traversal."""
    from repro.dataset import CertCorpus, analyze, section2_graph

    corpus = CertCorpus.from_logs(logs, with_names=False)
    return analyze(corpus, section2_graph(**window))


def cumulative_precert_growth(
    logs: Dict[str, CTLog],
    *,
    start: Optional[date] = None,
    end: Optional[date] = None,
) -> Dict[str, List[Tuple[date, int]]]:
    """Figure 1a: cumulative count of *unique* precertificates per CA.

    A precertificate submitted to several logs counts once (identified
    by issuer + serial).  Returns, per CA, a day-indexed cumulative
    series covering only days with activity plus the series endpoints.
    Thin wrapper over the shared columnar corpus (one fused traversal);
    equals ``growth_reduce([growth_map(growth_records(...))])``.
    """
    return _sections(logs, start=start, end=end)["growth"]


def relative_daily_rates(
    logs: Dict[str, CTLog],
) -> Dict[date, Dict[str, float]]:
    """Figure 1b: each CA's share of the day's newly logged precerts."""
    return _sections(logs)["rates"]


def ca_log_matrix(
    logs: Dict[str, CTLog], month: str = "2018-04"
) -> Counter2D:
    """Figure 1c: precertificate log *entries* per (CA, log) in a month.

    Unlike 1a this counts entries, not unique precerts: the figure
    shows how logging load lands on logs.  Thin wrapper over the
    shared columnar corpus; equals
    ``matrix_map(matrix_records(...), month)``.
    """
    return _sections(logs, month=month)["matrix"]


@dataclass(frozen=True)
class LogLoadReport:
    """Concentration diagnostics behind the Section 2 discussion."""

    entries_per_log: Dict[str, int]
    gini_coefficient: float
    top_share: float
    overloaded_logs: Tuple[str, ...]
    matrix_density: float


def log_load_report(
    logs: Dict[str, CTLog],
    month: str = "2018-04",
    matrix: Optional[Counter2D] = None,
) -> LogLoadReport:
    """Quantify the (un)balanced utilization of logs the paper warns about.

    ``matrix`` may be a precomputed :func:`ca_log_matrix` for the same
    month (e.g. from the sharded pipeline) to avoid a second scan.
    """
    if matrix is None:
        matrix = ca_log_matrix(logs, month)
    per_log = {name: matrix.col_total(name) for name in matrix.cols()}
    total = sum(per_log.values())
    values = list(per_log.values())
    # Logs with zero load this month count toward concentration.
    for log in logs.values():
        if log.name not in per_log:
            values.append(0)
    return LogLoadReport(
        entries_per_log=per_log,
        gini_coefficient=gini(values) if values else 0.0,
        top_share=(max(values) / total) if total else 0.0,
        overloaded_logs=tuple(
            log.name for log in logs.values() if log.was_overloaded()
        ),
        matrix_density=matrix.density(),
    )


def crossover_dates(
    growth: Dict[str, List[Tuple[date, int]]],
) -> Dict[Tuple[str, str], date]:
    """When each CA's cumulative count first overtakes another's.

    Figure 1a's narrative is a sequence of crossovers — most notably
    Let's Encrypt racing past every long-established CA within weeks.
    Returns ``(riser, overtaken) -> first date`` for every pair where
    the riser ends above a CA it once trailed.
    """
    if not growth:
        return {}
    start = min(series[0][0] for series in growth.values() if series)
    end = max(series[-1][0] for series in growth.values() if series)
    days = (end - start).days + 1
    dense: Dict[str, List[int]] = {}
    for ca, series in growth.items():
        values = [0] * days
        for day, value in series:
            values[(day - start).days] = value
        running = 0
        for index in range(days):
            running = max(running, values[index])
            values[index] = running
        dense[ca] = values
    crossovers: Dict[Tuple[str, str], date] = {}
    cas = list(dense)
    for riser in cas:
        for other in cas:
            if riser == other:
                continue
            # Must have trailed at some point and lead at the end.
            if dense[riser][-1] <= dense[other][-1]:
                continue
            trailed = False
            for index in range(days):
                if dense[riser][index] < dense[other][index]:
                    trailed = True
                elif trailed and dense[riser][index] > dense[other][index]:
                    crossovers[(riser, other)] = start + timedelta(days=index)
                    break
    return crossovers


@dataclass(frozen=True)
class RebalancingPlan:
    """Section 2's recommendation, quantified.

    "We argue that CAs should distribute their logging load more
    evenly among logs and log operators."  The plan redistributes each
    CA's monthly entries evenly across all qualified logs and reports
    the concentration before/after.
    """

    gini_before: float
    gini_after: float
    top_share_before: float
    top_share_after: float
    #: log name -> (entries before, entries after)
    per_log: Dict[str, Tuple[int, int]]

    @property
    def gini_reduction(self) -> float:
        if self.gini_before == 0:
            return 0.0
        return 1.0 - self.gini_after / self.gini_before


def rebalancing_plan(
    logs: Dict[str, CTLog], month: str = "2018-04"
) -> RebalancingPlan:
    """Compute the even-spread counterfactual for one month's load."""
    matrix = ca_log_matrix(logs, month)
    eligible = [
        log.name
        for log in logs.values()
        if log.chrome_inclusion is not None and not log.disqualified
    ]
    before = {name: matrix.col_total(name) for name in eligible}
    total = sum(before.values())
    base, remainder = divmod(total, len(eligible)) if eligible else (0, 0)
    after = {
        name: base + (1 if index < remainder else 0)
        for index, name in enumerate(sorted(eligible))
    }
    before_values = list(before.values())
    after_values = list(after.values())
    return RebalancingPlan(
        gini_before=gini(before_values) if before_values else 0.0,
        gini_after=gini(after_values) if after_values else 0.0,
        top_share_before=(max(before_values) / total) if total else 0.0,
        top_share_after=(max(after_values) / total) if total else 0.0,
        per_log={name: (before[name], after[name]) for name in eligible},
    )


def top_ca_share(
    logs: Dict[str, CTLog], month: str = "2018-04", top_n: int = 5
) -> float:
    """Share of the month's unique precerts issued by the top-N CAs
    (the paper: 99 % for the top five in April 2018)."""
    counts: Dict[str, int] = defaultdict(int)
    seen: Set[Tuple[str, int]] = set()
    for _, entry in _precert_entries(logs.values()):
        if month_key(entry.submitted_at.date()) != month:
            continue
        cert = entry.certificate
        key = (cert.issuer_org, cert.serial)
        if key in seen:
            continue
        seen.add(key)
        counts[cert.issuer_org] += 1
    total = sum(counts.values())
    if total == 0:
        return 0.0
    top = sorted(counts.values(), reverse=True)[:top_n]
    return sum(top) / total
