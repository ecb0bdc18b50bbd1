"""Per-log health verdicts: the SLO engine over the fetch counters.

The paper's Section 2 observation — log load concentrates on a handful
of logs, so the ecosystem's health hinges on a few operators — is
exactly the condition a per-log health view detects in a running
monitoring loop.  This module folds the per-log counters that the
feed's and the monitors' log tails already keep (entries, errors,
retries, successes, and the consecutive-failure streak, i.e.
staleness) into one of three SLO verdicts per log:

* ``healthy`` — fetches succeed, error ratio within budget, no retry
  churn;
* ``degraded`` — the log answers, but only after retries, or its error
  ratio exceeds the policy budget (it is being served by the retry
  layer, not by the log);
* ``failing`` — the log has not answered for ``failing_after``
  consecutive fetches: its cursor is stale and entries are piling up
  unseen.

Verdicts are pure functions of the counters and the
:class:`SloPolicy` — no clocks, no I/O — so the same counters always
yield the same report, and the report is cheap enough to compute on
every ``/health`` scrape.

The *write path* has its own failure modes the fetch counters never
see: a sequencer that accepts submissions but merges them late (SCTs
are promises — a slow merge silently stretches the MMD), and a log
server shedding load with 429/410 responses.  :func:`evaluate_write_path`
folds ``sequencer.merge_lag_seconds{log=}`` histograms and the
``log_server.responses{status=429|410}`` counters from a
:class:`~repro.obs.metrics.MetricsSnapshot` into the same three
verdicts, so ``repro status`` surfaces slow merges and overload, not
just fetch errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsSnapshot

#: Verdicts ordered from best to worst; ``overall`` is the worst seen.
VERDICTS = ("healthy", "degraded", "failing")


@dataclass(frozen=True)
class SloPolicy:
    """Thresholds that turn counters into verdicts.

    ``failing_after``: consecutive failed fetches before a log is
    ``failing`` (staleness: its cursor has not advanced for that many
    attempts).  ``max_error_ratio``: errors / (successes + errors)
    budget; above it the log is ``degraded`` even though it currently
    answers.  ``degraded_retries``: total retries at or above which a
    log is ``degraded`` — it recovers, but only through the retry
    layer.

    Write-path thresholds (see :func:`evaluate_write_path`):
    ``degraded_merge_lag_s`` / ``failing_merge_lag_s`` bound the worst
    observed submission-to-merge lag before a sequenced log is
    ``degraded`` / ``failing`` (an SCT is an MMD promise — lag is how
    close the log is to breaking it); ``max_overload_ratio`` /
    ``failing_overload_ratio`` bound the fraction of responses shed as
    429/410 before the serving front end is ``degraded`` / ``failing``.
    """

    failing_after: int = 3
    max_error_ratio: float = 0.1
    degraded_retries: int = 1
    degraded_merge_lag_s: float = 30.0
    failing_merge_lag_s: float = 120.0
    max_overload_ratio: float = 0.05
    failing_overload_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.failing_after < 1:
            raise ValueError(
                f"failing_after must be >= 1, got {self.failing_after}"
            )
        if not 0.0 <= self.max_error_ratio <= 1.0:
            raise ValueError(
                f"max_error_ratio must be in [0, 1], got {self.max_error_ratio}"
            )
        if self.degraded_retries < 1:
            raise ValueError(
                f"degraded_retries must be >= 1, got {self.degraded_retries}"
            )
        if self.degraded_merge_lag_s <= 0.0:
            raise ValueError(
                f"degraded_merge_lag_s must be > 0, got {self.degraded_merge_lag_s}"
            )
        if self.failing_merge_lag_s < self.degraded_merge_lag_s:
            raise ValueError(
                "failing_merge_lag_s must be >= degraded_merge_lag_s, got "
                f"{self.failing_merge_lag_s} < {self.degraded_merge_lag_s}"
            )
        if not 0.0 <= self.max_overload_ratio <= 1.0:
            raise ValueError(
                f"max_overload_ratio must be in [0, 1], got {self.max_overload_ratio}"
            )
        if not self.max_overload_ratio <= self.failing_overload_ratio <= 1.0:
            raise ValueError(
                "failing_overload_ratio must be in [max_overload_ratio, 1], "
                f"got {self.failing_overload_ratio}"
            )


DEFAULT_POLICY = SloPolicy()


@dataclass(frozen=True)
class LogHealth:
    """One log's verdict plus the counters it was derived from."""

    log: str
    verdict: str
    entries: int
    successes: int
    errors: int
    retries: int
    consecutive_failures: int
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "entries": self.entries,
            "successes": self.successes,
            "errors": self.errors,
            "retries": self.retries,
            "consecutive_failures": self.consecutive_failures,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class HealthReport:
    """Per-log verdicts plus the roll-up; the ``/health`` payload."""

    logs: Tuple[LogHealth, ...]

    @property
    def overall(self) -> str:
        """The worst per-log verdict (``healthy`` when there are none)."""
        worst = 0
        for health in self.logs:
            worst = max(worst, VERDICTS.index(health.verdict))
        return VERDICTS[worst]

    @property
    def ok(self) -> bool:
        """True unless any log is ``failing``."""
        return self.overall != "failing"

    def verdicts(self) -> Dict[str, str]:
        return {health.log: health.verdict for health in self.logs}

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable report (sorted, JSON-ready)."""
        return {
            "version": 1,
            "overall": self.overall,
            "logs": {
                health.log: health.to_dict()
                for health in sorted(self.logs, key=lambda h: h.log)
            },
        }

    def render(self) -> str:
        """Aligned text table for the ``repro status`` command."""
        rows = sorted(self.logs, key=lambda h: h.log)
        width = max([len("log"), *(len(h.log) for h in rows)], default=3)
        lines = [
            f"Log health — {len(rows)} logs, overall {self.overall}",
            f"  {'log':<{width}}  verdict   entries  errors  retries"
            "  streak  reason",
        ]
        for h in rows:
            lines.append(
                f"  {h.log:<{width}}  {h.verdict:<8}  {h.entries:7d}"
                f"  {h.errors:6d}  {h.retries:7d}"
                f"  {h.consecutive_failures:6d}  {h.reason}"
            )
        return "\n".join(lines)


def evaluate_log(
    log: str,
    stats: Mapping[str, object],
    policy: SloPolicy = DEFAULT_POLICY,
) -> LogHealth:
    """Verdict for one log from its fetch counters.

    ``stats`` keys (all optional, default 0): ``entries``,
    ``successes``, ``errors``, ``retries``, ``consecutive_failures``.
    :meth:`repro.ct.monitor.LogTail.log_health` produces exactly this
    shape, for the feed and the replay monitors alike.
    """
    entries = int(stats.get("entries", 0))  # type: ignore[arg-type]
    successes = int(stats.get("successes", 0))  # type: ignore[arg-type]
    errors = int(stats.get("errors", 0))  # type: ignore[arg-type]
    retries = int(stats.get("retries", 0))  # type: ignore[arg-type]
    streak = int(stats.get("consecutive_failures", 0))  # type: ignore[arg-type]
    attempts = successes + errors
    ratio = (errors / attempts) if attempts else (1.0 if errors else 0.0)

    if streak >= policy.failing_after:
        verdict = "failing"
        reason = f"{streak} consecutive failed fetches"
    elif ratio > policy.max_error_ratio:
        verdict = "degraded"
        reason = (
            f"error ratio {ratio:.0%} exceeds {policy.max_error_ratio:.0%}"
        )
    elif retries >= policy.degraded_retries:
        verdict = "degraded"
        reason = f"recovered only after {retries} retries"
    else:
        verdict = "healthy"
        reason = "ok"
    return LogHealth(
        log=log,
        verdict=verdict,
        entries=entries,
        successes=successes,
        errors=errors,
        retries=retries,
        consecutive_failures=streak,
        reason=reason,
    )


def evaluate_stats(
    stats: Mapping[str, Mapping[str, object]],
    policy: Optional[SloPolicy] = None,
) -> HealthReport:
    """Fold a per-log stats mapping into a :class:`HealthReport`."""
    policy = policy if policy is not None else DEFAULT_POLICY
    return HealthReport(
        logs=tuple(
            evaluate_log(log, stats[log], policy) for log in sorted(stats)
        )
    )


#: Response statuses that count as load shedding on the write path.
OVERLOAD_STATUSES = ("429", "410")


@dataclass(frozen=True)
class WritePathHealth:
    """One write-path verdict row plus the numbers it derives from.

    Sequenced-log rows carry merge counters (``responses`` /
    ``overloaded`` stay 0); the serving front end's row carries the
    response ledger (``merges`` stays 0, ``max_lag_s`` None) —
    ``log_server.responses`` is labelled per endpoint/status, not per
    log, so overload is a per-server aggregate.
    """

    name: str
    verdict: str
    merges: int
    entries_merged: int
    max_lag_s: Optional[float]
    responses: int
    overloaded: int
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "merges": self.merges,
            "entries_merged": self.entries_merged,
            "max_lag_s": self.max_lag_s,
            "responses": self.responses,
            "overloaded": self.overloaded,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class WritePathReport:
    """Write-path verdicts; same roll-up semantics as :class:`HealthReport`."""

    rows: Tuple[WritePathHealth, ...]

    @property
    def overall(self) -> str:
        worst = 0
        for row in self.rows:
            worst = max(worst, VERDICTS.index(row.verdict))
        return VERDICTS[worst]

    @property
    def ok(self) -> bool:
        return self.overall != "failing"

    def verdicts(self) -> Dict[str, str]:
        return {row.name: row.verdict for row in self.rows}

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "overall": self.overall,
            "rows": {
                row.name: row.to_dict()
                for row in sorted(self.rows, key=lambda r: r.name)
            },
        }

    def render(self) -> str:
        rows = sorted(self.rows, key=lambda r: r.name)
        width = max([len("target"), *(len(r.name) for r in rows)], default=6)
        lines = [
            f"Write-path health — {len(rows)} targets, overall {self.overall}",
            f"  {'target':<{width}}  verdict   merges  entries  lag_s"
            "  shed  reason",
        ]
        for r in rows:
            lag = f"{r.max_lag_s:5.1f}" if r.max_lag_s is not None else "    -"
            lines.append(
                f"  {r.name:<{width}}  {r.verdict:<8}  {r.merges:6d}"
                f"  {r.entries_merged:7d}  {lag}"
                f"  {r.overloaded:4d}  {r.reason}"
            )
        return "\n".join(lines)


def evaluate_write_path(
    snapshot: "MetricsSnapshot",
    policy: Optional[SloPolicy] = None,
    server: str = "log_server",
) -> WritePathReport:
    """Write-path verdicts from a metrics snapshot.

    One row per sequenced log (from the
    ``sequencer.merge_lag_seconds{log=}`` histogram and the merge
    counters) judged on worst observed merge lag, plus one row named
    ``server`` for the serving front end, judged on the fraction of
    responses shed as 429/410.  Pure function of the snapshot and the
    policy, like :func:`evaluate_stats`.
    """
    from repro.obs.export import split_metric_key

    policy = policy if policy is not None else DEFAULT_POLICY
    rows = []
    seen_logs = set()
    for key, hist in sorted(snapshot.histograms.items()):
        base, labels = split_metric_key(key)
        if base != "sequencer.merge_lag_seconds" or "log" not in labels:
            continue
        log = labels["log"]
        seen_logs.add(log)
        max_lag = float(hist["max"]) if hist["max"] is not None else 0.0
        merges = int(snapshot.counter(f"sequencer.merges{{log={log}}}"))
        entries = int(snapshot.counter(f"sequencer.entries_merged{{log={log}}}"))
        if max_lag > policy.failing_merge_lag_s:
            verdict = "failing"
            reason = (
                f"merge lag {max_lag:.1f}s exceeds "
                f"{policy.failing_merge_lag_s:.0f}s"
            )
        elif max_lag > policy.degraded_merge_lag_s:
            verdict = "degraded"
            reason = (
                f"merge lag {max_lag:.1f}s exceeds "
                f"{policy.degraded_merge_lag_s:.0f}s"
            )
        else:
            verdict = "healthy"
            reason = "ok"
        rows.append(
            WritePathHealth(
                name=log,
                verdict=verdict,
                merges=merges,
                entries_merged=entries,
                max_lag_s=round(max_lag, 3),
                responses=0,
                overloaded=0,
                reason=reason,
            )
        )

    responses = 0
    overloaded = 0
    for key, value in snapshot.counters.items():
        base, labels = split_metric_key(key)
        if base != "log_server.responses":
            continue
        responses += int(value)
        if labels.get("status") in OVERLOAD_STATUSES:
            overloaded += int(value)
    if responses:
        ratio = overloaded / responses
        if ratio > policy.failing_overload_ratio:
            verdict = "failing"
            reason = (
                f"shed {ratio:.0%} of responses (429/410) exceeds "
                f"{policy.failing_overload_ratio:.0%}"
            )
        elif ratio > policy.max_overload_ratio:
            verdict = "degraded"
            reason = (
                f"shed {ratio:.0%} of responses (429/410) exceeds "
                f"{policy.max_overload_ratio:.0%}"
            )
        else:
            verdict = "healthy"
            reason = "ok"
        rows.append(
            WritePathHealth(
                name=server,
                verdict=verdict,
                merges=0,
                entries_merged=0,
                max_lag_s=None,
                responses=responses,
                overloaded=overloaded,
                reason=reason,
            )
        )
    return WritePathReport(rows=tuple(rows))
