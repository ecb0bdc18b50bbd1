"""Retry with bounded, seeded, exponential backoff.

:class:`RetryPolicy` is the one retry loop shared by the feed, the
monitors, and the pipeline engine.  Classification is explicit:
overloads and transient faults are worth retrying, a disqualified log
is terminal.  Jitter draws from a :class:`repro.util.rng.SeededRng`
substream so a seeded run schedules the exact same delays every time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, Type

from repro.ct.log import LogDisqualifiedError, LogOverloadedError
from repro.obs.metrics import COUNT_BOUNDS, NULL_METRICS, MetricsRegistry
from repro.resilience.faults import TransientLogError
from repro.util.rng import SeededRng

#: Exceptions a retry can plausibly outwait.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    LogOverloadedError,
    TransientLogError,
    TimeoutError,
    ConnectionError,
)

#: Exceptions no amount of retrying fixes.
DEFAULT_TERMINAL: Tuple[Type[BaseException], ...] = (LogDisqualifiedError,)


class RetryExhaustedError(RuntimeError):
    """All attempts failed; ``__cause__`` is the last error."""

    def __init__(self, message: str, attempts: int) -> None:
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):
        # args holds only the message, so default exception pickling
        # would drop ``attempts`` (and break process pools relaying us).
        return (type(self), (self.args[0] if self.args else "", self.attempts))


@dataclass(frozen=True)
class RetryOutcome:
    """A successful call plus how hard it was to get there."""

    value: Any
    attempts: int

    @property
    def retried(self) -> int:
        return self.attempts - 1


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (``1`` disables retrying).
    base_delay_s / multiplier / max_delay_s:
        Backoff schedule: the delay after failed attempt *n* is
        ``min(max_delay_s, base_delay_s * multiplier**(n-1))``.
    jitter:
        Fractional jitter; each delay is scaled by a deterministic
        factor drawn uniformly from ``[1-jitter, 1+jitter]``.
    rng:
        Seeded stream for jitter (defaults to ``SeededRng(0, "retry")``).
    retryable / terminal:
        Exception classes to retry / to fail immediately on; terminal
        wins when a class appears in both.
    sleep:
        Injection point for the delay (defaults to :func:`time.sleep`);
        tests pass a recorder to avoid real waiting.
    metrics:
        A :class:`repro.obs.MetricsRegistry`.  Each completed
        ``run`` observes its attempt count into the ``retry.attempts``
        histogram; each backoff delay lands in ``retry.backoff_seconds``
        and bumps the ``retry.retries`` counter; exhaustion bumps
        ``retry.exhausted``.  The registry is process-local: a policy
        pickled into a pool worker records into the *copy*, so
        engine-level attempt counters are the cross-process source of
        truth.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.1
    rng: Optional[SeededRng] = None
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE
    terminal: Tuple[Type[BaseException], ...] = DEFAULT_TERMINAL
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    metrics: MetricsRegistry = field(
        default=NULL_METRICS, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.rng is None:
            self.rng = SeededRng(0, "retry")

    # -- classification ------------------------------------------------------

    def is_retryable(self, exc: BaseException) -> bool:
        """Terminal classes always lose; otherwise match ``retryable``."""
        if isinstance(exc, self.terminal):
            return False
        return isinstance(exc, self.retryable)

    # -- schedule ------------------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """Delay after the ``attempt``-th failure (1-based), jittered."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1))
        if delay <= 0.0:
            return 0.0
        if self.jitter:
            delay *= 1.0 + self.jitter * self.rng.uniform(-1.0, 1.0)
        return max(0.0, delay)

    # -- the loop ------------------------------------------------------------

    def run(
        self,
        fn: Callable[[], Any],
        *,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> RetryOutcome:
        """Call ``fn`` until it succeeds or attempts run out.

        Non-retryable errors propagate unchanged on the spot;
        exhaustion raises :class:`RetryExhaustedError` chained to the
        last error.  ``on_retry(attempt, exc)`` fires before each
        backoff sleep.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                value = fn()
            except Exception as exc:
                if not self.is_retryable(exc):
                    raise
                if attempt >= self.max_attempts:
                    self.metrics.inc("retry.exhausted")
                    self.metrics.observe(
                        "retry.attempts", attempt, bounds=COUNT_BOUNDS
                    )
                    raise RetryExhaustedError(
                        f"gave up after {attempt} attempt(s): {exc!r}",
                        attempts=attempt,
                    ) from exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                delay = self.backoff_delay(attempt)
                self.metrics.inc("retry.retries")
                self.metrics.observe("retry.backoff_seconds", delay)
                if delay > 0.0:
                    self.sleep(delay)
                continue
            self.metrics.observe("retry.attempts", attempt, bounds=COUNT_BOUNDS)
            return RetryOutcome(value=value, attempts=attempt)
