"""A dependency-free metrics registry with deterministic snapshots.

Three instrument kinds, Prometheus-shaped:

* **counters** — monotonically increasing numbers;
* **gauges** — last-set values;
* **histograms** — fixed-bound buckets plus count/sum/min/max.

The mutable :class:`MetricsRegistry` is process-local and thread-safe;
a :class:`MetricsSnapshot` is its frozen, picklable view, and JSON
export sorts keys.  :data:`NULL_METRICS` is the registry every
instrumented layer records into when none is attached: it records
nothing and snapshots empty.

Metric identity is ``name`` plus optional labels, encoded as
``name{key=value,...}`` with label keys sorted — the registry and the
snapshot both key on that string.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

Number = Union[int, float]

#: Default histogram bounds for wall-time observations, in seconds.
DEFAULT_TIME_BOUNDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Bounds for small discrete quantities (retry attempt counts).
COUNT_BOUNDS: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0)

#: Bounds for sequencer merge batch sizes (entries per merge).
BATCH_SIZE_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical metric identity: ``name`` or ``name{k=v,...}``, keys sorted."""
    if "{" in name or "}" in name:
        raise ValueError(f"metric name must not contain braces: {name!r}")
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing number."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A last-set value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Fixed-bound buckets plus count/sum/min/max.

    ``bounds`` are upper bucket edges; an observation lands in the
    first bucket whose bound is >= the value, with one implicit
    overflow bucket at the end (``len(counts) == len(bounds) + 1``).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bounds must be non-empty and sorted, got {bounds}")
        self.bounds = tuple(float(edge) for edge in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


def _histogram_dict(hist: Histogram) -> Dict:
    return {
        "bounds": list(hist.bounds),
        "counts": list(hist.counts),
        "count": hist.count,
        "sum": hist.sum,
        "min": hist.min,
        "max": hist.max,
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, picklable view of a registry.

    ``histograms`` values are plain dicts with keys ``bounds``,
    ``counts``, ``count``, ``sum``, ``min``, ``max`` — the JSON schema
    is exactly :meth:`to_dict` (see docs/API.md).
    """

    counters: Dict[str, Number] = field(default_factory=dict)
    gauges: Dict[str, Number] = field(default_factory=dict)
    histograms: Dict[str, Dict] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()

    # -- accessors -----------------------------------------------------------

    def counter(self, name: str, default: Number = 0) -> Number:
        return self.counters.get(name, default)

    def gauge(self, name: str, default: Number = 0) -> Number:
        return self.gauges.get(name, default)

    def histogram_count(self, name: str) -> int:
        hist = self.histograms.get(name)
        return hist["count"] if hist else 0

    def counter_total(self, prefix: str) -> Number:
        """Sum of every counter whose key starts with ``prefix``."""
        return sum(
            value for key, value in self.counters.items()
            if key.startswith(prefix)
        )

    def labeled(self, name: str) -> Dict[str, Number]:
        """Counters of one metric family, keyed by their label block."""
        opening = name + "{"
        return {
            key[len(opening) - 1 :]: value
            for key, value in self.counters.items()
            if key.startswith(opening)
        }

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "version": 1,
            "counters": {key: self.counters[key] for key in sorted(self.counters)},
            "gauges": {key: self.gauges[key] for key in sorted(self.gauges)},
            "histograms": {
                key: {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                    "min": hist["min"],
                    "max": hist["max"],
                }
                for key, hist in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={
                key: dict(hist)
                for key, hist in data.get("histograms", {}).items()
            },
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        return cls.from_dict(json.loads(text))

    def write(self, path: Union[str, Path]) -> Path:
        """Write the snapshot as JSON; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path


class MetricsRegistry:
    """Mutable, process-local metric store.

    Instruments are created on first touch and identified by
    ``metric_key(name, labels)``.  Thread-safe: one internal lock
    covers registration, recording through :meth:`inc` /
    :meth:`set_gauge` / :meth:`observe` and :meth:`snapshot`, so
    handler threads and a merge worker can share one registry.  The
    lock is recreated on unpickle, so a registry crosses a process
    pool as a copy.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()

    def __getstate__(self) -> Dict[str, object]:
        return {key: value for key, value in vars(self).items() if key != "_lock"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state, _lock=threading.RLock())

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        with self._lock:
            return self._counters.setdefault(metric_key(name, labels), Counter())

    def gauge(self, name: str, **labels: object) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(metric_key(name, labels), Gauge())

    def histogram(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS,
        **labels: object,
    ) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(bounds)
            elif instrument.bounds != tuple(float(edge) for edge in bounds):
                raise ValueError(
                    f"histogram {key!r} already registered with bounds "
                    f"{instrument.bounds}, got {bounds}"
                )
            return instrument

    # -- convenience recording ----------------------------------------------

    def inc(self, name: str, amount: Number = 1, **labels: object) -> None:
        with self._lock:
            self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        with self._lock:
            self.gauge(name, **labels).set(value)

    def observe(
        self,
        name: str,
        value: Number,
        bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS,
        **labels: object,
    ) -> None:
        with self._lock:
            self.histogram(name, bounds, **labels).observe(value)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                counters={key: c.value for key, c in self._counters.items()},
                gauges={key: g.value for key, g in self._gauges.items()},
                histograms={
                    key: _histogram_dict(hist)
                    for key, hist in self._histograms.items()
                },
            )

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class _NullMetrics(MetricsRegistry):
    """A registry that keeps nothing; see :data:`NULL_METRICS`."""

    def counter(self, name: str, **labels: object) -> Counter:
        return Counter()

    def gauge(self, name: str, **labels: object) -> Gauge:
        return Gauge()

    def histogram(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS,
        **labels: object,
    ) -> Histogram:
        return Histogram(bounds)

    def inc(self, name: str, amount: Number = 1, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: Number, **labels: object) -> None:
        pass

    def observe(
        self,
        name: str,
        value: Number,
        bounds: Tuple[float, ...] = DEFAULT_TIME_BOUNDS,
        **labels: object,
    ) -> None:
        pass

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def __reduce__(self) -> str:
        return "NULL_METRICS"


#: The default ``metrics=`` of every instrumented layer: recording does
#: nothing, instruments it hands out are registered nowhere, and
#: ``snapshot()`` is empty.  Pickles back to this same object.
NULL_METRICS: MetricsRegistry = _NullMetrics()
