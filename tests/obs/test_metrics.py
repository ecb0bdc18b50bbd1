"""Unit tests for the metrics registry and its snapshots."""

import pickle
import sys
import threading

import pytest

from repro.obs import (
    COUNT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("pipeline.shards", {}) == "pipeline.shards"

    def test_labels_sorted(self):
        key = metric_key("feed.entries", {"log": "pilot", "kind": "x509"})
        assert key == "feed.entries{kind=x509,log=pilot}"

    def test_label_order_irrelevant(self):
        assert metric_key("m", {"a": 1, "b": 2}) == metric_key(
            "m", {"b": 2, "a": 1}
        )

    def test_braces_rejected(self):
        with pytest.raises(ValueError):
            metric_key("bad{name}", {})


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_set_wins(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(0.25)
        assert gauge.value == 0.25

    def test_histogram_bucket_placement(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            hist.observe(value)
        # 0.5 and 1.0 land at or below the first edge; 3.0 in (2, 4];
        # 100.0 overflows.
        assert hist.counts == [2, 0, 1, 1]
        assert hist.count == 4
        assert hist.sum == 104.5
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.mean == pytest.approx(104.5 / 4)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_empty_histogram_mean(self):
        assert Histogram().mean == 0.0


class TestRegistry:
    def test_instruments_created_on_first_touch(self):
        registry = MetricsRegistry()
        assert len(registry) == 0
        registry.inc("a")
        registry.set_gauge("b", 1)
        registry.observe("c", 0.5)
        assert len(registry) == 3

    def test_same_key_same_instrument(self):
        registry = MetricsRegistry()
        registry.inc("hits", log="pilot")
        registry.inc("hits", log="pilot")
        registry.inc("hits", log="icarus")
        snap = registry.snapshot()
        assert snap.counter("hits{log=pilot}") == 2
        assert snap.counter("hits{log=icarus}") == 1

    def test_histogram_bounds_conflict(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.5)
        with pytest.raises(ValueError):
            registry.histogram("lat", bounds=COUNT_BOUNDS)


class TestSnapshot:
    def _sample(self):
        registry = MetricsRegistry()
        registry.inc("pipeline.shards_completed", 6)
        registry.inc("pipeline.shard_failures", 1, shard=4)
        registry.set_gauge("pipeline.checkpoint_hit_rate", 0.5)
        registry.observe("retry.attempts", 2, bounds=COUNT_BOUNDS)
        return registry.snapshot()

    def test_json_roundtrip(self):
        snap = self._sample()
        again = MetricsSnapshot.from_json(snap.to_json())
        assert again == snap
        assert again.to_json() == snap.to_json()

    def test_write_roundtrip(self, tmp_path):
        snap = self._sample()
        path = snap.write(tmp_path / "metrics.json")
        assert MetricsSnapshot.from_json(path.read_text()) == snap

    def test_to_dict_versioned_and_sorted(self):
        data = self._sample().to_dict()
        assert data["version"] == 1
        assert list(data["counters"]) == sorted(data["counters"])

    def test_counter_total_prefix(self):
        snap = self._sample()
        assert snap.counter_total("pipeline.") == 7
        assert snap.counter_total("nope.") == 0

    def test_labeled_family(self):
        snap = self._sample()
        assert snap.labeled("pipeline.shard_failures") == {"{shard=4}": 1}
        assert snap.labeled("pipeline.shards_completed") == {}

    def test_picklable(self):
        import pickle

        snap = self._sample()
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestThreadSafety:
    def test_snapshot_races_series_registration(self):
        # One thread registers fresh series while another snapshots:
        # iterating the instrument dicts must never see them change
        # size mid-copy.  A short switch interval makes the threads
        # interleave inside a single snapshot.
        registry = MetricsRegistry()
        done = threading.Event()

        def register():
            for n in range(100_000):
                registry.inc("k", n=n)
            done.set()

        writer = threading.Thread(target=register)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writer.start()
            for _ in range(2000):
                if done.is_set():
                    break
                try:
                    registry.snapshot()
                except RuntimeError as exc:
                    errors.append(exc)
            writer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert errors == []
        assert len(registry.snapshot().counters) == 100_000

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()

        def bump():
            for _ in range(2000):
                registry.inc("hits", log="a")
                registry.observe("lat", 0.01, log="a")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = registry.snapshot()
        assert snap.counter("hits{log=a}") == 8000
        assert snap.histogram_count("lat{log=a}") == 8000

    def test_registry_pickles_without_its_lock(self):
        registry = MetricsRegistry()
        registry.inc("hits", 3)
        clone = pickle.loads(pickle.dumps(registry))
        clone.inc("hits")
        assert clone.snapshot().counter("hits") == 4
        assert registry.snapshot().counter("hits") == 3
