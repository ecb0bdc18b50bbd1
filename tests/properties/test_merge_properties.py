"""Merge algebra properties: the Fig. 1c reducer and metric snapshots.

Parallel correctness rests on two facts checked here over randomized
inputs (seeded stdlib ``random``, so failures replay exactly):

* the Fig. 1c ``matrix_reduce`` folds *any* contiguous shard split of
  a stream to the serial matrix, including row/column order;
* :class:`MetricsSnapshot` merging is associative, commutative, and
  has ``empty()`` as identity — byte-compared via ``to_json`` — so a
  process pool can fold worker snapshots in any grouping.

Float sums stay exact because observations are dyadic rationals
(``k / 1024``), for which IEEE addition is associative.
"""

import random

from repro.core.evolution import matrix_reduce
from repro.obs import COUNT_BOUNDS, MetricsRegistry, MetricsSnapshot
from repro.util.stats import Counter2D

ROUNDS = 25


def _splits(rng, items):
    """A random contiguous partition of ``items`` (possibly empty parts)."""
    cuts = sorted(rng.randrange(0, len(items) + 1) for _ in range(3))
    edges = [0, *cuts, len(items)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def test_counter2d_merge_equals_serial_for_any_split():
    for round_no in range(ROUNDS):
        rng = random.Random(4000 + round_no)
        pairs = [
            (rng.choice("abc"), rng.choice("xyz"))
            for _ in range(rng.randrange(1, 50))
        ]
        serial = Counter2D()
        for row, col in pairs:
            serial.add(row, col)
        partials = []
        for part in _splits(rng, pairs):
            partial = Counter2D()
            for row, col in part:
                partial.add(row, col)
            partials.append(partial)
        merged = matrix_reduce(partials)
        assert merged.cells() == serial.cells()
        assert merged.rows() == serial.rows()  # insertion order preserved
        assert merged.cols() == serial.cols()


def _random_snapshot(rng):
    """A registry filled with dyadic-rational observations, snapshotted."""
    registry = MetricsRegistry()
    for _ in range(rng.randrange(0, 8)):
        registry.inc(rng.choice(("c.alpha", "c.beta")), rng.randrange(1, 9))
    for _ in range(rng.randrange(0, 4)):
        registry.set_gauge("g.peak", rng.randrange(0, 1 << 20) / 1024)
    for _ in range(rng.randrange(0, 8)):
        registry.observe(
            "h.lat",
            rng.randrange(0, 1 << 20) / 1024,
            bounds=COUNT_BOUNDS,
        )
    return registry.snapshot()


def test_snapshot_merge_commutative():
    for round_no in range(ROUNDS):
        rng = random.Random(5000 + round_no)
        a, b = _random_snapshot(rng), _random_snapshot(rng)
        assert a.merge(b).to_json() == b.merge(a).to_json()


def test_snapshot_merge_associative():
    for round_no in range(ROUNDS):
        rng = random.Random(6000 + round_no)
        a, b, c = (_random_snapshot(rng) for _ in range(3))
        assert a.merge(b).merge(c).to_json() == a.merge(b.merge(c)).to_json()


def test_snapshot_merge_identity():
    for round_no in range(ROUNDS):
        rng = random.Random(7000 + round_no)
        snap = _random_snapshot(rng)
        empty = MetricsSnapshot.empty()
        assert empty.merge(snap).to_json() == snap.to_json()
        assert snap.merge(empty).to_json() == snap.to_json()


def test_snapshot_merge_all_order_independent():
    """Folding worker snapshots in any permutation yields the same bytes."""
    for round_no in range(ROUNDS):
        rng = random.Random(8000 + round_no)
        snapshots = [_random_snapshot(rng) for _ in range(rng.randrange(2, 6))]
        reference = MetricsSnapshot.merge_all(snapshots).to_json()
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert MetricsSnapshot.merge_all(shuffled).to_json() == reference
