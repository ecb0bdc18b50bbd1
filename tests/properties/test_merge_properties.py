"""Merge algebra property of the Fig. 1c reducer.

Parallel correctness rests on the Fig. 1c ``matrix_reduce`` folding
*any* contiguous shard split of a stream to the serial matrix,
including row/column order; checked here over randomized inputs
(seeded stdlib ``random``, so failures replay exactly).
"""

import random

from repro.core.evolution import matrix_reduce
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
