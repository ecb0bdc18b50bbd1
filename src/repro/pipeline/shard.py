"""Shard planning: split corpora into independently processable chunks.

Every pass shards its corpus (a connection stream, the CT FQDN list,
a stored harvest's entry sequence) into contiguous half-open index
ranges ``[start, stop)`` of one source.

The plan lists shards in source order, which fixes the merge order:
reducing partials in plan order reproduces the serial iteration order
exactly, which is what keeps parallel outputs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Default entries per shard; small enough to balance a pool, large
#: enough that per-task overhead stays negligible.
DEFAULT_SHARD_SIZE = 4096


@dataclass(frozen=True)
class Shard:
    """A half-open range ``[start, stop)`` of one source's items."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid shard range [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start


def plan_sequence_shards(total: int, shard_size: int = DEFAULT_SHARD_SIZE) -> List[Shard]:
    """Split ``total`` items into index-range shards, in source order."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    return [
        Shard(start, min(start + shard_size, total))
        for start in range(0, total, shard_size)
    ]
