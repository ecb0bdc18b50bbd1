"""Shard planning."""

import pytest

from repro.pipeline.shard import Shard, plan_sequence_shards


class TestShard:
    def test_len_and_slice(self):
        shard = Shard(start=2, stop=5)
        assert len(shard) == 3

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Shard(start=5, stop=2)
        with pytest.raises(ValueError):
            Shard(start=-1, stop=2)


class TestPlanSequenceShards:
    def test_partitions_exactly(self):
        shards = plan_sequence_shards(10, 3)
        assert [(s.start, s.stop) for s in shards] == [
            (0, 3), (3, 6), (6, 9), (9, 10),
        ]
        assert sum(len(s) for s in shards) == 10

    def test_empty_sequence(self):
        assert plan_sequence_shards(0, 4) == []

    def test_single_shard_when_size_covers_all(self):
        shards = plan_sequence_shards(5, 100)
        assert len(shards) == 1
        assert (shards[0].start, shards[0].stop) == (0, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_sequence_shards(10, 0)
        with pytest.raises(ValueError):
            plan_sequence_shards(-1, 4)

