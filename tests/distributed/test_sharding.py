"""Equal slices of each batch, and shard-local data materialization.

The reproducibility contract: a rank's slice is a pure function of
``(n, world_size, rank)``; the slices partition each batch in order with
sizes that differ by at most one, so every rank waits on the same amount
of work; and a worker materializing only some rows gets bit-identical
data to slicing the full corpus — across generation-block boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.specs import (
    GENERATION_BLOCK,
    materialize_data_spec,
    materialize_spec_rows,
    synthetic_windows_spec,
)
from repro.distributed import shard_slice
from repro.distributed.worker import _Shard


def _bounds(n: int, world: int) -> list[tuple[int, int]]:
    return [(piece.start, piece.stop)
            for piece in (shard_slice(n, world, rank) for rank in range(world))]


def _rank_rows(indices, world: int) -> list[np.ndarray]:
    """What each rank's ``_Shard`` gathers from a batch of ``indices``
    (rows of an identity corpus, so a row is its own index)."""
    corpus = np.arange(max(indices.max() + 1, 1) if indices.size else 1)
    return [_Shard(corpus, rank, world).batch(indices) for rank in range(world)]


class TestShardBounds:
    def test_partition_is_exact_and_contiguous(self):
        for total in (0, 1, 7, 32, 40, 4097):
            for world in (1, 2, 3, 5):
                shards = _bounds(total, world)
                assert len(shards) == world
                assert shards[0][0] == 0
                assert shards[-1][1] == total
                for left, right in zip(shards, shards[1:]):
                    assert left[1] == right[0]
                sizes = [hi - lo for lo, hi in shards]
                assert sum(sizes) == total
                assert max(sizes) - min(sizes) <= 1

    def test_remainder_goes_to_first_ranks(self):
        assert [hi - lo for lo, hi in _bounds(10, 4)] == [3, 3, 2, 2]

    def test_deterministic(self):
        assert _bounds(1000, 3) == _bounds(1000, 3)

    def test_world_one_is_everything(self):
        assert shard_slice(42, 1, 0) == slice(0, 42)

    def test_assignment_matches_bounds(self):
        # Rank r owns bounds[r]; the two remainder rows go to ranks 0, 1.
        assert _bounds(11, 3) == [(0, 4), (4, 8), (8, 11)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_slice(-1, 2, 0)
        with pytest.raises(ValueError):
            shard_slice(8, 2, 2)


class TestLocalIndices:
    def test_partition_of_any_permutation(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(100)
        for world in (1, 2, 3):
            locals_ = _rank_rows(perm, world)
            # Concatenated in rank order, the slices are the batch itself.
            assert np.array_equal(np.concatenate(locals_), perm)

    def test_preserves_order(self):
        perm = np.array([9, 2, 7, 0, 5, 3])
        first, second = _rank_rows(perm, 2)
        assert first.tolist() == [9, 2, 7]  # batch order, not sorted
        assert second.tolist() == [0, 5, 3]

    def test_world_one_takes_the_batch_unchanged(self):
        perm = np.random.default_rng(4).permutation(37)
        mine, = _rank_rows(perm, 1)
        assert np.array_equal(mine, perm)

    def test_short_tail_batch_leaves_the_last_ranks_empty(self):
        tail = np.array([17, 4])
        rows = _rank_rows(tail, 4)
        assert [part.tolist() for part in rows] == [[17], [4], [], []]

    def test_world_two_splits_every_batch_evenly(self):
        # With the corpus split in halves instead, a rank's share of a
        # random batch of 32 would be Binomial(32, 1/2): 16/16 only about
        # one batch in seven.
        rng = np.random.default_rng(0)
        corpus = np.arange(8192)
        shards = [_Shard(corpus, rank, 2) for rank in range(2)]
        for __ in range(200):
            batch = rng.permutation(8192)[:32]
            assert [len(shard.batch(batch)) for shard in shards] == [16, 16]


class TestMaterializeSpecRows:
    def test_matches_full_materialization(self):
        spec = synthetic_windows_spec(windows=50, seq_len=8, channels=2,
                                      seed=3)
        full = materialize_data_spec(spec)
        for start, stop in ((0, 50), (10, 37), (49, 50), (5, 5)):
            rows = materialize_spec_rows(spec, start, stop)
            assert np.array_equal(rows, full[start:stop])

    def test_crosses_generation_block_boundary(self):
        windows = GENERATION_BLOCK + 10
        spec = synthetic_windows_spec(windows=windows, seq_len=4, channels=1,
                                      seed=0)
        start, stop = GENERATION_BLOCK - 3, GENERATION_BLOCK + 5
        rows = materialize_spec_rows(spec, start, stop)
        full = materialize_data_spec(spec)
        assert np.array_equal(rows, full[start:stop])

    def test_sharded_generation_reassembles_the_corpus(self):
        spec = synthetic_windows_spec(windows=101, seq_len=8, channels=2,
                                      seed=7)
        full = materialize_data_spec(spec)
        parts = [materialize_spec_rows(spec, lo, hi)
                 for lo, hi in _bounds(101, 4)]
        assert np.array_equal(np.concatenate(parts), full)

    def test_rejects_bad_ranges(self):
        spec = synthetic_windows_spec(windows=10, seq_len=4, channels=1)
        with pytest.raises(ValueError):
            materialize_spec_rows(spec, -1, 5)
        with pytest.raises(ValueError):
            materialize_spec_rows(spec, 3, 11)
        with pytest.raises(ValueError):
            materialize_spec_rows(spec, 7, 3)
