"""Shard bounds and shard-local data materialization.

The reproducibility contract: shard layout is a pure function of
``(total, world_size)``, every row belongs to exactly one rank, and a
worker materializing only its own rows gets bit-identical data to
slicing the full corpus — across generation-block boundaries.
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
from repro.distributed import local_indices, shard_bounds


class TestShardBounds:
    def test_partition_is_exact_and_contiguous(self):
        for total in (1, 7, 40, 4097):
            for world in (1, 2, 3, 5):
                shards = shard_bounds(total, world)
                assert len(shards) == world
                assert shards[0][0] == 0
                assert shards[-1][1] == total
                for left, right in zip(shards, shards[1:]):
                    assert left[1] == right[0]
                assert sum(hi - lo for lo, hi in shards) == total

    def test_remainder_goes_to_first_ranks(self):
        shards = shard_bounds(10, 4)
        assert [hi - lo for lo, hi in shards] == [3, 3, 2, 2]

    def test_deterministic(self):
        assert shard_bounds(1000, 3) == shard_bounds(1000, 3)

    def test_world_one_is_everything(self):
        (lo, hi), = shard_bounds(42, 1)
        assert (lo, hi) == (0, 42)

    def test_assignment_matches_bounds(self):
        # Rank r owns bounds[r]; the two remainder rows go to ranks 0, 1.
        assert shard_bounds(11, 3) == [(0, 4), (4, 8), (8, 11)]


class TestLocalIndices:
    def test_partition_of_any_permutation(self):
        rng = np.random.default_rng(0)
        perm = rng.permutation(100)
        locals_ = [local_indices(perm, lo, hi)
                   for lo, hi in shard_bounds(100, 3)]
        assert sum(len(l) for l in locals_) == 100
        assert set(np.concatenate(locals_).tolist()) == set(range(100))

    def test_preserves_order(self):
        perm = np.array([9, 2, 7, 0, 5, 3])
        picked = local_indices(perm, 0, 4)
        assert picked.tolist() == [2, 0, 3]  # original order, not sorted


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
                 for lo, hi in shard_bounds(101, 4)]
        assert np.array_equal(np.concatenate(parts), full)

    def test_rejects_bad_ranges(self):
        spec = synthetic_windows_spec(windows=10, seq_len=4, channels=1)
        with pytest.raises(ValueError):
            materialize_spec_rows(spec, -1, 5)
        with pytest.raises(ValueError):
            materialize_spec_rows(spec, 3, 11)
        with pytest.raises(ValueError):
            materialize_spec_rows(spec, 7, 3)
