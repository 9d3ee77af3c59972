"""Deterministic shard assignment for data-parallel workers.

Every worker draws the *same* global batch permutation from the same
loader RNG (lockstep with the single-process loop), then keeps only the
indices falling inside its own contiguous shard ``[start, stop)``.  The
union of the per-rank selections is exactly the global batch, so any
world size trains on the identical global window stream — that is what
makes world_size=1 trivially bit-identical and larger worlds equivalent
up to floating-point reassociation of the batch mean.

A worker gathers only its own rows of each batch: from a store it
touches only the pages those rows live in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shard_bounds", "local_indices"]


def shard_bounds(total: int, world_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` bounds partitioning ``range(total)``.

    The remainder spreads over the first ranks, so shard sizes differ by
    at most one row and the assignment is a pure function of
    ``(total, world_size)`` — any incarnation of the group (including an
    elastic restart) computes the identical partition.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if world_size < 1:
        raise ValueError("world_size must be >= 1")
    base, extra = divmod(total, world_size)
    bounds = []
    lo = 0
    for rank in range(world_size):
        hi = lo + base + (1 if rank < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def local_indices(indices: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The subset of a global batch owned by shard ``[start, stop)``.

    Order within the batch is preserved, so concatenating every rank's
    selection in rank order is a permutation-free reassembly of the
    global batch's shard-grouped view.
    """
    return indices[(indices >= start) & (indices < stop)]
