"""Equal slices: how a data-parallel group splits each unit of work.

Every rank draws the *same* global batch permutation from the same
loader RNG (lockstep with the single-process loop) and takes one
contiguous slice of each batch's index list; the gradient all-reduce
splits the parameter vector's columns the same way.  The slices
partition ``range(n)`` in order, so the union of the per-rank rows is
exactly the global batch and any world size trains on the identical
global window stream — world_size=1 takes the whole batch in order and
is bit-identical by construction, larger worlds equivalent up to
floating-point reassociation of the batch mean.

The remainder goes to the first ranks, so slice sizes differ by at most
one and every rank waits on the same amount of work; a short tail batch
leaves the last ranks with no rows.  Each rank holds the whole corpus
(a store as its path) and gathers only its own rows of each batch.
"""

from __future__ import annotations

__all__ = ["shard_slice"]


def shard_slice(n: int, world_size: int, rank: int) -> slice:
    """Rank ``rank``'s contiguous share of ``range(n)``, a pure function
    of ``(n, world_size, rank)`` — any incarnation of the group
    (including an elastic restart) computes the identical partition."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} outside a world of {world_size}")
    base, extra = divmod(n, world_size)
    start = rank * base + min(rank, extra)
    return slice(start, start + base + (rank < extra))
