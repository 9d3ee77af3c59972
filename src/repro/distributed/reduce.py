"""Shared-memory gradient all-reduce.

The reducer is a ``world_size x n_params`` float64 slab of anonymous
shared memory (``multiprocessing.RawArray`` — inherited on fork, pickled
through ``Process`` args on spawn; no named segments, so nothing for the
resource tracker to leak) plus two barriers:

1. every rank writes its local mean gradient and loss stats into its own
   row, then waits on the *enter* barrier;
2. every rank reads ALL rows and accumulates them **in fixed rank
   order** in float64 — identical operations on identical values, so
   every replica computes a bit-identical reduced gradient;
3. the *leave* barrier keeps rank r from overwriting its row for batch
   k+1 while a peer is still reading batch k.

Weighting: worker r contributes its per-row *mean* gradient with weight
``k_r`` (its row count in the global batch).  Since the global batch
loss is the mean over all B rows and the shards partition the batch,
``sum_r (k_r / B) * mean_r`` is exactly the full-batch gradient up to
floating-point reassociation.

Barrier waits carry a timeout: when a peer dies mid-step the survivors
raise ``BrokenBarrierError`` instead of hanging, exit with a distinct
status, and the coordinator's elastic restart takes over.
"""

from __future__ import annotations

import numpy as np

from ..core.pretrain import _LOSS_KEYS

__all__ = ["SharedAllReduce"]

# Per-rank stats row: [weight, *the loop's TimeDRL loss terms].
_STATS = 1 + len(_LOSS_KEYS)


class SharedAllReduce:
    """Barrier-synchronised weighted-mean all-reduce over shared memory."""

    def __init__(self, ctx, world_size: int, n_params: int,
                 barrier_timeout_s: float = 60.0):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if n_params < 1:
            raise ValueError("n_params must be >= 1")
        self.world_size = world_size
        self.n_params = n_params
        self.timeout = barrier_timeout_s
        self.total_weight = 0.0  # of this process's last reduce
        self._grads = ctx.RawArray("d", world_size * n_params)
        self._stats = ctx.RawArray("d", world_size * _STATS)
        self._enter = ctx.Barrier(world_size)
        self._leave = ctx.Barrier(world_size)

    def _views(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-process numpy views over the shared slabs (cheap, uncached:
        views must be rebuilt after fork/spawn, never pickled)."""
        grads = np.frombuffer(self._grads, dtype=np.float64)
        stats = np.frombuffer(self._stats, dtype=np.float64)
        return (grads.reshape(self.world_size, self.n_params),
                stats.reshape(self.world_size, _STATS))

    def all_reduce(self, rank: int, flat_grads: np.ndarray | None,
                   weight: float, losses: tuple[float, float, float],
                   ) -> tuple[np.ndarray, dict[str, float]]:
        """Exchange one step's gradients; returns the reduced gradient
        (float64, length ``n_params``) and the reduced loss means.

        ``flat_grads`` is the rank's local mean gradient (``None`` with
        ``weight=0`` when the rank owned no rows of this batch — it still
        participates in both barriers to keep the group in lockstep).
        The summed weight of every rank is left in ``total_weight``.
        """
        grads, stats = self._views()
        if weight > 0.0 and flat_grads is not None:
            grads[rank, :] = flat_grads
        else:
            weight = 0.0
            grads[rank, :] = 0.0
        stats[rank, 0] = weight
        for column, value in enumerate(losses, start=1):
            stats[rank, column] = value  # raw (unweighted) per-rank means
        self._enter.wait(self.timeout)
        contributors = [peer for peer in range(self.world_size)
                        if stats[peer, 0] > 0.0]
        if len(contributors) == 1:
            # Single contributor (world of one, or a tail batch that fell
            # entirely inside one shard): take its row verbatim.  The
            # multiply-then-divide round trip below can be off by one
            # float64 ulp, and this path must be *bit*-identical to the
            # single-process loop.
            peer = contributors[0]
            reduced = grads[peer].copy()
            loss_means = stats[peer, 1:].copy()
            total_weight = stats[peer, 0]
        else:
            reduced = np.zeros(self.n_params, dtype=np.float64)
            loss_means = np.zeros(_STATS - 1, dtype=np.float64)
            total_weight = 0.0
            for peer in contributors:  # fixed order: bit-identical replicas
                peer_weight = stats[peer, 0]
                reduced += grads[peer] * peer_weight
                loss_means += stats[peer, 1:] * peer_weight
                total_weight += peer_weight
            if total_weight > 0.0:
                reduced /= total_weight
                loss_means /= total_weight
        self.total_weight = float(total_weight)
        self._leave.wait(self.timeout)
        return reduced, dict(zip(_LOSS_KEYS, loss_means.tolist()))


def flatten_grads(parameters, n_params: int) -> np.ndarray:
    """Pack every parameter's gradient into one float64 vector.

    float32 values round-trip float32 → float64 → float32 exactly, so a
    world of one reducing through shared memory stays bit-identical to
    stepping on the local gradients directly.
    """
    flat = np.empty(n_params, dtype=np.float64)
    offset = 0
    for param in parameters:
        size = param.data.size
        grad = param.grad
        if grad is None:
            flat[offset:offset + size] = 0.0
        else:
            flat[offset:offset + size] = np.asarray(
                grad, dtype=np.float64).ravel()
        offset += size
    if offset != n_params:
        raise ValueError(f"parameter vector is {offset} elements, reducer "
                         f"sized for {n_params}")
    return flat


def scatter_grads(parameters, flat: np.ndarray) -> None:
    """Unpack a reduced float64 vector into each parameter's ``.grad``
    (cast back to the parameter's dtype)."""
    offset = 0
    for param in parameters:
        size = param.data.size
        param.grad = flat[offset:offset + size].reshape(
            param.data.shape).astype(param.data.dtype)
        offset += size


__all__ += ["flatten_grads", "scatter_grads"]
