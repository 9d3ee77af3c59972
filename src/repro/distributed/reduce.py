"""Shared-memory gradient all-reduce, reduced in place.

The reducer is anonymous shared memory (``multiprocessing.RawArray`` —
inherited on fork, pickled through ``Process`` args on spawn; no named
segments, so nothing for the resource tracker to leak): a
``world_size x n_params`` float64 slab of per-rank gradient rows, one
float64 result row and a small stats slab, plus two barriers:

1. every rank writes its per-parameter mean gradients straight into its
   own row (a ``None`` gradient as zeros) and its weight and loss stats
   into its stats row, then waits on the *enter* barrier;
2. every rank reduces its own equal share of the columns
   (:func:`~repro.distributed.sharding.shard_slice`) into the result
   row, accumulating the contributing rows **in fixed rank order** in
   float64 — each column is one elementwise expression of the same
   values whichever rank computes it, so every replica reads a
   bit-identical reduced gradient — and the loss means from the stats;
3. after the *reduced* barrier, every rank casts the whole result row
   into its float32 gradient buffer, allocated once per process, whose
   per-parameter views become ``param.grad``.

No third barrier is needed: a rank rewrites its gradient row only after
the *reduced* barrier, when every peer has finished reading the rows,
and the result row only after the next *enter* barrier, when every peer
has finished casting it.

Weighting: rank r contributes its per-row *mean* gradient with weight
``k_r`` (its row count in the global batch).  Since the global batch
loss is the mean over all B rows and the slices partition the batch,
``sum_r (k_r / B) * mean_r`` is exactly the full-batch gradient up to
floating-point reassociation.

Barrier waits carry a timeout: when a peer dies mid-step the survivors
raise ``BrokenBarrierError`` instead of hanging, exit with a distinct
status, and the coordinator's elastic restart takes over.
"""

from __future__ import annotations

import numpy as np

from ..core.pretrain import _LOSS_KEYS
from .sharding import shard_slice

__all__ = ["SharedAllReduce"]

# Per-rank stats row: [weight, *the loop's TimeDRL loss terms].
_STATS = 1 + len(_LOSS_KEYS)


class _RankViews:
    """One rank's numpy views over the shared slabs, its per-parameter
    views of its own row, and its float32 gradient buffer — built once
    per process (views never cross a fork or a pickle)."""

    def __init__(self, reducer: "SharedAllReduce", rank: int, params):
        world, n = reducer.world_size, reducer.n_params
        self.rows = np.frombuffer(reducer._grads,
                                  dtype=np.float64).reshape(world, n)
        self.stats = np.frombuffer(reducer._stats,
                                   dtype=np.float64).reshape(world, _STATS)
        self.result = np.frombuffer(reducer._result, dtype=np.float64)
        self.cast = np.empty(n, dtype=np.float32)
        self.own, self.grads = [], []
        offset = 0
        for param in params:
            shape, size = param.data.shape, param.data.size
            self.own.append(self.rows[rank, offset:offset + size].reshape(shape))
            self.grads.append(self.cast[offset:offset + size].reshape(shape))
            offset += size
        if offset != n:
            raise ValueError(f"parameter vector is {offset} elements, reducer "
                             f"sized for {n}")
        self.columns = shard_slice(n, world, rank)
        self.scratch = np.empty(self.columns.stop - self.columns.start,
                                dtype=np.float64)


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
        self._grads = ctx.RawArray("d", world_size * n_params)
        self._result = ctx.RawArray("d", n_params)
        self._stats = ctx.RawArray("d", world_size * _STATS)
        self._enter = ctx.Barrier(world_size)
        self._reduced = ctx.Barrier(world_size)
        self._views: dict[int, _RankViews] = {}  # by rank, in its process

    def all_reduce(self, rank: int, params, weight: float,
                   losses: tuple[float, float, float],
                   ) -> tuple[dict[str, float], float]:
        """Exchange one step's gradients: every ``param.grad`` becomes a
        float32 view of the reduced gradient.  Returns the reduced loss
        means and the summed weight of every rank.

        ``weight`` is the rank's row count; with ``0`` (the rank owned no
        rows of this batch) its gradients are not read, and it still
        joins both barriers to keep the group in lockstep.
        """
        views = self._views.get(rank)
        if views is None:
            views = self._views[rank] = _RankViews(self, rank, params)
        rows, stats = views.rows, views.stats
        if weight > 0.0:
            for own, param in zip(views.own, params):
                if param.grad is None:
                    own.fill(0.0)
                else:
                    np.copyto(own, param.grad)
        else:
            weight = 0.0
        stats[rank, 0] = weight
        stats[rank, 1:] = losses  # raw (unweighted) per-rank means
        self._enter.wait(self.timeout)
        contributors = [peer for peer in range(self.world_size)
                        if stats[peer, 0] > 0.0]
        columns = views.columns
        reduced = views.result[columns]
        if len(contributors) == 1:
            # Single contributor (world of one, or a tail batch shorter
            # than the world): take its row verbatim.  The
            # multiply-then-divide round trip below can be off by one
            # float64 ulp, and this path must be *bit*-identical to the
            # single-process loop.
            peer = contributors[0]
            reduced[...] = rows[peer, columns]
            loss_means = stats[peer, 1:].copy()
            total_weight = stats[peer, 0]
        else:
            reduced.fill(0.0)
            loss_means = np.zeros(_STATS - 1, dtype=np.float64)
            total_weight = 0.0
            for peer in contributors:  # fixed order: bit-identical replicas
                peer_weight = stats[peer, 0]
                np.multiply(rows[peer, columns], peer_weight, out=views.scratch)
                reduced += views.scratch
                loss_means += stats[peer, 1:] * peer_weight
                total_weight += peer_weight
            if total_weight > 0.0:
                reduced /= total_weight
                loss_means /= total_weight
        self._reduced.wait(self.timeout)
        np.copyto(views.cast, views.result)
        for param, grad in zip(params, views.grads):
            param.grad = grad
        return (dict(zip(_LOSS_KEYS, loss_means.tolist())),
                float(total_weight))
