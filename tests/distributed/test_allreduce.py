"""The shared-memory all-reduce: exactness and lockstep semantics.

World size 1 must be a bit-exact pass-through (that is what makes the
single-worker distributed path identical to the in-process loop); larger
worlds must compute the fixed-rank-order float64 weighted mean, whichever
rank reduces a column, and leave the same float32 bits in every
replica's ``param.grad``.  Multi-rank cases run the reducer from threads
— RawArray and Barrier synchronise threads exactly as they do forked
processes, and each rank keeps its own views and gradient buffer.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.distributed import SharedAllReduce


class _Param:
    def __init__(self, data, grad=None):
        self.data = data
        self.grad = grad


def _ctx():
    return multiprocessing.get_context("fork")


def _params(*grads):
    """float32 parameters carrying ``grads`` (``None`` stays ``None``)."""
    return [_Param(np.zeros(np.shape(grad) if grad is not None else 3,
                            dtype=np.float32),
                   None if grad is None else np.asarray(grad, np.float32))
            for grad in grads]


class TestWorldOfOne:
    def test_grads_and_losses_pass_through_verbatim(self):
        reducer = SharedAllReduce(_ctx(), world_size=1, n_params=5)
        grad = np.array([0.1, -2.5, 3.3, 1e-30, 7.0], dtype=np.float32)
        params = _params(grad)
        losses, total = reducer.all_reduce(0, params, weight=8.0,
                                           losses=(2.5, 1.5, 1.0))
        # Bit-exact: no multiply/divide round trip on the only contributor.
        assert np.array_equal(params[0].grad, grad)
        assert losses == {"total": 2.5, "predictive": 1.5, "contrastive": 1.0}
        assert total == 8.0

    def test_float32_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        params = [_Param(rng.normal(size=(3, 4)).astype(np.float32)),
                  _Param(rng.normal(size=(7,)).astype(np.float32))]
        for param in params:
            param.grad = rng.normal(size=param.data.shape).astype(np.float32)
        originals = [param.grad.copy() for param in params]
        n = sum(p.data.size for p in params)
        reducer = SharedAllReduce(_ctx(), world_size=1, n_params=n)
        reducer.all_reduce(0, params, weight=4.0, losses=(1.0, 1.0, 0.0))
        for param, original in zip(params, originals):
            assert param.grad.dtype == np.float32
            assert param.grad.shape == original.shape
            assert np.array_equal(param.grad, original)

    def test_flatten_checks_length(self):
        reducer = SharedAllReduce(_ctx(), world_size=1, n_params=3)
        params = [_Param(np.zeros((2, 2), dtype=np.float32))]
        with pytest.raises(ValueError):
            reducer.all_reduce(0, params, weight=1.0, losses=(1.0, 1.0, 0.0))

    def test_none_grad_flattens_to_zero(self):
        reducer = SharedAllReduce(_ctx(), world_size=1, n_params=5)
        params = _params(None, [1.0, 2.0])
        reducer.all_reduce(0, params, weight=2.0, losses=(1.0, 1.0, 0.0))
        assert np.array_equal(params[0].grad, np.zeros(3, dtype=np.float32))
        assert params[1].grad.tolist() == [1.0, 2.0]

    def test_gradient_buffer_is_allocated_once(self):
        reducer = SharedAllReduce(_ctx(), world_size=1, n_params=3)
        params = _params([1.0, 2.0, 3.0])
        reducer.all_reduce(0, params, weight=1.0, losses=(1.0, 1.0, 0.0))
        first = params[0].grad
        params[0].grad = np.array([4.0, 5.0, 6.0], dtype=np.float32)
        reducer.all_reduce(0, params, weight=1.0, losses=(1.0, 1.0, 0.0))
        assert params[0].grad.base is first.base
        assert params[0].grad.tolist() == [4.0, 5.0, 6.0]


class TestMultiRank:
    def _reduce_all(self, reducer, payloads):
        """Run one all_reduce per rank concurrently (threads stand in for
        forked workers); returns each rank's (params, losses, total)."""
        results = [None] * len(payloads)

        def work(rank, params, weight, losses):
            results[rank] = (params, *reducer.all_reduce(rank, params, weight,
                                                         losses))

        threads = [threading.Thread(target=work, args=(rank, *payload))
                   for rank, payload in enumerate(payloads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        return results

    def test_weighted_mean_exact_in_rank_order(self):
        reducer = SharedAllReduce(_ctx(), world_size=2, n_params=3)
        g0 = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        g1 = np.array([5.0, -1.0, 0.5], dtype=np.float32)
        results = self._reduce_all(reducer, [
            (_params(g0), 3.0, (0.3, 0.2, 0.1)),
            (_params(g1), 1.0, (0.7, 0.4, 0.3)),
        ])
        expected = ((g0.astype(np.float64) * 3.0 + g1.astype(np.float64) * 1.0)
                    / 4.0).astype(np.float32)
        for params, losses, total in results:
            assert np.array_equal(params[0].grad, expected)
            assert losses["total"] == (0.3 * 3.0 + 0.7 * 1.0) / 4.0
            assert total == 4.0

    def test_three_ranks_match_a_float64_reference(self):
        # Every column is (sum_r g_r * w_r) / sum_r w_r in float64 and in
        # rank order, whichever rank reduced it; a None gradient counts
        # as zeros.  67 columns split 23/22/22 across the ranks.
        rng = np.random.default_rng(2)
        weights = (5.0, 4.0, 4.0)
        grads = [[rng.normal(size=(8, 5)).astype(np.float32),
                  rng.normal(size=27).astype(np.float32)] for __ in weights]
        grads[1][1] = None
        reducer = SharedAllReduce(_ctx(), world_size=3, n_params=67)
        payloads = []
        for rank_grads, weight in zip(grads, weights):
            params = [_Param(np.zeros((8, 5), np.float32), rank_grads[0]),
                      _Param(np.zeros(27, np.float32), rank_grads[1])]
            payloads.append((params, weight, (1.0, 0.5, 0.5)))
        results = self._reduce_all(reducer, payloads)
        for index, shape in enumerate(((8, 5), (27,))):
            reference = np.zeros(shape, dtype=np.float64)
            for rank_grads, weight in zip(grads, weights):
                grad = rank_grads[index]
                column = (np.zeros(shape) if grad is None
                          else grad.astype(np.float64))
                reference += column * weight
            reference = (reference / sum(weights)).astype(np.float32)
            for params, __, __ in results:
                assert params[index].grad.dtype == np.float32
                assert params[index].grad.tobytes() == reference.tobytes()

    def test_every_replica_sees_identical_bits(self):
        rng = np.random.default_rng(1)
        reducer = SharedAllReduce(_ctx(), world_size=3, n_params=64)
        payloads = [(_params(rng.normal(size=64)), float(w), (1.0, 0.5, 0.5))
                    for w in (5, 4, 4)]
        results = self._reduce_all(reducer, payloads)
        reference = results[0][0][0].grad.tobytes()
        for params, __, __ in results[1:]:
            assert params[0].grad.tobytes() == reference
        # Each rank owns its gradient buffer: no replica aliases another.
        buffers = {id(params[0].grad.base) for params, __, __ in results}
        assert len(buffers) == 3

    def test_single_contributor_among_many_is_verbatim(self):
        # A tail batch shorter than the world: the rank without rows
        # contributes weight 0 and the reduced value is rank 0's row
        # bit-for-bit (no multiply/divide round trip).
        reducer = SharedAllReduce(_ctx(), world_size=2, n_params=4)
        g0 = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)
        results = self._reduce_all(reducer, [
            (_params(g0), 7.0, (1.25, 1.0, 0.25)),
            ([_Param(np.zeros(4, np.float32))], 0.0, (0.0, 0.0, 0.0)),
        ])
        for params, losses, total in results:
            assert np.array_equal(params[0].grad, g0)
            assert losses == {"total": 1.25, "predictive": 1.0,
                              "contrastive": 0.25}
            assert total == 7.0

    def test_reusable_across_steps(self):
        reducer = SharedAllReduce(_ctx(), world_size=2, n_params=2)
        for step in range(3):
            g = np.array([float(step), 1.0], dtype=np.float32)
            results = self._reduce_all(reducer, [
                (_params(g), 1.0, (1.0, 1.0, 0.0)),
                (_params(g + 1.0), 1.0, (2.0, 2.0, 0.0)),
            ])
            expected = (g + (g + 1.0)) / 2.0
            for params, losses, __ in results:
                assert np.array_equal(params[0].grad, expected)
                assert losses["total"] == 1.5

    def test_lockstep_under_contention(self):
        # Four ranks on fewer cores, switching often, over many steps:
        # with only two barriers a step, no rank may overwrite its row or
        # the result row while a peer still reads them, so every rank must
        # see each step's exact reference.
        world, steps, n = 4, 60, 37
        reducer = SharedAllReduce(_ctx(), world_size=world, n_params=n)
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(steps, world, n)).astype(np.float32)
        weights = rng.integers(0, 3, size=(steps, world)).astype(np.float64)
        weights[:, 0] += 1.0  # at least one contributor a step
        failures = []

        def work(rank):
            param = _Param(np.zeros(n, dtype=np.float32))
            for step in range(steps):
                param.grad = grads[step, rank].copy()
                losses, total = reducer.all_reduce(
                    rank, [param], weights[step, rank], (float(step), 0.0, 0.0))
                contributors = np.flatnonzero(weights[step] > 0)
                if len(contributors) == 1:
                    expected = grads[step, contributors[0]]
                else:
                    reference = np.zeros(n)
                    for peer in contributors:
                        reference += (grads[step, peer].astype(np.float64)
                                      * weights[step, peer])
                    expected = (reference / weights[step].sum()
                                ).astype(np.float32)
                if (param.grad.tobytes() != expected.tobytes()
                        or losses["total"] != float(step)
                        or total != weights[step].sum()):
                    failures.append((rank, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(rank,))
                       for rank in range(world)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
