"""Numerical contracts of data-parallel pre-training.

Three tiers, in decreasing strictness:

* world_size=1 through the shared-memory reducer is **bit-identical** to
  the in-process loop (``==`` on history, ``np.array_equal`` on params);
* world_size=2 with a row-separable loss (contrastive task off — its
  BatchNorm predictor computes *per-replica* batch statistics, the
  standard data-parallel semantics) matches the full-batch run to
  floating-point-reassociation tolerance;
* world_size=2 with the full loss is deterministic run-to-run.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro.checkpoint import TrainingHooks
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.data.specs import materialize_data_spec, synthetic_windows_spec
from repro.distributed import DistributedConfig, pretrain_data_parallel
from repro.distributed.blas import find_openblas, usable_cpus


def _model_config(**overrides) -> TimeDRLConfig:
    params = dict(seq_len=16, patch_len=4, stride=4, d_model=8, num_heads=2,
                  num_layers=1, input_channels=2, seed=0)
    params.update(overrides)
    return TimeDRLConfig(**params)


def _data(n: int = 40, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).normal(
        size=(n, 16, 2)).astype(np.float32)


def _train_config(**overrides) -> PretrainConfig:
    params = dict(epochs=2, batch_size=8, seed=0)
    params.update(overrides)
    return PretrainConfig(**params)


def _totals(result) -> list[float]:
    return [entry["total"] for entry in result.history]


def _assert_bit_identical(a, b) -> None:
    assert a.history == b.history
    state_a, state_b = a.model.state_dict(), b.model.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


class TestWorldOfOne:
    def test_bit_identical_to_in_process_loop(self):
        data = _data()
        single = run_pretrain(_model_config(), data, _train_config())
        dist = pretrain_data_parallel(
            _model_config(), data, train_config=_train_config(),
            distributed=DistributedConfig(world_size=1))
        assert dist.world_size == 1
        assert dist.worker_restarts == 0
        _assert_bit_identical(single, dist)

    def test_bit_identical_to_in_process_loop_at_bench_geometry(self):
        # The end-to-end benchmark's geometry and batch: enough rows per
        # Linear that a rank taking other GEMM shapes than the in-process
        # loop would change bits.
        config = _model_config(seq_len=64, input_channels=7, patch_len=8,
                               stride=8, d_model=64, num_heads=4, num_layers=2)
        data = np.random.default_rng(1).normal(size=(64, 64, 7)).astype(
            np.float32)
        train = _train_config(batch_size=32)
        single = run_pretrain(config, data, train)
        dist = pretrain_data_parallel(
            config, data, train_config=train,
            distributed=DistributedConfig(world_size=1))
        _assert_bit_identical(single, dist)

    def test_run_pretrain_world_one_stays_in_process(self):
        data = _data()
        single = run_pretrain(_model_config(), data, _train_config())
        routed = run_pretrain(_model_config(), data, _train_config(),
                              distributed=1)
        assert routed.world_size == 1
        _assert_bit_identical(single, routed)


class TestWorldOfTwo:
    def test_row_separable_loss_matches_full_batch(self):
        # Contrastive off (BatchNorm statistics are per-replica by design,
        # see docs/training.md) and dropout off (per-rank RNG streams draw
        # by local batch shape): what remains is the predictive MSE, whose
        # sharded weighted mean IS the full-batch loss up to reassociation.
        config = _model_config(dropout=0.0, enable_contrastive=False)
        data = _data()
        single = run_pretrain(config, data, _train_config())
        dp2 = pretrain_data_parallel(
            config, data, train_config=_train_config(),
            distributed=DistributedConfig(world_size=2))
        assert dp2.world_size == 2
        np.testing.assert_allclose(_totals(dp2), _totals(single),
                                   rtol=1e-5, atol=1e-7)
        for (name, a), b in zip(single.model.state_dict().items(),
                                dp2.model.state_dict().values()):
            # Adam normalises tiny gradient differences up to ~lr-sized
            # steps, so parameter agreement is loose even when the loss
            # trajectory matches to 1e-7.
            np.testing.assert_allclose(a, b, rtol=5e-2, atol=1e-2,
                                       err_msg=name)

    def test_full_loss_is_deterministic_run_to_run(self):
        data = _data()
        first = pretrain_data_parallel(
            _model_config(), data, train_config=_train_config(),
            distributed=DistributedConfig(world_size=2))
        second = pretrain_data_parallel(
            _model_config(), data, train_config=_train_config(),
            distributed=DistributedConfig(world_size=2))
        _assert_bit_identical(first, second)

    def test_spec_sharding_matches_materialized_corpus(self):
        # Workers generating only their own shard's blocks must train
        # exactly as workers handed the materialized array.
        spec = synthetic_windows_spec(windows=40, seq_len=16, channels=2,
                                      seed=5)
        from_spec = pretrain_data_parallel(
            _model_config(), spec, train_config=_train_config(),
            distributed=DistributedConfig(world_size=2))
        from_array = pretrain_data_parallel(
            _model_config(), materialize_data_spec(spec),
            train_config=_train_config(),
            distributed=DistributedConfig(world_size=2))
        _assert_bit_identical(from_spec, from_array)


class _RecordBlasPool(TrainingHooks):
    """Writes the rank's OpenBLAS thread count and its threads outside
    Python's ``threading`` (the OpenBLAS workers) to ``path``."""

    def __init__(self, path):
        self.path = path

    def on_batch_end(self, epoch, batch, step):
        self.path.write_text(json.dumps(
            [find_openblas().get_threads(), _native_threads()]))


def _native_threads() -> int:
    return len(os.listdir("/proc/self/task")) - threading.active_count()


@pytest.mark.skipif(find_openblas() is None or not os.path.isdir("/proc/self/task"),
                    reason="needs a loaded OpenBLAS and /proc/self/task")
class TestGemmShapes:
    @pytest.mark.parametrize("world_size", [1, 2])
    def test_ranks_of_a_group_limit_blas_to_their_share(self, tmp_path,
                                                        world_size):
        caller = find_openblas().get_threads()
        path = tmp_path / "pool"
        pretrain_data_parallel(
            _model_config(), _data(), train_config=_train_config(epochs=1),
            distributed=DistributedConfig(world_size=world_size),
            hooks={0: _RecordBlasPool(path)})
        threads, workers = json.loads(path.read_text())
        if world_size == 1:
            assert threads == caller
        else:
            share = max(1, usable_cpus() // world_size)
            assert threads == min(caller, share)
            if threads == 1:
                assert workers == 0
        # Only the rank's own process is limited.
        assert find_openblas().get_threads() == caller


class TestConfigResolution:
    def test_int_dict_and_config_forms(self):
        from repro.distributed import resolve_distributed

        assert resolve_distributed(None) is None
        assert resolve_distributed(3).world_size == 3
        assert resolve_distributed({"world_size": 2,
                                    "max_restarts": 5}).max_restarts == 5
        config = DistributedConfig(world_size=2)
        assert resolve_distributed(config) is config
        with pytest.raises(ValueError):
            resolve_distributed(True)
        with pytest.raises(ValueError):
            resolve_distributed(0)
