"""Tests for the baseline base classes (the training loop's hooks and
caps as baselines use them)."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import SSLBaseline
from repro.baselines.base import ConvEncoder
from repro.core import PretrainConfig
from repro.nn import Tensor


class CountingBaseline(SSLBaseline):
    """Minimal baseline that records every hook invocation."""

    name = "counting"

    def __init__(self):
        super().__init__()
        self.linear = nn.Linear(3, 4, rng=np.random.default_rng(0))
        self.loss_calls = 0
        self.epoch_hooks = 0
        self.step_hooks = 0

    def encode(self, x):
        return self.linear(Tensor(np.asarray(x, dtype=np.float32)))

    def loss(self, x, rng):
        self.loss_calls += 1
        return (self.encode(x) ** 2).mean()

    def prepare_epoch(self, data, rng):
        self.epoch_hooks += 1

    def post_step(self):
        self.step_hooks += 1


def _samples(n=20):
    return np.random.default_rng(0).standard_normal((n, 6, 3)).astype(np.float32)


class TestFitLoop:
    def test_hooks_fire_per_epoch_and_per_step(self):
        model = CountingBaseline()
        model.fit(_samples(), PretrainConfig(epochs=3, batch_size=10, seed=0))
        assert model.epoch_hooks == 3
        assert model.loss_calls == 3 * 2  # 20 samples / batch 10
        assert model.step_hooks == model.loss_calls

    def test_max_batches_cap(self):
        model = CountingBaseline()
        model.fit(_samples(), PretrainConfig(epochs=2, batch_size=5,
                                             max_batches_per_epoch=1, seed=0))
        assert model.loss_calls == 2

    def test_fit_leaves_eval_mode_and_records_time(self):
        model = CountingBaseline()
        result = model.fit(_samples(),
                           PretrainConfig(epochs=1, batch_size=10, seed=0))
        assert not model.training
        assert result.wall_clock_seconds > 0

    def test_embeddings_restore_training_mode(self):
        model = CountingBaseline()
        model.train()
        model.encode(_samples(4))[1]
        assert model.training

    def test_abstract_methods_raise(self):
        base = SSLBaseline()
        with pytest.raises(NotImplementedError):
            base.loss(_samples(2), np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            base.encode(_samples(2))


class TestConvEncoderResidualPath:
    def test_depth_zero_is_projection_only(self):
        encoder = ConvEncoder(3, d_model=8, depth=0, rng=np.random.default_rng(0))
        x = Tensor(_samples(2))
        out = encoder(x)
        expected = encoder.input_proj(x).data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_gradients_reach_input_projection(self):
        encoder = ConvEncoder(3, d_model=8, depth=2, rng=np.random.default_rng(0))
        (encoder(Tensor(_samples(2))) ** 2).mean().backward()
        assert encoder.input_proj.weight.grad is not None
