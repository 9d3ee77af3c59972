"""Tests for Linear, Dropout, LayerNorm, BatchNorm1d and activations."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor

from ..helpers import check_gradients


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(4, 7, rng=_rng())
        out = layer(Tensor(np.zeros((5, 4), dtype=np.float32)))
        assert out.shape == (5, 7)

    def test_applies_to_last_axis_of_3d(self):
        layer = nn.Linear(4, 7, rng=_rng())
        out = layer(Tensor(np.zeros((2, 3, 4), dtype=np.float32)))
        assert out.shape == (2, 3, 7)

    def test_matches_manual_affine(self):
        layer = nn.Linear(3, 2, rng=_rng())
        x = _rng(1).standard_normal((4, 3)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(3, 2, bias=False, rng=_rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_weight_gradients(self):
        layer = nn.Linear(3, 2, rng=_rng())
        x = Tensor(_rng(1).standard_normal((4, 3)).astype(np.float32))
        loss = (layer(x) ** 2).mean()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == layer.weight.shape
        assert layer.bias.grad is not None

    def test_gradcheck_through_linear_math(self):
        def loss(ts):
            x, w, b = ts
            return ((x @ w + b) ** 2).mean()

        check_gradients(loss, [(4, 3), (3, 2), (2,)])


class TestDropoutLayer:
    def test_train_vs_eval(self):
        layer = nn.Dropout(0.5, rng=_rng())
        x = Tensor(np.ones((50, 50)))
        train_out = layer(x).data
        layer.eval()
        eval_out = layer(x).data
        assert (train_out == 0).any()
        np.testing.assert_array_equal(eval_out, x.data)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)

    def test_two_passes_differ_in_train_mode(self):
        """The core mechanism behind TimeDRL's augmentation-free views."""
        layer = nn.Dropout(0.2, rng=_rng())
        x = Tensor(np.ones((10, 10)))
        assert not np.array_equal(layer(x).data, layer(x).data)


class TestLayerNorm:
    def test_output_is_standardised(self):
        layer = nn.LayerNorm(16)
        x = Tensor(_rng(0).standard_normal((4, 16)).astype(np.float32) * 5 + 3)
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-2)

    def test_affine_parameters_learnable(self):
        layer = nn.LayerNorm(8)
        assert {p.shape for p in layer.parameters()} == {(8,)}
        x = Tensor(_rng(0).standard_normal((3, 8)).astype(np.float32))
        (layer(x) ** 2).mean().backward()
        assert layer.weight.grad is not None

    def test_gradcheck(self):
        def loss(ts):
            x, w, b = ts
            mean = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            normed = (x - mean) / (var + 1e-5).sqrt()
            return ((normed * w + b) ** 2).mean()

        check_gradients(loss, [(3, 6), (6,), (6,)])

    def test_3d_input(self):
        layer = nn.LayerNorm(8)
        out = layer(Tensor(np.random.default_rng(0).standard_normal((2, 5, 8)).astype(np.float32)))
        assert out.shape == (2, 5, 8)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros((2, 5)), atol=1e-4)


class TestBatchNorm1d:
    def test_training_normalises_batch(self):
        layer = nn.BatchNorm1d(4)
        x = Tensor(_rng(0).standard_normal((64, 4)).astype(np.float32) * 3 + 7)
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-2)

    def test_running_stats_updated(self):
        layer = nn.BatchNorm1d(4, momentum=0.5)
        x = Tensor(np.full((8, 4), 10.0, dtype=np.float32))
        layer(x)
        assert (layer.running_mean > 0).all()

    def test_eval_uses_running_stats(self):
        layer = nn.BatchNorm1d(2, momentum=1.0)
        x = Tensor(_rng(0).standard_normal((32, 2)).astype(np.float32) * 2 + 5)
        layer(x)  # one training pass with momentum 1 -> running = batch stats
        layer.eval()
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(2), atol=1e-2)

    def test_3d_input(self):
        layer = nn.BatchNorm1d(4)
        out = layer(Tensor(_rng(0).standard_normal((8, 4, 10)).astype(np.float32)))
        assert out.shape == (8, 4, 10)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), np.zeros(4), atol=1e-4)

    def test_wrong_rank_raises(self):
        layer = nn.BatchNorm1d(4)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32)))

    def test_state_dict_round_trip_includes_buffers(self):
        layer = nn.BatchNorm1d(4, momentum=0.7)
        layer(Tensor(_rng(0).standard_normal((16, 4)).astype(np.float32) + 3))
        state = layer.state_dict()
        fresh = nn.BatchNorm1d(4, momentum=0.7)
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh.running_mean, layer.running_mean)
        np.testing.assert_allclose(fresh.running_var, layer.running_var)


class TestActivationsAndUtilities:
    def test_relu_module(self):
        out = nn.ReLU()(Tensor(np.array([-2.0, 3.0])))
        np.testing.assert_allclose(out.data, [0.0, 3.0])

    def test_gelu_module(self):
        out = nn.GELU()(Tensor(np.array([0.0])))
        np.testing.assert_allclose(out.data, [0.0], atol=1e-7)

    def test_tanh_sigmoid_modules(self):
        x = Tensor(np.array([0.0]))
        np.testing.assert_allclose(nn.Tanh()(x).data, [0.0])
        np.testing.assert_allclose(nn.Sigmoid()(x).data, [0.5])

    def test_identity(self):
        x = Tensor(np.arange(3.0))
        assert nn.Identity()(x) is x

    def test_flatten(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4))))
        assert out.shape == (2, 12)
