"""Tests for the model-agnostic linear-probe protocols."""

import numpy as np
import pytest

from repro.data import make_classification_data, make_forecasting_data
from repro.evaluation import (
    RidgeProbe,
    collect_forecast_features,
    collect_instance_features,
    linear_probe_classification,
    ridge_probe_forecasting,
)
from repro.evaluation.forecasting import _flatten_for_probe


def _forecast_data(seed=0, length=300, channels=2):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.stack([np.sin(2 * np.pi * t / 20 + k) + 0.05 * rng.standard_normal(length)
                       for k in range(channels)], axis=1).astype(np.float32)
    return make_forecasting_data(series, seq_len=20, pred_len=5, stride=1)


class TestRidgeProbeForecasting:
    def test_oracle_features_give_near_zero_error(self):
        """If the features already contain the (normalised) future, the
        probe must recover it almost exactly — validates the whole
        normalise/fit/denormalise plumbing."""
        data = _forecast_data()

        def oracle(x):
            # Leak the future by construction: window index-aligned.
            mean = x.mean(axis=1, keepdims=True)
            std = x.std(axis=1, keepdims=True) + 1e-5
            # The probe sees only x, so emulate an oracle by projecting the
            # deterministic continuation of a pure sine.
            return ((x[:, -5:, :] - mean) / std).reshape(len(x), -1)

        scores = ridge_probe_forecasting(oracle, data, alpha=1e-6)
        # Sine continuation from last values is nearly deterministic.
        assert scores.mse < 0.5

    def test_random_features_are_worse_than_informative_ones(self):
        data = _forecast_data()
        rng = np.random.default_rng(0)

        def informative(x):
            mean = x.mean(axis=1, keepdims=True)
            std = x.std(axis=1, keepdims=True) + 1e-5
            return ((x - mean) / std).reshape(len(x), -1)

        def random_features(x):
            return rng.standard_normal((len(x), 16)).astype(np.float32)

        good = ridge_probe_forecasting(informative, data).mse
        bad = ridge_probe_forecasting(random_features, data).mse
        assert good < bad

    def test_per_channel_features_supported(self):
        data = _forecast_data(channels=3)

        def per_channel(x):
            mean = x.mean(axis=1, keepdims=True)
            std = x.std(axis=1, keepdims=True) + 1e-5
            normed = (x - mean) / std
            return normed.transpose(0, 2, 1)  # (B, C, L)

        scores = ridge_probe_forecasting(per_channel, data)
        assert np.isfinite(scores.mse)

    def test_collect_features_shapes(self):
        data = _forecast_data()
        features, targets, means, stds = collect_forecast_features(
            lambda x: x.reshape(len(x), -1), data.train)
        assert len(features) == len(data.train)
        assert targets.shape[1:] == (5, 2)
        assert means.shape == (len(data.train), 1, 2)
        assert stds.shape == (len(data.train), 1, 2)

    def test_flatten_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            _flatten_for_probe(np.zeros((4,)), np.zeros((4, 5, 2)))


class TestLinearProbeClassification:
    def _data(self, separable=True, n=120, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n)
        x = rng.standard_normal((n, 10, 2)).astype(np.float32)
        if separable:
            x[y == 1] += 2.0
        return make_classification_data(x, y, seed=seed)

    def test_separable_features_reach_high_accuracy(self):
        data = self._data(separable=True)
        scores = linear_probe_classification(
            lambda x: x.reshape(len(x), -1), data, epochs=150)
        assert scores.accuracy > 90

    def test_uninformative_features_hover_at_chance(self):
        data = self._data(separable=False)
        rng = np.random.default_rng(1)
        scores = linear_probe_classification(
            lambda x: rng.standard_normal((len(x), 8)).astype(np.float32),
            data, epochs=50)
        assert scores.accuracy < 80

    def test_collect_instance_features_chunks(self):
        x = np.zeros((600, 4, 1), dtype=np.float32)
        calls = []

        def spy(batch):
            calls.append(len(batch))
            return batch.reshape(len(batch), -1)

        out = collect_instance_features(spy, x)
        assert out.shape == (600, 4)
        assert max(calls) <= 256


class TestRidgeProbe:
    def test_regularisation_shrinks_weights(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 10))
        y = rng.standard_normal((50, 1))
        loose = RidgeProbe(alpha=1e-6).fit(x, y)
        tight = RidgeProbe(alpha=1e3).fit(x, y)
        assert np.abs(tight.weights_[:-1]).sum() < np.abs(loose.weights_[:-1]).sum()

    def test_solve_is_stable_under_one_ulp(self):
        """More features than windows (a conv baseline's T·D probe): the
        float32 Gram matrix is mostly round-off, so moving the features by
        one float32 ulp used to swing the test MSE.  The float64 solve
        must not notice."""
        rng = np.random.default_rng(0)
        n_train, n_test, width, rank, horizon = 279, 120, 2048, 40, 24
        basis = rng.standard_normal((rank, width))
        readout = rng.standard_normal((rank, horizon))

        def split(n):
            factors = rng.standard_normal((n, rank))
            features = (factors @ basis * 30.0
                        + 0.01 * rng.standard_normal((n, width)))
            return features.astype(np.float32), factors @ readout

        train_x, train_y = split(n_train)
        test_x, test_y = split(n_test)

        def test_mse(shift):
            probe = RidgeProbe(alpha=1.0).fit(shift(train_x), train_y)
            return float(((probe.predict(shift(test_x)) - test_y) ** 2).mean())

        base = test_mse(lambda x: x)
        moved = test_mse(lambda x: np.nextafter(x, np.float32(np.inf)))
        assert abs(moved - base) / base < 1e-3
