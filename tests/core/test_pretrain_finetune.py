"""Tests for the pre-training loop and the downstream protocols."""

import numpy as np
import pytest

from repro.core import (
    PretrainConfig,
    TimeDRL,
    TimeDRLConfig,
    linear_evaluate_classification,
    linear_evaluate_forecasting,
    run_finetune_classification,
    run_finetune_forecasting,
    run_pretrain,
)
from repro.core.finetune import RidgeRegressor, _label_subset
from repro.core.pretrain import iterate_pretrain_batches
from repro.data import make_classification_data, make_forecasting_data


def _forecast_data(seed=0, length=400, channels=3):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.stack([np.sin(2 * np.pi * t / 24 + k) + 0.1 * rng.standard_normal(length)
                       for k in range(channels)], axis=1).astype(np.float32)
    return make_forecasting_data(series, seq_len=32, pred_len=8, stride=2)


def _class_data(seed=0):
    from repro.data import load_classification_dataset

    x, y = load_classification_dataset("PenDigits", scale=0.015, seed=seed)
    return make_classification_data(x, y, seed=seed)


def _config(**overrides):
    params = dict(seq_len=32, input_channels=3, patch_len=8, stride=8,
                  d_model=16, num_heads=2, num_layers=1, seed=0)
    params.update(overrides)
    return TimeDRLConfig(**params)


class TestIterateBatches:
    def test_over_windows(self):
        data = _forecast_data()
        rng = np.random.default_rng(0)
        batches = list(iterate_pretrain_batches(data.train, 16, rng))
        assert all(b.ndim == 3 for b in batches)
        assert sum(len(b) for b in batches) == len(data.train)

    def test_over_samples(self):
        samples = np.zeros((50, 16, 2), dtype=np.float32)
        rng = np.random.default_rng(0)
        batches = list(iterate_pretrain_batches(samples, 16, rng))
        assert sum(len(b) for b in batches) == 50

    def test_max_batches_cap(self):
        data = _forecast_data()
        rng = np.random.default_rng(0)
        batches = list(iterate_pretrain_batches(data.train, 8, rng, max_batches=3))
        assert len(batches) == 3


class TestPretrain:
    def test_loss_decreases(self):
        data = _forecast_data()
        result = run_pretrain(_config(), data.train,
                              PretrainConfig(epochs=4, batch_size=32, seed=0))
        assert len(result.history) == 4
        assert result.history[-1]["total"] < result.history[0]["total"]

    def test_model_left_in_eval_mode(self):
        data = _forecast_data()
        result = run_pretrain(_config(), data.train,
                              PretrainConfig(epochs=1, batch_size=32,
                                             max_batches_per_epoch=2))
        assert not result.model.training

    def test_wall_clock_recorded(self):
        data = _forecast_data()
        result = run_pretrain(_config(), data.train,
                              PretrainConfig(epochs=1, batch_size=32,
                                             max_batches_per_epoch=2))
        assert result.wall_clock_seconds > 0

    def test_final_loss_property(self):
        data = _forecast_data()
        result = run_pretrain(_config(), data.train,
                              PretrainConfig(epochs=1, batch_size=32,
                                             max_batches_per_epoch=2))
        assert result.final_loss == result.history[-1]["total"]

    def test_deterministic_given_seeds(self):
        data = _forecast_data()
        config = PretrainConfig(epochs=1, batch_size=16, max_batches_per_epoch=3, seed=4)
        a = run_pretrain(_config(), data.train, config)
        b = run_pretrain(_config(), data.train, config)
        np.testing.assert_allclose(a.final_loss, b.final_loss, rtol=1e-5)

    def test_classification_samples_accepted(self):
        data = _class_data()
        config = _config(seq_len=8, input_channels=2, patch_len=2, stride=2)
        result = run_pretrain(config, data.x_train,
                              PretrainConfig(epochs=1, batch_size=32))
        assert np.isfinite(result.final_loss)


class TestLinearEvaluation:
    def test_forecasting_beats_trivial_predictor(self):
        """Probe on pre-trained embeddings must beat predicting the window
        mean (what de-normalised zeros amount to)."""
        data = _forecast_data()
        result = run_pretrain(_config(channel_independence=True), data.train,
                              PretrainConfig(epochs=3, batch_size=32, seed=0))
        scores = linear_evaluate_forecasting(result.model, data)
        truth = np.stack([data.test[i][1] for i in range(len(data.test))])
        means = np.stack([data.test[i][0].mean(axis=0, keepdims=True)
                          for i in range(len(data.test))])
        trivial_mse = float(np.mean((truth - means) ** 2))
        assert scores.mse < trivial_mse

    def test_forecasting_channel_mixing_mode(self):
        data = _forecast_data()
        result = run_pretrain(_config(channel_independence=False), data.train,
                              PretrainConfig(epochs=1, batch_size=32,
                                             max_batches_per_epoch=4))
        scores = linear_evaluate_forecasting(result.model, data)
        assert np.isfinite(scores.mse) and np.isfinite(scores.mae)

    def test_classification_beats_chance(self):
        data = _class_data()
        config = _config(seq_len=8, input_channels=2, patch_len=2, stride=2)
        result = run_pretrain(config, data.x_train,
                              PretrainConfig(epochs=3, batch_size=32, seed=0))
        scores = linear_evaluate_classification(result.model, data, epochs=100)
        chance = 100.0 / data.n_classes
        assert scores.accuracy > 2 * chance

    def test_classification_metric_ranges(self):
        data = _class_data()
        config = _config(seq_len=8, input_channels=2, patch_len=2, stride=2)
        result = run_pretrain(config, data.x_train,
                              PretrainConfig(epochs=1, batch_size=32,
                                             max_batches_per_epoch=3))
        scores = linear_evaluate_classification(result.model, data, epochs=30)
        assert 0 <= scores.accuracy <= 100
        assert 0 <= scores.macro_f1 <= 100
        assert -100 <= scores.kappa <= 100


class TestRidge:
    def test_exact_on_noiseless_linear_data(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 5)).astype(np.float64)
        w = rng.standard_normal((5, 2))
        y = x @ w + 3.0
        probe = RidgeRegressor(alpha=1e-8).fit(x, y)
        np.testing.assert_allclose(probe.predict(x), y, atol=1e-5)

    def test_bias_not_penalised(self):
        x = np.zeros((50, 1))
        y = np.full((50, 1), 7.0)
        probe = RidgeRegressor(alpha=100.0).fit(x, y)
        np.testing.assert_allclose(probe.predict(x), y, atol=1e-6)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeRegressor().predict(np.zeros((3, 2)))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegressor(alpha=-1.0)


class TestFineTuning:
    def test_label_subset_bounds(self):
        rng = np.random.default_rng(0)
        subset = _label_subset(100, 0.25, rng)
        assert len(subset) == 25
        assert len(np.unique(subset)) == 25
        with pytest.raises(ValueError):
            _label_subset(100, 0.0, rng)
        with pytest.raises(ValueError):
            _label_subset(100, 1.5, rng)

    def test_forecasting_fine_tune_runs(self):
        data = _forecast_data()
        model = TimeDRL(_config(channel_independence=True))
        scores = run_finetune_forecasting(model, data, label_fraction=0.5,
                                          epochs=1, seed=0)
        assert np.isfinite(scores.mse)

    def test_more_labels_do_not_hurt_much(self):
        data = _forecast_data()
        config = _config(channel_independence=True)
        few = run_finetune_forecasting(TimeDRL(config), data, label_fraction=0.1,
                                       epochs=2, seed=0)
        many = run_finetune_forecasting(TimeDRL(config), data, label_fraction=1.0,
                                        epochs=2, seed=0)
        assert many.mse <= few.mse * 1.5

    def test_classification_fine_tune_runs(self):
        data = _class_data()
        config = _config(seq_len=8, input_channels=2, patch_len=2, stride=2)
        model = TimeDRL(config)
        scores = run_finetune_classification(model, data, label_fraction=1.0,
                                             epochs=2, seed=0)
        assert 0 <= scores.accuracy <= 100

    def test_pretrained_start_helps_with_few_labels(self):
        data = _class_data()
        config = _config(seq_len=8, input_channels=2, patch_len=2, stride=2)
        pretrained = run_pretrain(config, data.x_train,
                                  PretrainConfig(epochs=3, batch_size=32, seed=0)).model
        warm = TimeDRL(config)
        warm.load_state_dict(pretrained.state_dict())
        warm_scores = run_finetune_classification(warm, data, label_fraction=0.3,
                                                  epochs=2, seed=0)
        cold_scores = run_finetune_classification(TimeDRL(config), data,
                                                  label_fraction=0.3, epochs=2, seed=0)
        assert warm_scores.accuracy >= cold_scores.accuracy - 15.0
