"""Tests for cross-dataset transfer evaluation."""

import numpy as np
import pytest

from repro.core import PretrainConfig, TimeDRLConfig, run_transfer
from repro.data import make_forecasting_data


def _sine_data(period, seed, length=420, channels=2):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.stack([
        np.sin(2 * np.pi * t / period + k) + 0.1 * rng.standard_normal(length)
        for k in range(channels)
    ], axis=1).astype(np.float32)
    return make_forecasting_data(series, seq_len=32, pred_len=8, stride=4)


def _config(**overrides):
    params = dict(seq_len=32, input_channels=2, patch_len=8, stride=8,
                  d_model=16, num_heads=2, num_layers=1,
                  channel_independence=True, seed=0)
    params.update(overrides)
    return TimeDRLConfig(**params)


class TestTransferForecasting:
    def test_requires_channel_independence(self):
        data = _sine_data(16, 0)
        with pytest.raises(ValueError, match="channel_independence"):
            run_transfer(data, data, _config(channel_independence=False))

    def test_requires_matching_seq_len(self):
        source = _sine_data(16, 0)
        target_series = np.random.default_rng(1).standard_normal((300, 2)).astype(np.float32)
        target = make_forecasting_data(target_series, seq_len=16, pred_len=4)
        with pytest.raises(ValueError, match="seq_len"):
            run_transfer(source, target, _config())

    def test_transfer_between_related_domains(self):
        """Pre-training on a similar-period source should transfer: the
        source encoder's features probe close to the in-domain encoder's.
        (No claim against the random encoder — random features + ridge are
        a strong reservoir baseline on clean sines.)"""
        source = _sine_data(16, seed=0)
        target = _sine_data(20, seed=1)
        result = run_transfer(
            source, target, _config(),
            PretrainConfig(epochs=3, batch_size=32, seed=0))
        assert np.isfinite(result.transfer_mse)
        assert np.isfinite(result.in_domain_mse)
        assert np.isfinite(result.random_mse)
        # Transfer should land near in-domain quality on related domains.
        assert result.transfer_mse <= result.in_domain_mse * 1.5

    def test_transfer_gap_when_source_equals_target(self):
        source = _sine_data(16, seed=2)
        result = run_transfer(
            source, source, _config(),
            PretrainConfig(epochs=2, batch_size=32, max_batches_per_epoch=4, seed=0))
        # Source == target: transfer IS in-domain.
        np.testing.assert_allclose(result.transfer_mse, result.in_domain_mse,
                                   rtol=1e-5)

    def test_feature_count_mismatch_is_fine_with_ci(self):
        """Channel independence makes the encoder agnostic to C."""
        source = _sine_data(16, seed=0, channels=2)
        rng = np.random.default_rng(3)
        t = np.arange(420)
        wide = np.stack([np.sin(2 * np.pi * t / 24 + k)
                         + 0.1 * rng.standard_normal(420) for k in range(5)],
                        axis=1).astype(np.float32)
        target = make_forecasting_data(wide, seq_len=32, pred_len=8, stride=4)
        result = run_transfer(
            source, target, _config(),
            PretrainConfig(epochs=1, batch_size=32, max_batches_per_epoch=3, seed=0))
        assert np.isfinite(result.transfer_mse)
