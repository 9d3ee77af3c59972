"""Tests for the anomaly-detection application on timestamp embeddings."""

import numpy as np
import pytest

from repro.core import AnomalyDetector, PretrainConfig, TimeDRL, TimeDRLConfig, run_pretrain
from repro.data import make_forecasting_data


def _data(seed=0, length=500):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.stack([
        np.sin(2 * np.pi * t / 16 + k) + 0.05 * rng.standard_normal(length)
        for k in range(2)
    ], axis=1).astype(np.float32)
    return make_forecasting_data(series, seq_len=32, pred_len=0, stride=4)


def _pretrained(data, seed=0):
    config = TimeDRLConfig(seq_len=32, input_channels=2, patch_len=8, stride=8,
                           d_model=16, num_heads=2, num_layers=1,
                           channel_independence=True, seed=seed)
    return run_pretrain(config, data.train,
                        PretrainConfig(epochs=3, batch_size=32, seed=seed)).model


class TestAnomalyDetector:
    def setup_method(self):
        self.data = _data()
        self.model = _pretrained(self.data)
        self.detector = AnomalyDetector(self.model)
        self.clean, __ = self.data.val.batch(np.arange(len(self.data.val)))

    def _corrupt(self, x, patch_index, magnitude=8.0, seed=1):
        rng = np.random.default_rng(seed)
        corrupted = x.copy()
        start = patch_index * 8
        corrupted[:, start: start + 8] += magnitude * rng.standard_normal(
            (len(x), 8, x.shape[2])).astype(np.float32)
        return corrupted

    def test_score_shape(self):
        scores = self.detector.score(self.clean)
        assert scores.shape == (len(self.clean), 4)  # 32 / 8 patches
        assert (scores >= 0).all()

    def test_corrupted_windows_score_higher(self):
        corrupted = self._corrupt(self.clean, patch_index=2)
        clean_scores = self.detector.score(self.clean).max(axis=1)
        corrupt_scores = self.detector.score(corrupted).max(axis=1)
        # Instance normalisation damps the contrast (a spike inflates the
        # whole window's std), so require a clear but not extreme margin.
        assert corrupt_scores.mean() > 1.5 * clean_scores.mean()

    def test_localisation(self):
        corrupted = self._corrupt(self.clean, patch_index=1)
        located = self.detector.localise(corrupted)
        assert (located == 1).mean() > 0.8

    def test_calibrate_and_detect(self):
        threshold = self.detector.calibrate(self.clean, quantile=0.99)
        assert threshold > 0
        result = self.detector.detect(self._corrupt(self.clean, patch_index=3))
        assert result.any_anomaly.mean() > 0.8
        # False-positive rate on clean data bounded by the quantile choice.
        clean_result = self.detector.detect(self.clean)
        assert clean_result.flags.mean() < 0.05

    def test_detect_before_calibrate_raises(self):
        with pytest.raises(RuntimeError):
            self.detector.detect(self.clean)

    def test_explicit_threshold_bypasses_calibration(self):
        result = self.detector.detect(self.clean, threshold=1e9)
        assert not result.flags.any()

    def test_invalid_quantile_raises(self):
        with pytest.raises(ValueError):
            self.detector.calibrate(self.clean, quantile=1.5)

    def test_channel_mixing_mode_supported(self):
        config = TimeDRLConfig(seq_len=32, input_channels=2, patch_len=8, stride=8,
                               d_model=16, num_heads=2, num_layers=1,
                               channel_independence=False, seed=0)
        model = TimeDRL(config)
        detector = AnomalyDetector(model)
        scores = detector.score(self.clean)
        assert scores.shape == (len(self.clean), 4)

    def test_model_training_mode_restored(self):
        self.model.train()
        self.detector.score(self.clean[:2])
        assert self.model.training
