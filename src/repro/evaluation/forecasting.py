"""Generic forecasting linear-probe protocol (Tables III–IV).

Works for *any* representation learner: the caller supplies a feature
function mapping a raw window batch ``(B, L, C)`` to either

* ``(B, F)``   — one feature vector per window (channel-mixing models), or
* ``(B, C, F)`` — one vector per channel (channel-independent models,
  probed with shared per-channel weights as in PatchTST).

The probe predicts the instance-normalised future and predictions are
de-normalised with each window's own statistics (RevIN convention), then
scored with MSE/MAE in the dataset's scaled space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.datasets import ForecastingData, ForecastingWindows
from . import metrics

__all__ = ["ForecastScores", "RidgeProbe", "ridge_probe_forecasting",
           "collect_forecast_features"]

_EPS = 1e-5
_CHUNK = 256

FeatureFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class ForecastScores:
    """Forecasting test metrics in the dataset's scaled space."""

    mse: float
    mae: float


class RidgeProbe:
    """Closed-form ridge regression with an unpenalised bias column —
    the exact minimiser of the linear probe's regularised MSE objective.
    Solved in float64: with more features than windows, a float32 Gram
    matrix is mostly round-off."""

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.weights_: np.ndarray | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeProbe":
        x = _with_bias(features)
        gram = x.T @ x
        regulariser = self.alpha * np.eye(gram.shape[0])
        regulariser[-1, -1] = 0.0
        self.weights_ = np.linalg.solve(
            gram + regulariser, x.T @ np.asarray(targets, dtype=np.float64))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.weights_ is None:
            raise RuntimeError("RidgeProbe used before fit()")
        return _with_bias(features) @ self.weights_


def _with_bias(features: np.ndarray) -> np.ndarray:
    """``features`` in float64 with a trailing column of ones."""
    features = np.asarray(features, dtype=np.float64)
    return np.concatenate([features, np.ones((len(features), 1))], axis=1)


def _window_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True) + _EPS
    return mean, std


def collect_forecast_features(features_fn: FeatureFn, windows: ForecastingWindows
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``features_fn`` over every window of a split in chunks.

    Returns ``(features, targets_norm, means, stds)``.
    """
    feature_chunks, target_chunks, mean_chunks, std_chunks = [], [], [], []
    for start in range(0, len(windows), _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, len(windows)))
        x, y = windows.batch(indices)
        mean, std = _window_stats(x)
        feature_chunks.append(features_fn(x))
        target_chunks.append((y - mean) / std)
        mean_chunks.append(mean)
        std_chunks.append(std)
    return (np.concatenate(feature_chunks), np.concatenate(target_chunks),
            np.concatenate(mean_chunks), np.concatenate(std_chunks))


def _flatten_for_probe(features: np.ndarray, targets_norm: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Fold the per-channel axis (if present) into the sample axis."""
    if features.ndim == 3:  # (N, C, F): shared per-channel probe
        n, c, width = features.shape
        flat_features = features.reshape(n * c, width)
        flat_targets = targets_norm.transpose(0, 2, 1).reshape(n * c, -1)
        return flat_features, flat_targets
    if features.ndim == 2:
        return features, targets_norm.reshape(len(targets_norm), -1)
    raise ValueError(f"features must be 2-D or 3-D, got shape {features.shape}")


def _unflatten_predictions(normed: np.ndarray, features: np.ndarray,
                           horizon: int, n_channels: int) -> np.ndarray:
    if features.ndim == 3:
        n, c, __ = features.shape
        return normed.reshape(n, c, horizon).transpose(0, 2, 1)
    return normed.reshape(len(features), horizon, n_channels)


def ridge_probe_forecasting(features_fn: FeatureFn, data: ForecastingData,
                            alpha: float = 1.0) -> ForecastScores:
    """Fit the probe on the train split; report MSE/MAE on the test split."""
    train_feats, train_targets, __, __ = collect_forecast_features(features_fn, data.train)
    flat_features, flat_targets = _flatten_for_probe(train_feats, train_targets)
    probe = RidgeProbe(alpha).fit(flat_features, flat_targets)

    test_feats, __, means, stds = collect_forecast_features(features_fn, data.test)
    flat_test, __ = _flatten_for_probe(
        test_feats, np.zeros((len(test_feats), data.pred_len, data.n_features),
                             dtype=np.float32))
    normed = probe.predict(flat_test)
    preds = _unflatten_predictions(normed, test_feats, data.pred_len, data.n_features)
    preds = preds * stds + means
    truth = np.stack([data.test[i][1] for i in range(len(data.test))])
    return ForecastScores(mse=metrics.mse(truth, preds), mae=metrics.mae(truth, preds))
