#!/usr/bin/env python3
"""Anomaly detection with timestamp-level embeddings (extension).

The paper positions timestamp-level embeddings as the right tool for
"forecasting and anomaly detection" (Section III) but only evaluates
forecasting.  This example builds the anomaly application: the
timestamp-predictive head's reconstruction error, computed per patch,
flags injected anomalies in an industrial-machine-like signal — the
intro's third motivating workload.

Run:  python examples/anomaly_detection.py
"""

import numpy as np

from repro import nn
from repro.core import PretrainConfig, TimeDRLConfig
from repro.data import load_forecasting_dataset, make_forecasting_data
from repro.train import TrainOptions, TrainSession


def reconstruction_errors(model, x: np.ndarray) -> np.ndarray:
    """Per-patch reconstruction error of the timestamp-predictive head.

    Returns ``(B, T_p)`` — high values mark patches the pre-trained model
    cannot explain, i.e. anomalies.
    """
    model.eval()
    x_patched = model.encoder.prepare_input(x)
    with nn.no_grad():
        z = model.encoder(x_patched)
        __, z_t = model.encoder.split(z)
        recon = model.predictive_head(z_t).data
    per_patch = ((recon - x_patched) ** 2).mean(axis=-1)
    if model.config.channel_independence:  # (B*C, T_p) -> max over channels
        channels = x.shape[2]
        per_patch = per_patch.reshape(x.shape[0], channels, -1).max(axis=1)
    return per_patch


def main() -> None:
    rng = np.random.default_rng(7)
    series = load_forecasting_dataset("ETTh1", scale=0.08, seed=2)
    data = make_forecasting_data(series, seq_len=64, pred_len=0, stride=8)

    config = TimeDRLConfig(seq_len=64, input_channels=7, patch_len=8, stride=8,
                           d_model=32, num_heads=4, num_layers=2,
                           channel_independence=True, seed=2)
    model = TrainSession(config).pretrain(data.train, TrainOptions(
        pretrain=PretrainConfig(epochs=3, batch_size=32, seed=2))).model

    # Take clean test windows and inject one anomalous patch per window.
    x, __ = data.test.batch(np.arange(min(32, len(data.test))))
    corrupted = x.copy()
    true_patch = rng.integers(0, config.num_patches, size=len(x))
    for index, patch in enumerate(true_patch):
        start = patch * config.patch_len
        spike = 8.0 * rng.standard_normal((config.patch_len, x.shape[2]))
        corrupted[index, start: start + config.patch_len] += spike.astype(np.float32)

    clean_errors = reconstruction_errors(model, x)
    corrupt_errors = reconstruction_errors(model, corrupted)

    flagged = corrupt_errors.argmax(axis=1)
    hits = float(np.mean(flagged == true_patch))
    lift = float(corrupt_errors.max(axis=1).mean() / clean_errors.max(axis=1).mean())
    print(f"windows scored: {len(x)}")
    print(f"anomalous patch localised correctly: {hits:.0%}")
    print(f"error lift on corrupted windows: {lift:.1f}x")
    assert hits > 0.5, "anomaly localisation should beat chance by a wide margin"
    print("\ntimestamp-level embeddings localise the injected anomalies, "
          "as the paper's Section III claims they should.")


if __name__ == "__main__":
    main()
