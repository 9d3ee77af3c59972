#!/usr/bin/env python3
"""Quickstart: pre-train TimeDRL and use both embedding levels.

Walks the full paper pipeline in under a minute on a laptop CPU:

1. generate an ETTh1-like multivariate series,
2. self-supervised pre-training (timestamp-predictive + instance-
   contrastive tasks, no augmentations, dropout-only views),
3. linear evaluation of the timestamp-level embeddings on forecasting,
4. a peek at the disentangled instance-level [CLS] embedding.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (PretrainConfig, TimeDRLConfig,
                        linear_evaluate_forecasting)
from repro.data import load_forecasting_dataset, make_forecasting_data
from repro.train import TrainOptions, TrainSession


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data: an ETTh1-like series (7 features, hourly periodicities).
    # ------------------------------------------------------------------
    series = load_forecasting_dataset("ETTh1", scale=0.08, seed=0)
    print(f"series: {series.shape[0]} timesteps x {series.shape[1]} features")

    data = make_forecasting_data(series, seq_len=64, pred_len=24, stride=4)
    print(f"windows: train={len(data.train)} val={len(data.val)} test={len(data.test)}")

    # ------------------------------------------------------------------
    # 2. Self-supervised pre-training.
    # ------------------------------------------------------------------
    config = TimeDRLConfig(
        seq_len=64,
        input_channels=7,
        patch_len=8,            # P: 8 timesteps per token
        stride=8,               # non-overlapping patches -> T_p = 8 tokens
        d_model=32,
        num_heads=4,
        num_layers=2,
        dropout=0.1,            # the *only* source of view randomness
        lambda_weight=1.0,      # L = L_P + lambda * L_C (Eq. 19)
        channel_independence=True,  # the paper's forecasting setting
    )
    result = TrainSession(config).pretrain(data.train, TrainOptions(
        pretrain=PretrainConfig(epochs=3, batch_size=32, verbose=True)))
    print(f"pre-trained in {result.wall_clock_seconds:.1f}s, "
          f"final loss {result.final_loss:.4f}")

    # ------------------------------------------------------------------
    # 3. Linear evaluation on forecasting (frozen encoder).
    # ------------------------------------------------------------------
    scores = linear_evaluate_forecasting(result.model, data)
    print(f"linear-probe forecasting: MSE={scores.mse:.4f} MAE={scores.mae:.4f}")

    # ------------------------------------------------------------------
    # 4. Dual-level embeddings from one batch.
    # ------------------------------------------------------------------
    x, __ = data.test.batch(np.arange(4))
    timestamp, instance = result.model.encode(x)
    print(f"instance-level  z_i: {instance.shape}  ([CLS] token per channel series)")
    print(f"timestamp-level z_t: {timestamp.shape}  (one embedding per patch)")


if __name__ == "__main__":
    main()
