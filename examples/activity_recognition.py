#!/usr/bin/env python3
"""Human-activity recognition with instance-level embeddings.

The scenario from the paper's introduction: a smartwatch/phone streams
accelerometer windows, most of them unlabeled.  TimeDRL pre-trains on the
unlabeled pool; a linear probe on the frozen [CLS] embeddings then
classifies activities — and we compare against the pooling strategies the
paper ablates (Table VII) to show why the dedicated [CLS] token matters.

Run:  python examples/activity_recognition.py
"""

import numpy as np

from repro.core import (
    PretrainConfig,
    TimeDRL,
    TimeDRLConfig,
    linear_evaluate_classification,
)
from repro.data import load_classification_dataset, make_classification_data
from repro.train import TrainOptions, TrainSession


def main() -> None:
    # HAR-like data: 9 inertial channels, 6 activities, 128-step windows.
    x, y = load_classification_dataset("HAR", scale=0.04, seed=0)
    data = make_classification_data(x, y, seed=0)
    print(f"samples: train={len(data.x_train)} test={len(data.x_test)}, "
          f"{data.n_features} channels, {data.n_classes} activities")

    results = {}
    for pooling in ("cls", "gap", "last"):
        config = TimeDRLConfig(
            seq_len=data.length,
            input_channels=data.n_features,
            patch_len=16,
            stride=16,
            d_model=32,
            num_heads=4,
            num_layers=2,
            pooling=pooling,
            channel_independence=False,  # the paper's classification setting
            seed=0,
        )
        outcome = TrainSession(config).pretrain(data.x_train, TrainOptions(
            pretrain=PretrainConfig(epochs=3, batch_size=32, seed=0)))
        scores = linear_evaluate_classification(outcome.model, data, epochs=100)
        results[pooling] = scores
        print(f"pooling={pooling:>4}: ACC={scores.accuracy:5.1f}% "
              f"MF1={scores.macro_f1:5.1f}% kappa={scores.kappa:5.1f}")

    best = max(results, key=lambda k: results[k].accuracy)
    print(f"\nbest instance-embedding strategy here: {best!r} "
          f"(the paper's Table VII shows [CLS] winning at full scale)")

    # Inspect the embedding space: per-class mean [CLS] embedding distances.
    config = TimeDRLConfig(seq_len=data.length, input_channels=data.n_features,
                           patch_len=16, stride=16, d_model=32, num_heads=4,
                           num_layers=2, seed=0)
    model = TimeDRL(config)
    embeddings = model.encode(data.x_test)[1]
    print(f"\ninstance embeddings for the test split: {embeddings.shape}")
    per_class = {cls: embeddings[data.y_test == cls].mean(axis=0)
                 for cls in np.unique(data.y_test)}
    classes = sorted(per_class)
    print("pairwise distances between class-mean embeddings (random encoder):")
    for a in classes[:3]:
        row = " ".join(f"{np.linalg.norm(per_class[a] - per_class[b]):5.2f}"
                       for b in classes[:3])
        print(f"  class {a}: {row}")


if __name__ == "__main__":
    main()
