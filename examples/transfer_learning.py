#!/usr/bin/env python3
"""Cross-dataset transfer: a first step toward the paper's foundation model.

The paper's conclusion points at extending TimeDRL "toward a more
comprehensive foundation model".  The minimal measurable version of that
ambition is transfer: pre-train once on one dataset's unlabeled windows,
then probe the *frozen* encoder on a different dataset.  Channel
independence makes this well-posed — the encoder never sees the feature
count, only univariate patch streams.

Run:  python examples/transfer_learning.py
"""

from repro.core import PretrainConfig, TimeDRLConfig
from repro.data import load_forecasting_dataset, make_forecasting_data
from repro.train import TrainOptions, TrainSession


def main() -> None:
    config = TimeDRLConfig(seq_len=64, input_channels=7, patch_len=8, stride=8,
                           d_model=32, num_heads=4, num_layers=2,
                           channel_independence=True, seed=0)
    train_config = PretrainConfig(epochs=3, batch_size=32, seed=0)

    source_series = load_forecasting_dataset("ETTh1", scale=0.08, seed=0)
    source = make_forecasting_data(source_series, seq_len=64, pred_len=24, stride=4)

    print(f"{'target':>10} | {'random':>8} | {'transfer':>8} | {'in-domain':>9} | kept")
    print("-" * 55)
    for target_name in ("ETTh2", "Exchange", "Weather"):
        info_scale = 0.08 if target_name.startswith("ETT") else 0.15
        target_series = load_forecasting_dataset(target_name, scale=info_scale, seed=1)
        target = make_forecasting_data(target_series, seq_len=64, pred_len=24, stride=4)
        result = TrainSession(config).transfer(
            source, target, TrainOptions(pretrain=train_config))
        spread = result.random_mse - result.in_domain_mse
        kept = f"{result.transfer_gap:4.0%}" if spread > 1e-3 else "   —"
        print(f"{target_name:>10} | {result.random_mse:8.4f} | "
              f"{result.transfer_mse:8.4f} | {result.in_domain_mse:9.4f} | {kept}")

    print("\n'kept' is the fraction of the in-domain advantage over a random")
    print("encoder that transfer retains (1 = free lunch, 0 = nothing moved);")
    print("'—' marks targets where pre-training gave no in-domain edge to keep.")


if __name__ == "__main__":
    main()
