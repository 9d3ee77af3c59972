#!/usr/bin/env python3
"""Electric-power forecasting with limited labels (semi-supervised).

The paper's other motivating application (Informer's ETT setting): predict
transformer oil temperature from power-load series.  This example
reproduces the Fig. 5 story at example scale — when only a fraction of the
windows have usable targets, fine-tuning a pre-trained TimeDRL encoder
beats training the same architecture from scratch.

Run:  python examples/electricity_forecasting.py
"""

from repro.core import PretrainConfig, TimeDRL, TimeDRLConfig
from repro.data import load_forecasting_dataset, make_forecasting_data
from repro.train import TrainOptions, TrainSession


def main() -> None:
    series = load_forecasting_dataset("ETTh1", scale=0.08, seed=1)
    data = make_forecasting_data(series, seq_len=64, pred_len=24, stride=4)
    config = TimeDRLConfig(seq_len=64, input_channels=7, patch_len=8, stride=8,
                           d_model=32, num_heads=4, num_layers=2,
                           channel_independence=True, seed=1)

    # Pre-train once on ALL unlabeled windows.
    pretrained = TrainSession(config).pretrain(data.train, TrainOptions(
        pretrain=PretrainConfig(epochs=3, batch_size=32, seed=1))).model
    state = pretrained.state_dict()

    print(f"{'labels':>8} | {'supervised MSE':>15} | {'TimeDRL (FT) MSE':>17}")
    print("-" * 48)
    for fraction in (0.1, 0.5, 1.0):
        supervised_model = TimeDRL(config)  # random init
        options = TrainOptions(label_fraction=fraction, epochs=3, seed=1)
        supervised = TrainSession(config, model=supervised_model).finetune(
            data, options=options)

        finetuned_model = TimeDRL(config)
        finetuned_model.load_state_dict(state)  # warm start from pre-training
        finetuned = TrainSession(config, model=finetuned_model).finetune(
            data, options=options)
        print(f"{fraction:>7.0%} | {supervised.mse:>15.4f} | {finetuned.mse:>17.4f}")

    print("\nThe gap should widen as the label fraction shrinks (paper Fig. 5).")


if __name__ == "__main__":
    main()
