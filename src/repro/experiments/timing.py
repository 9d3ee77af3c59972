"""Fig. 4 driver: pre-training wall-clock comparison.

The paper compares TimeDRL (Transformer + patching) against the fast
convolutional encoders of SimTS and TS2Vec at a fixed batch size, epoch
count and sequence length, and argues the patching mechanism closes most
of the Transformer's efficiency gap.  This driver additionally times
TimeDRL *without* patching (patch_len = stride = 1) to expose exactly that
effect — the ablation DESIGN.md calls out.

Every method trains on the one training loop and is read from the same
clock: the ``run/pretrain`` phase span, reported as the result's
``wall_clock_seconds``.
"""

from __future__ import annotations

import dataclasses

from ..baselines import SimTS, TS2Vec
from ..core import PretrainConfig, run_pretrain
from .forecasting import prepare_forecasting_data, timedrl_config_for
from .scale import ScalePreset, get_scale
from .tables import ResultTable

__all__ = ["TIMING_METHODS", "training_time_table"]

TIMING_METHODS = ("TimeDRL", "TimeDRL (no patching)", "SimTS", "TS2Vec")


def training_time_table(datasets: tuple[str, ...] = ("ETTh1", "Exchange"),
                        methods: tuple[str, ...] = TIMING_METHODS,
                        preset: ScalePreset | None = None,
                        seed: int = 0) -> ResultTable:
    """Pre-training seconds per method per dataset (Fig. 4)."""
    preset = preset or get_scale()
    table = ResultTable("Pre-training wall-clock (seconds)", columns=list(datasets))
    for dataset in datasets:
        prepared = prepare_forecasting_data(dataset, preset, univariate=False,
                                            seed=seed)
        __, data = next(iter(prepared["horizons"].items()))
        n_features = prepared["n_features"]
        pretrain_config = PretrainConfig(
            epochs=preset.pretrain_epochs, batch_size=preset.batch_size,
            max_batches_per_epoch=preset.max_batches, seed=seed)
        # The weight decay the baselines train with in Tables III-V.
        baseline_config = dataclasses.replace(pretrain_config,
                                              weight_decay=1e-4)

        for method in methods:
            if method == "TimeDRL":
                config = timedrl_config_for(n_features, preset, seed=seed)
                result = run_pretrain(config, data.train, pretrain_config)
            elif method == "TimeDRL (no patching)":
                config = timedrl_config_for(n_features, preset, seed=seed,
                                            patch_len=1, stride=1)
                result = run_pretrain(config, data.train, pretrain_config)
            elif method == "SimTS":
                result = SimTS(in_channels=n_features, d_model=preset.d_model,
                               seed=seed).fit(data.train, baseline_config)
            elif method == "TS2Vec":
                result = TS2Vec(in_channels=n_features, d_model=preset.d_model,
                                seed=seed).fit(data.train, baseline_config)
            else:
                raise KeyError(f"unknown timing method {method!r}")
            table.add(method, dataset, result.wall_clock_seconds)
    return table
