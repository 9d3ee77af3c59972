"""Table III / Table IV drivers: linear evaluation on time-series
forecasting (multivariate and univariate).

Protocol per method and dataset:

* representation learners (TimeDRL, SimTS, TS2Vec, TNC, CoST) pre-train
  once on the training windows, then a linear probe is fit per prediction
  length on frozen features;
* end-to-end models (Informer, TCN) are trained from scratch per
  prediction length.

Results are MSE/MAE on the chronological test split in the dataset's
standard-scaled space, mirroring the paper.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..baselines import (
    END_TO_END_FORECASTERS,
    FORECASTING_SSL_BASELINES,
)
from ..checkpoint import CheckpointConfig
from ..core import (
    PretrainConfig,
    TimeDRLConfig,
    linear_evaluate_forecasting,
    run_pretrain,
)
from ..core.pretrain import _resolve_checkpoint_dir
from ..data import (
    FORECASTING_DATASETS,
    forecasting_spec,
    load_forecasting_dataset,
    make_forecasting_data,
)
from ..evaluation import ridge_probe_forecasting
from ..telemetry import NULL_RUN
from .scale import ScalePreset, get_scale
from .tables import ResultTable

__all__ = [
    "FORECAST_METHODS",
    "prepare_forecasting_data",
    "timedrl_config_for",
    "run_forecasting_method",
    "forecasting_table",
]

FORECAST_METHODS = ("TimeDRL", "SimTS", "TS2Vec", "TNC", "CoST", "Informer", "TCN")


def prepare_forecasting_data(dataset: str, preset: ScalePreset,
                             univariate: bool = False, seed: int = 0) -> dict:
    """Build per-horizon :class:`ForecastingData` plus shared metadata."""
    info = FORECASTING_DATASETS[dataset]
    scale = min(1.0, preset.max_timesteps / info.timesteps)
    series = load_forecasting_dataset(dataset, scale=scale, seed=seed)
    target = info.univariate_target if univariate else None
    horizons = [h for h in preset.horizons
                if _fits(len(series), preset.seq_len, h)]
    if not horizons:
        raise ValueError(f"no preset horizon fits dataset {dataset} at this scale")
    per_horizon = {
        horizon: make_forecasting_data(series, preset.seq_len, horizon,
                                       stride=preset.window_stride,
                                       univariate_target=target)
        for horizon in horizons
    }
    n_features = 1 if univariate else info.features
    return {"horizons": per_horizon, "n_features": n_features, "series": series,
            "spec": {"dataset": dataset, "scale": scale, "seed": seed,
                     "seq_len": preset.seq_len, "stride": preset.window_stride,
                     "univariate_target": target}}


def _fits(length: int, seq_len: int, horizon: int) -> bool:
    test_span = length - int(length * 0.8)
    return test_span >= seq_len + horizon


def timedrl_config_for(n_features: int, preset: ScalePreset, seed: int = 0,
                       **overrides) -> TimeDRLConfig:
    """The paper's forecasting configuration: channel independence on."""
    params = dict(
        seq_len=preset.seq_len, input_channels=n_features,
        patch_len=preset.patch_len, stride=preset.patch_len,
        d_model=preset.d_model, num_heads=preset.num_heads,
        num_layers=preset.num_layers, channel_independence=True, seed=seed,
    )
    params.update(overrides)
    return TimeDRLConfig(**params)


def _dataset_checkpoint(checkpoint: CheckpointConfig | None, dataset: str,
                        data_spec: dict | None, run
                        ) -> CheckpointConfig | None:
    """Per-dataset checkpoint sub-config: each dataset's pre-train gets its
    own subdirectory (shared directories would collide file names) of the
    directory pre-training picks — the explicit one, else the telemetry
    ``run``'s, else ``<run_root>/checkpoints`` — and a data spec so
    ``repro runs resume`` can rebuild the training data."""
    if checkpoint is None:
        return None
    base = _resolve_checkpoint_dir(checkpoint, PretrainConfig(),
                                   NULL_RUN if run is None else run)
    return dataclasses.replace(checkpoint, directory=str(base / dataset),
                               data_spec=data_spec)


def run_forecasting_method(method: str, prepared: dict, preset: ScalePreset,
                           seed: int = 0, config_overrides: dict | None = None,
                           checkpoint: CheckpointConfig | None = None,
                           run=None) -> dict[int, tuple[float, float]]:
    """Run one method over every horizon; returns ``{horizon: (mse, mae)}``.

    Every method trains through the same loop, but only TimeDRL is given
    ``checkpoint``; without a directory it lands under the telemetry
    ``run``'s directory when one is given.
    """
    horizons = prepared["horizons"]
    n_features = prepared["n_features"]
    first_horizon = next(iter(horizons))
    first_data = horizons[first_horizon]
    results: dict[int, tuple[float, float]] = {}

    if method == "TimeDRL":
        config = timedrl_config_for(n_features, preset, seed=seed,
                                    **(config_overrides or {}))
        spec = prepared.get("spec")
        data_spec = (forecasting_spec(pred_len=first_horizon, **spec)
                     if spec is not None else None)
        outcome = run_pretrain(config, first_data.train, PretrainConfig(
            epochs=preset.pretrain_epochs, batch_size=preset.batch_size,
            max_batches_per_epoch=preset.max_batches, seed=seed,
            checkpoint=_dataset_checkpoint(
                checkpoint, spec["dataset"] if spec else "forecasting",
                data_spec, run)))
        for horizon, data in horizons.items():
            scores = linear_evaluate_forecasting(outcome.model, data)
            results[horizon] = (scores.mse, scores.mae)
        return results

    if method in FORECASTING_SSL_BASELINES:
        model = FORECASTING_SSL_BASELINES[method](
            in_channels=n_features, d_model=preset.d_model, seed=seed)
        model.fit(first_data.train, PretrainConfig(
            epochs=preset.pretrain_epochs, batch_size=preset.batch_size,
            weight_decay=1e-4, max_batches_per_epoch=preset.max_batches,
            seed=seed))
        for horizon, data in horizons.items():
            scores = ridge_probe_forecasting(
                lambda x: model.encode(x)[0].reshape(len(x), -1), data)
            results[horizon] = (scores.mse, scores.mae)
        return results

    if method in END_TO_END_FORECASTERS:
        for horizon, data in horizons.items():
            if method == "Informer":
                model = END_TO_END_FORECASTERS[method](
                    in_channels=n_features, seq_len=preset.seq_len,
                    pred_len=horizon, d_model=preset.d_model, seed=seed)
            else:
                model = END_TO_END_FORECASTERS[method](
                    in_channels=n_features, pred_len=horizon,
                    d_model=preset.d_model, seed=seed)
            model.fit(data, PretrainConfig(
                epochs=preset.pretrain_epochs, batch_size=preset.batch_size,
                weight_decay=1e-4, max_batches_per_epoch=preset.max_batches,
                seed=seed))
            results[horizon] = model.evaluate(data)
        return results

    raise KeyError(f"unknown forecasting method {method!r}; "
                   f"available: {FORECAST_METHODS}")


def forecasting_table(datasets: tuple[str, ...] = ("ETTh1",),
                      methods: tuple[str, ...] = FORECAST_METHODS,
                      univariate: bool = False,
                      preset: ScalePreset | None = None,
                      seed: int = 0, run=None,
                      checkpoint: CheckpointConfig | None = None
                      ) -> dict[str, ResultTable]:
    """Regenerate the paper's Table III (or IV with ``univariate=True``).

    Returns ``{"MSE": table, "MAE": table}`` with one row per
    dataset/horizon pair and one column per method.  An optional telemetry
    ``run`` traces each dataset/method cell as a span and records every
    (mse, mae) score as a structured metric event.  ``checkpoint``
    enables fault-tolerant TimeDRL pre-training (one subdirectory per
    dataset).
    """
    preset = preset or get_scale()
    run = NULL_RUN if run is None else run
    flavour = "univariate" if univariate else "multivariate"
    mse_table = ResultTable(f"Linear evaluation, {flavour} forecasting (MSE)",
                            columns=list(methods))
    mae_table = ResultTable(f"Linear evaluation, {flavour} forecasting (MAE)",
                            columns=list(methods))
    for dataset in datasets:
        with run.span("dataset", dataset=dataset, flavour=flavour):
            prepared = prepare_forecasting_data(dataset, preset, univariate, seed)
            for method in methods:
                with run.span("method", dataset=dataset, method=method):
                    per_horizon = run_forecasting_method(method, prepared,
                                                         preset, seed,
                                                         checkpoint=checkpoint,
                                                         run=run)
                for horizon, (mse_value, mae_value) in per_horizon.items():
                    row = f"{dataset}-{horizon}"
                    mse_table.add(row, method, mse_value)
                    mae_table.add(row, method, mae_value)
                    run.emit("metric", experiment="forecasting_table",
                             dataset=dataset, method=method, horizon=horizon,
                             mse=mse_value, mae=mae_value)
    return {"MSE": mse_table, "MAE": mae_table}
