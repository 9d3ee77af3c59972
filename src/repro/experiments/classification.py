"""Table V driver: linear evaluation on time-series classification.

Every method pre-trains on the (unlabeled) training samples, then a
softmax linear probe is trained on frozen instance-level embeddings and
scored with ACC / macro-F1 / Cohen's kappa on the held-out test split.
"""

from __future__ import annotations

from ..baselines import CLASSIFICATION_BASELINES
from ..checkpoint import CheckpointConfig
from ..core import (
    PretrainConfig,
    TimeDRLConfig,
    linear_evaluate_classification,
    run_pretrain,
)
from ..data import (
    CLASSIFICATION_DATASETS,
    classification_spec,
    load_classification_dataset,
    make_classification_data,
)
from ..data.datasets import ClassificationData
from ..evaluation import linear_probe_classification
from ..telemetry import NULL_RUN
from .forecasting import _dataset_checkpoint
from .scale import ScalePreset, get_scale
from .tables import ResultTable

__all__ = [
    "CLASSIFICATION_METHODS",
    "prepare_classification_data",
    "timedrl_classification_config",
    "run_classification_method",
    "classification_table",
]

CLASSIFICATION_METHODS = ("TimeDRL", "MHCCL", "CCL", "SimCLR", "BYOL",
                          "TS2Vec", "TS-TCC", "T-Loss")


def prepare_classification_data(dataset: str, preset: ScalePreset, seed: int = 0
                                ) -> ClassificationData:
    info = CLASSIFICATION_DATASETS[dataset]
    scale = min(1.0, preset.max_samples / info.samples)
    x, y = load_classification_dataset(dataset, scale=scale, seed=seed)
    return make_classification_data(x, y, seed=seed)


def timedrl_classification_config(dataset: str, preset: ScalePreset, seed: int = 0,
                                  **overrides) -> TimeDRLConfig:
    """The paper's classification configuration: channel independence *off*
    (Section V: 'for time-series classification, we found that omitting
    channel-independence yielded better results')."""
    info = CLASSIFICATION_DATASETS[dataset]
    d_model = max(preset.classify_d_model, 2 * preset.num_heads)
    # Patch sizing: keep the token width C*P at or below d_model so the
    # linear token encoding is not a lossy bottleneck (the reconstruction
    # pretext task needs head-room to encode each patch faithfully), and
    # never patch coarser than a quarter of the series.
    patch_len = max(min(preset.patch_len, info.length // 4,
                        d_model // info.features), 1)
    params = dict(
        seq_len=info.length, input_channels=info.features,
        patch_len=patch_len, stride=patch_len,
        d_model=d_model, num_heads=preset.num_heads,
        num_layers=preset.num_layers, channel_independence=False, seed=seed,
    )
    params.update(overrides)
    return TimeDRLConfig(**params)


def run_classification_method(method: str, dataset: str, data: ClassificationData,
                              preset: ScalePreset, seed: int = 0,
                              config_overrides: dict | None = None,
                              checkpoint: CheckpointConfig | None = None,
                              run=None) -> dict[str, float]:
    """Pre-train + probe one method; returns ``{"ACC", "MF1", "kappa"}``.

    Every method trains through the same loop, but only TimeDRL is given
    ``checkpoint``: each dataset checkpoints into its own subdirectory
    (of the telemetry ``run``'s directory when no directory is given)
    with a data spec so ``repro runs resume`` can rebuild the samples.
    """
    if method == "TimeDRL":
        config = timedrl_classification_config(dataset, preset, seed=seed,
                                               **(config_overrides or {}))
        if checkpoint is not None:
            info = CLASSIFICATION_DATASETS[dataset]
            scale = min(1.0, preset.max_samples / info.samples)
            checkpoint = _dataset_checkpoint(
                checkpoint, dataset,
                classification_spec(dataset, scale=scale, seed=seed), run)
        outcome = run_pretrain(config, data.x_train, PretrainConfig(
            epochs=preset.classify_pretrain_epochs, batch_size=preset.batch_size,
            max_batches_per_epoch=preset.max_batches, seed=seed,
            checkpoint=checkpoint))
        scores = linear_evaluate_classification(outcome.model, data,
                                                epochs=preset.probe_epochs, seed=seed)
    elif method in CLASSIFICATION_BASELINES:
        model = CLASSIFICATION_BASELINES[method](
            in_channels=data.n_features, d_model=preset.d_model, seed=seed)
        model.fit(data.x_train, PretrainConfig(
            epochs=preset.classify_pretrain_epochs, batch_size=preset.batch_size,
            weight_decay=1e-4, max_batches_per_epoch=preset.max_batches,
            seed=seed))
        scores = linear_probe_classification(lambda x: model.encode(x)[1], data,
                                             epochs=preset.probe_epochs, seed=seed)
    else:
        raise KeyError(f"unknown classification method {method!r}; "
                       f"available: {CLASSIFICATION_METHODS}")
    return {"ACC": scores.accuracy, "MF1": scores.macro_f1, "kappa": scores.kappa}


def classification_table(datasets: tuple[str, ...] = ("Epilepsy",),
                         methods: tuple[str, ...] = CLASSIFICATION_METHODS,
                         preset: ScalePreset | None = None,
                         seed: int = 0, run=None,
                         checkpoint: CheckpointConfig | None = None
                         ) -> dict[str, ResultTable]:
    """Regenerate the paper's Table V.

    Returns ``{"ACC": table, "MF1": table, "kappa": table}``, one row per
    dataset and one column per method (values are percentages).  An
    optional telemetry ``run`` traces each cell and records every score as
    a structured metric event.
    """
    preset = preset or get_scale()
    run = NULL_RUN if run is None else run
    tables = {
        metric: ResultTable(f"Linear evaluation, classification ({metric})",
                            columns=list(methods))
        for metric in ("ACC", "MF1", "kappa")
    }
    for dataset in datasets:
        with run.span("dataset", dataset=dataset):
            data = prepare_classification_data(dataset, preset, seed)
            for method in methods:
                with run.span("method", dataset=dataset, method=method):
                    scores = run_classification_method(method, dataset, data,
                                                       preset, seed,
                                                       checkpoint=checkpoint,
                                                       run=run)
                for metric in tables:
                    tables[metric].add(dataset, method, scores[metric])
                run.emit("metric", experiment="classification_table",
                         dataset=dataset, method=method, **scores)
    return tables
