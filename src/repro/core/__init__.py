"""``repro.core`` — the TimeDRL model, pretext tasks and downstream protocols."""

from .anomaly import AnomalyDetector, AnomalyResult
from .config import PretrainConfig, TimeDRLConfig
from .encoder import TimeDRLEncoder, build_backbone
from .finetune import (
    ClassificationResult,
    ForecastHead,
    ForecastResult,
    RidgeRegressor,
    extract_forecast_features,
    extract_instance_features,
    linear_evaluate_classification,
    linear_evaluate_forecasting,
    run_finetune_classification,
    run_finetune_forecasting,
)
from .heads import InstanceContrastiveHead, TimestampPredictiveHead
from .model import TimeDRL
from .patching import (
    from_channel_independent,
    instance_norm,
    num_patches,
    patchify,
    to_channel_independent,
    unpatchify,
)
from .pooling import instance_dim, pool_instance
from .pretrain import PretrainResult, iterate_pretrain_batches, run_pretrain
from .transfer import TransferResult, run_transfer

__all__ = [
    "TimeDRLConfig", "PretrainConfig",
    "AnomalyDetector", "AnomalyResult",
    "TimeDRL", "TimeDRLEncoder", "build_backbone",
    "TimestampPredictiveHead", "InstanceContrastiveHead",
    "instance_norm", "patchify", "unpatchify", "num_patches",
    "to_channel_independent", "from_channel_independent",
    "pool_instance", "instance_dim",
    "run_pretrain", "PretrainResult", "iterate_pretrain_batches",
    "linear_evaluate_forecasting", "linear_evaluate_classification",
    "run_finetune_forecasting", "run_finetune_classification",
    "ForecastResult", "ClassificationResult", "ForecastHead", "RidgeRegressor",
    "extract_forecast_features", "extract_instance_features",
    "TransferResult", "run_transfer",
]
