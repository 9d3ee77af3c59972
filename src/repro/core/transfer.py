"""Cross-dataset transfer evaluation (toward the paper's future work).

The conclusion sketches TimeDRL "toward a more comprehensive foundation
model"; the natural first measurement is *transfer*: pre-train the encoder
on one dataset, probe it frozen on another.  This module implements that
protocol for forecasting, where channel independence makes encoders
dataset-agnostic (every channel is a univariate series, so feature counts
need not match).
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass

from ..data.datasets import ForecastingData
from ..evaluation.forecasting import ridge_probe_forecasting
from .config import PretrainConfig, TimeDRLConfig
from .finetune import timedrl_forecast_features
from .model import TimeDRL
from .pretrain import _resolve_checkpoint_dir, phase_run, run_pretrain

__all__ = ["TransferResult", "run_transfer"]


@dataclass
class TransferResult:
    """Transfer vs in-domain comparison on the target dataset."""

    transfer_mse: float       # pre-trained on source, probed on target
    in_domain_mse: float      # pre-trained on target, probed on target
    random_mse: float         # random frozen encoder, probed on target
    run_id: str | None = None  # telemetry run id (when enabled)

    @property
    def transfer_gap(self) -> float:
        """How much of the in-domain advantage transfer retains: 0 means
        transfer equals a random encoder, 1 means it matches in-domain."""
        spread = self.random_mse - self.in_domain_mse
        if abs(spread) < 1e-12:
            return 1.0
        return float((self.random_mse - self.transfer_mse) / spread)


def run_transfer(source: ForecastingData, target: ForecastingData,
                 config: TimeDRLConfig,
                 train_config: PretrainConfig | None = None,
                 alpha: float = 1.0, run=None,
                 distributed=None) -> TransferResult:
    """Pre-train on ``source``, evaluate the frozen encoder on ``target``.

    ``config`` must use ``channel_independence=True`` so the encoder is
    agnostic to the feature counts of the two datasets.  An optional
    telemetry ``run`` traces the three phases (source pre-train, target
    pre-train, random baseline) as spans and records the resulting MSEs;
    without one, ``train_config.telemetry`` records them all in one run
    of its own.  ``distributed`` (world size / dict /
    ``DistributedConfig``) applies to both pre-training phases.
    """
    if not config.channel_independence:
        raise ValueError("transfer requires channel_independence=True "
                         "(the encoder must be feature-count agnostic)")
    if source.seq_len != target.seq_len:
        raise ValueError("source and target must share seq_len")
    train_config = train_config or PretrainConfig()
    with phase_run(run, train_config, model_config=config,
                   train_config=train_config, seed=train_config.seed,
                   data=source, tags={"phase": "transfer"}) as run:
        def phase_config(phase: str) -> PretrainConfig:
            """Give each pre-training phase its own checkpoint subdirectory —
            the two phases run the same step counts, so sharing one directory
            would collide file names (and ``resume`` would cross phases)."""
            ckpt = train_config.checkpoint
            if ckpt is None:
                return train_config
            base = _resolve_checkpoint_dir(ckpt, train_config, run)
            phase_ckpt = dataclasses.replace(
                ckpt, directory=str(pathlib.Path(base) / phase))
            return dataclasses.replace(train_config, checkpoint=phase_ckpt)

        with run.span("transfer_source_pretrain"):
            source_model = run_pretrain(config, source.train,
                                        phase_config("source"), run=run,
                                        distributed=distributed).model
        transfer_mse = ridge_probe_forecasting(
            timedrl_forecast_features(source_model), target, alpha).mse

        with run.span("transfer_target_pretrain"):
            target_model = run_pretrain(config, target.train,
                                        phase_config("target"), run=run,
                                        distributed=distributed).model
        in_domain_mse = ridge_probe_forecasting(
            timedrl_forecast_features(target_model), target, alpha).mse

        with run.span("transfer_random_baseline"):
            random_model = TimeDRL(config)
            random_model.eval()
        random_mse = ridge_probe_forecasting(
            timedrl_forecast_features(random_model), target, alpha).mse

        result = TransferResult(transfer_mse=transfer_mse,
                                in_domain_mse=in_domain_mse,
                                random_mse=random_mse, run_id=run.run_id)
        run.log_summary(transfer_mse=result.transfer_mse,
                        in_domain_mse=result.in_domain_mse,
                        random_mse=result.random_mse,
                        transfer_gap=result.transfer_gap)
        return result
