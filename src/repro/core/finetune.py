"""Downstream protocols (paper Fig. 3b).

* **Linear evaluation** — freeze the pre-trained encoder, train only a
  linear layer on top (Tables III–V).  Forecasting probes are fit in closed
  form (ridge regression — exact minimiser of the MSE objective a linear
  layer would be trained toward); classification probes are a softmax
  linear layer trained with AdamW.
* **Fine-tuning** — unfreeze the encoder and train it jointly with the
  task head on (a fraction of) the labelled data (the semi-supervised
  protocol of Fig. 5, 'TimeDRL (FT)').
* **Supervised baseline** — the identical architecture trained from random
  initialisation on the labelled fraction only (Fig. 5 'Supervised').

Forecasting heads predict the *instance-normalised* future and results are
de-normalised with the input window's statistics (RevIN-style), matching
the paper's use of instance normalisation + PatchTST conventions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..checkpoint import CheckpointConfig
from ..data.datasets import ClassificationData, ForecastingData, ForecastingWindows
from ..evaluation import metrics
from ..evaluation.classification import linear_probe_classification
from ..evaluation.forecasting import RidgeProbe, collect_forecast_features, ridge_probe_forecasting
from ..nn import Tensor
from ..telemetry import NULL_RUN
from .config import PretrainConfig
from .model import TimeDRL
from .pooling import instance_dim, pool_instance
from .pretrain import _run_loop

__all__ = [
    "ForecastResult",
    "ClassificationResult",
    "RidgeRegressor",
    "extract_forecast_features",
    "extract_instance_features",
    "linear_evaluate_forecasting",
    "linear_evaluate_classification",
    "run_finetune_forecasting",
    "run_finetune_classification",
    "ForecastHead",
]

_EPS = 1e-5
_CHUNK = 256  # feature-extraction batch size (memory bound, not compute)


@dataclass
class ForecastResult:
    """Forecasting metrics in the dataset's scaled space."""

    mse: float
    mae: float
    profile: dict[str, dict[str, float]] | None = None  # op stats when profiled
    run_id: str | None = None   # telemetry run id (when enabled)


@dataclass
class ClassificationResult:
    """Classification metrics as percentages (paper Table V convention)."""

    accuracy: float
    macro_f1: float
    kappa: float
    profile: dict[str, dict[str, float]] | None = None  # op stats when profiled
    run_id: str | None = None   # telemetry run id (when enabled)


# Alias kept for API symmetry with the evaluation package.
RidgeRegressor = RidgeProbe


def _window_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-window, per-channel mean/std of the input (for de-normalising)."""
    mean = x.mean(axis=1, keepdims=True)
    std = x.std(axis=1, keepdims=True) + _EPS
    return mean, std


def timedrl_forecast_features(model: TimeDRL):
    """Feature function for the generic forecasting probe: flattened z_t,
    per channel under channel-independence."""

    def features_fn(x: np.ndarray) -> np.ndarray:
        z_t, __ = model.encode(x)  # CI: (B*C, T_p, D); else (B, T_p, D)
        if model.config.channel_independence:
            batch, channels = x.shape[0], x.shape[2]
            return z_t.reshape(batch, channels, -1)
        return z_t.reshape(x.shape[0], -1)

    return features_fn


def extract_forecast_features(model: TimeDRL, windows: ForecastingWindows,
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frozen-encoder features for every window of a split.

    Returns ``(features, targets_norm, means, stds)``; features are
    ``(N, C, T_p·D)`` under channel independence, else ``(N, T_p·D)``.
    """
    return collect_forecast_features(timedrl_forecast_features(model), windows)


def extract_instance_features(model: TimeDRL, x: np.ndarray) -> np.ndarray:
    """Frozen-encoder pooled instance embeddings for samples ``(N, T, C)``."""
    chunks = [model.encode(x[s: s + _CHUNK])[1]
              for s in range(0, len(x), _CHUNK)]
    return np.concatenate(chunks)


def linear_evaluate_forecasting(model: TimeDRL, data: ForecastingData,
                                alpha: float = 1.0) -> ForecastResult:
    """Tables III–IV protocol: frozen encoder + linear head, test metrics."""
    scores = ridge_probe_forecasting(timedrl_forecast_features(model), data, alpha)
    return ForecastResult(mse=scores.mse, mae=scores.mae)


def linear_evaluate_classification(model: TimeDRL, data: ClassificationData,
                                   epochs: int = 100, lr: float = 1e-2,
                                   seed: int = 0) -> ClassificationResult:
    """Table V protocol: frozen encoder + softmax linear probe."""
    scores = linear_probe_classification(lambda x: model.encode(x)[1], data,
                                         epochs=epochs, lr=lr, seed=seed)
    return ClassificationResult(accuracy=scores.accuracy, macro_f1=scores.macro_f1,
                                kappa=scores.kappa)


# ----------------------------------------------------------------------
# Fine-tuning (semi-supervised protocol, Fig. 5)
# ----------------------------------------------------------------------
class _CheckpointBundle(nn.Module):
    """Wraps the encoder model and task head as one module tree so their
    parameters serialize into a single checkpoint state-dict."""

    def __init__(self, model: TimeDRL, head: nn.Module):
        super().__init__()
        self.model = model
        self.head = head


class _OptimizerPair:
    """The head/encoder optimizer duo as the one optimizer the training
    loop steps, rolls back and checkpoints.

    ``parameters`` lists the encoder's then the head's (the order the
    gradient clip sums them in).  The state dict follows the
    ``Optimizer.state_dict`` conventions (top-level ``slots`` mapping
    names to array lists) so it packs into checkpoint archives
    unchanged.
    """

    def __init__(self, head: nn.Optimizer, encoder: nn.Optimizer):
        self.head = head
        self.encoder = encoder
        self.parameters = encoder.parameters + head.parameters

    def zero_grad(self) -> None:
        self.head.zero_grad()
        self.encoder.zero_grad()

    def step(self) -> None:
        self.head.step()
        self.encoder.step()

    @property
    def lr(self) -> float:
        return self.head.lr

    @lr.setter
    def lr(self, value: float) -> None:
        # The encoder keeps its fixed fraction of the head's rate.
        self.encoder.lr *= value / self.head.lr
        self.head.lr = value

    def state_dict(self) -> dict:
        head, encoder = self.head.state_dict(), self.encoder.state_dict()
        slots: dict[str, list] = {}
        for prefix, part in (("head", head), ("encoder", encoder)):
            for name, arrays in part.pop("slots").items():
                slots[f"{prefix}.{name}"] = arrays
        return {"type": "Pair", "lr": head["lr"],
                "param_shapes": head["param_shapes"] + encoder["param_shapes"],
                "head": head, "encoder": encoder, "slots": slots}

    def load_state_dict(self, state: dict) -> None:
        for prefix, optimizer in (("head", self.head),
                                  ("encoder", self.encoder)):
            part = dict(state[prefix])
            part["param_shapes"] = [tuple(shape)
                                    for shape in part["param_shapes"]]
            if "betas" in part:
                part["betas"] = tuple(part["betas"])
            part["slots"] = {
                name.split(".", 1)[1]: arrays
                for name, arrays in state["slots"].items()
                if name.startswith(f"{prefix}.")}
            optimizer.load_state_dict(part)


class ForecastHead(nn.Module):
    """Linear head mapping flattened timestamp embeddings to the horizon."""

    def __init__(self, in_features: int, horizon: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.proj = nn.Linear(in_features, horizon, rng=rng)

    def forward(self, z_t_flat: Tensor) -> Tensor:
        return self.proj(z_t_flat)


def _label_subset(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    if not 0 < fraction <= 1:
        raise ValueError("label fraction must be in (0, 1]")
    count = max(int(round(n * fraction)), 2)
    return rng.choice(n, size=min(count, n), replace=False)


def _finetune(model: TimeDRL, head: nn.Module, task: str, n_train: int,
              fetch, batch_loss, rng: np.random.Generator, *,
              label_fraction: float, epochs: int, batch_size: int, lr: float,
              encoder_lr_scale: float, prefetch: bool, run,
              checkpoint: CheckpointConfig | None, profile: bool,
              run_root: str | None):
    """Fine-tuning (Fig. 5) for both task families, on the one training
    loop (:func:`repro.core.pretrain._run_loop`, phase
    ``finetune_<task>``).

    The task supplies the ``head`` (already drawn from ``rng``),
    ``fetch(indices) -> (x, y)`` over its ``n_train`` training samples
    and ``batch_loss(x, y) -> Tensor``.  The labelled subset is drawn
    from ``rng`` after the head, then every epoch's batch order.  The
    head and encoder step through one :class:`_OptimizerPair` and
    checkpoint as one :class:`_CheckpointBundle`, at epoch boundaries
    only, under ``<checkpoint dir>/finetune_<task>``.  Leaves the model
    in eval mode and returns the profiler snapshot (``None`` unless
    ``profile``).
    """
    optimizer = nn.AdamW(head.parameters(), lr=lr, weight_decay=1e-3)
    encoder_optimizer = nn.AdamW(model.encoder.parameters(),
                                 lr=lr * encoder_lr_scale, weight_decay=1e-3)
    labelled = _label_subset(n_train, label_fraction, rng)
    if checkpoint is not None:
        checkpoint = dataclasses.replace(checkpoint, every_n_batches=None,
                                         best_metric="total", best_mode="min")
    config = PretrainConfig(epochs=epochs, batch_size=batch_size,
                            learning_rate=lr, weight_decay=1e-3,
                            prefetch=prefetch, profile=profile,
                            run_root=run_root or PretrainConfig.run_root,
                            checkpoint=checkpoint)
    result = _run_loop(
        _CheckpointBundle(model, head), _OptimizerPair(optimizer,
                                                       encoder_optimizer),
        rng, (len(labelled), lambda indices: fetch(labelled[indices])),
        lambda batch: {"total": batch_loss(*batch)}, config, run,
        phase=f"finetune_{task}")
    return result.profile


def run_finetune_forecasting(model: TimeDRL, data: ForecastingData,
                             label_fraction: float = 1.0, epochs: int = 5,
                             batch_size: int = 32, lr: float = 1e-3,
                             encoder_lr_scale: float = 0.1,
                             seed: int = 0, profile: bool = False,
                             prefetch: bool = False,
                             run=None,
                             checkpoint: CheckpointConfig | None = None,
                             run_root: str | None = None
                             ) -> ForecastResult:
    """Fig. 5 'TimeDRL (FT)': encoder + head trained on labelled windows.

    The encoder learns at ``lr * encoder_lr_scale`` — the usual fine-tuning
    discipline that protects pre-trained weights while the fresh head
    catches up.  Pass a freshly initialised (un-pretrained) model to obtain
    the 'Supervised' curve (same schedule, so the comparison is fair).

    ``run`` optionally attaches a :class:`repro.telemetry.Run` (caller
    keeps ownership): per-epoch mean loss, span traces and the final test
    metrics are recorded; omitted, the loop is bit-identical to the
    uninstrumented path.

    ``checkpoint`` optionally saves the model+head+optimizer state at
    epoch boundaries (and with ``resume=True`` restarts from the newest
    valid checkpoint, bit-identically at epoch granularity), under the
    directory pre-training would use (``run_root`` is its last fallback)
    plus ``finetune_forecasting``.

    ``prefetch=True`` stages each epoch's labelled batches through the
    background :class:`~repro.data.prefetch.PrefetchLoader`; batch order
    and contents — and therefore the trajectory — are unchanged.
    """
    run = NULL_RUN if run is None else run
    rng = np.random.default_rng(seed)
    config = model.config
    flat_width = config.num_patches * config.d_model
    head = ForecastHead(flat_width, data.pred_len, rng=rng)

    def forecast(x: np.ndarray) -> Tensor:
        """Instance-normalised horizon prediction ``(B, pred_len, C)``."""
        __, z_t = model.encoder.split(
            model.encoder(model.encoder.prepare_input(x)))
        if config.channel_independence:
            batch_n, channels = x.shape[0], x.shape[2]
            pred = head(z_t.reshape(batch_n * channels, flat_width))
            return pred.reshape(batch_n, channels,
                                data.pred_len).transpose(0, 2, 1)
        pred = head(z_t.reshape(x.shape[0], flat_width))
        return pred.reshape(x.shape[0], data.pred_len, -1)

    def batch_loss(x: np.ndarray, y: np.ndarray) -> Tensor:
        mean, std = _window_stats(x)
        target_norm = (y - mean) / std
        pred = forecast(x)
        if pred.shape[2] == 1 and target_norm.shape[2] > 1:
            raise ValueError("channel-mixing head horizon mismatch")
        return nn.mse_loss(pred, Tensor(target_norm))

    profile_stats = _finetune(
        model, head, "forecasting", len(data.train), data.train.batch,
        batch_loss, rng, label_fraction=label_fraction, epochs=epochs,
        batch_size=batch_size, lr=lr, encoder_lr_scale=encoder_lr_scale,
        prefetch=prefetch, run=run, checkpoint=checkpoint, profile=profile,
        run_root=run_root)

    preds, truth = [], []
    for start in range(0, len(data.test), _CHUNK):
        x, y = data.test.batch(
            np.arange(start, min(start + _CHUNK, len(data.test))))
        mean, std = _window_stats(x)
        with nn.no_grad():
            preds.append(forecast(x).data * std + mean)
        truth.append(y)
    y_pred = np.concatenate(preds)
    y_true = np.concatenate(truth)
    result = ForecastResult(mse=metrics.mse(y_true, y_pred),
                            mae=metrics.mae(y_true, y_pred),
                            profile=profile_stats, run_id=run.run_id)
    run.log_summary(finetune_mse=result.mse, finetune_mae=result.mae,
                    finetune_label_fraction=label_fraction)
    return result


def run_finetune_classification(model: TimeDRL, data: ClassificationData,
                                label_fraction: float = 1.0, epochs: int = 10,
                                batch_size: int = 32, lr: float = 1e-3,
                                encoder_lr_scale: float = 0.1,
                                seed: int = 0, profile: bool = False,
                                prefetch: bool = False,
                                run=None,
                                checkpoint: CheckpointConfig | None = None,
                                run_root: str | None = None
                                ) -> ClassificationResult:
    """Fig. 5 classification fine-tuning; see
    :func:`run_finetune_forecasting`."""
    run = NULL_RUN if run is None else run
    rng = np.random.default_rng(seed)
    config = model.config
    width = instance_dim(config.pooling, config.d_model, config.num_patches)
    head = nn.Linear(width, data.n_classes, rng=rng)

    def logits(x: np.ndarray) -> Tensor:
        z_i, z_t = model.encoder.split(
            model.encoder(model.encoder.prepare_input(x)))
        return head(pool_instance(z_i, z_t, config.pooling))

    profile_stats = _finetune(
        model, head, "classification", len(data.x_train),
        lambda idx: (data.x_train[idx], data.y_train[idx]),
        lambda x, y: nn.cross_entropy(logits(x), y), rng,
        label_fraction=label_fraction, epochs=epochs, batch_size=batch_size,
        lr=lr, encoder_lr_scale=encoder_lr_scale, prefetch=prefetch, run=run,
        checkpoint=checkpoint, profile=profile, run_root=run_root)

    with nn.no_grad():
        logit_chunks = [logits(data.x_test[start: start + _CHUNK]).data
                        for start in range(0, len(data.x_test), _CHUNK)]
    predictions = np.concatenate(logit_chunks).argmax(axis=1)
    report = metrics.classification_report(data.y_test, predictions)
    result = ClassificationResult(accuracy=report["ACC"], macro_f1=report["MF1"],
                                  kappa=report["kappa"], profile=profile_stats,
                                  run_id=run.run_id)
    run.log_summary(finetune_accuracy=result.accuracy,
                    finetune_macro_f1=result.macro_f1,
                    finetune_kappa=result.kappa,
                    finetune_label_fraction=label_fraction)
    return result
