"""Common interface and shared machinery for the baseline methods.

Every baseline in the paper's Tables III–V is re-implemented on the
``repro.nn`` substrate behind one of two interfaces:

* :class:`SSLBaseline` — self-supervised representation learners
  (TS2Vec, SimTS, TNC, CoST, MHCCL, CCL, SimCLR, BYOL, TS-TCC, T-Loss):
  ``fit`` pre-trains on unlabeled data; ``encode`` exposes frozen
  ``(timestamp, instance)`` features for the linear probes.
* :class:`EndToEndForecaster` — supervised forecasters (Informer, TCN):
  ``fit`` trains on (window, horizon) pairs; ``predict`` forecasts.

Both speak the unified inference API (``repro.serve.api.InferenceAPI``):
SSL learners implement ``encode`` and reject ``predict`` (no predictive
head), end-to-end forecasters implement ``predict`` and reject ``encode``
(no embedding space worth serving).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import PretrainConfig
from ..core.pretrain import PretrainResult, _batch_fetcher, _run_loop, phase_run
from ..data.datasets import ForecastingData
from ..evaluation import metrics
from ..nn import Tensor
from ..serve.api import InferenceUnsupported

__all__ = ["SSLBaseline", "EndToEndForecaster", "ConvEncoder"]


def _fit(model, data, source, config: PretrainConfig, run, hooks, rng,
         batch_loss, **callbacks) -> PretrainResult:
    """Train a baseline on the one training loop, phase ``pretrain``:
    AdamW over ``model.parameters()``, the batch ``source`` over
    ``data``, loader generator ``rng`` and the scalar
    ``batch_loss(batch)``."""
    optimizer = nn.AdamW(model.parameters(), lr=config.learning_rate,
                         weight_decay=config.weight_decay)
    with phase_run(run, config, train_config=config, seed=config.seed,
                   data=data, tags={"model": model.name}) as run:
        return _run_loop(model, optimizer, rng, source,
                         lambda batch: {"total": batch_loss(batch)},
                         config, run, hooks=hooks, **callbacks)


class ConvEncoder(nn.Module):
    """Dilated 1-D convolutional encoder shared by the conv-based baselines
    (TS2Vec, SimTS, CoST, TS-TCC, SimCLR, BYOL, CCL, MHCCL use variants of
    exactly this family in their released code).

    Maps ``(B, T, C)`` to per-timestep representations ``(B, T, D)``; the
    instance representation is a max-pool over time (TS2Vec convention).
    """

    def __init__(self, in_channels: int, d_model: int = 32, depth: int = 3,
                 kernel_size: int = 3, dropout: float = 0.1, causal: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.d_model = d_model
        self.input_proj = nn.Linear(in_channels, d_model, rng=rng)
        blocks = []
        for level in range(depth):
            dilation = 2**level
            if causal:
                conv = nn.CausalConv1d(d_model, d_model, kernel_size,
                                       dilation=dilation, rng=rng)
            else:
                pad = (kernel_size - 1) * dilation // 2
                conv = nn.Conv1d(d_model, d_model, kernel_size, padding=pad,
                                 dilation=dilation, rng=rng)
            blocks.append(conv)
        self.blocks = nn.ModuleList(blocks)
        self.dropout = nn.Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.input_proj(x).transpose(0, 2, 1)  # (B, D, T)
        for block in self.blocks:
            hidden = self.dropout(block(hidden).relu()) + hidden
        return hidden.transpose(0, 2, 1)  # (B, T, D)

    def instance(self, per_timestep: Tensor) -> Tensor:
        """Max-pool over time (TS2Vec's instance-level readout)."""
        return per_timestep.max(axis=1)


class SSLBaseline(nn.Module):
    """Base class for self-supervised baselines.

    Subclasses implement :meth:`loss` (one mini-batch of raw windows or
    samples ``(B, T, C)`` to a scalar Tensor) and :meth:`features`
    (``(B, T, C)`` ndarray to per-timestep Tensor ``(B, T, D)``, with
    gradients — it is also the training-time representation).  The
    public, deterministic :meth:`encode` is derived from it.
    """

    name = "base"

    # -- to be implemented by subclasses --------------------------------
    def loss(self, x: np.ndarray, rng: np.random.Generator) -> Tensor:
        raise NotImplementedError

    def features(self, x: np.ndarray) -> Tensor:
        """Per-timestep representation Tensor ``(B, T, D)`` (with grads)."""
        raise NotImplementedError

    def prepare_epoch(self, data, rng: np.random.Generator) -> None:
        """Hook run before each epoch (clustering baselines recompute
        pseudo-labels here)."""

    def post_step(self) -> None:
        """Hook run after each optimizer step (BYOL updates its EMA target
        network here)."""

    # -- training -------------------------------------------------------
    def fit(self, data, config: PretrainConfig | None = None, run=None,
            hooks=None) -> PretrainResult:
        """Pre-train on unlabeled windows/samples with the one training
        loop (:func:`repro.core.pretrain._run_loop`), as TimeDRL does.

        ``data`` is a :class:`ForecastingWindows` split or an ndarray of
        samples ``(N, T, C)``.  ``config`` carries the schedule and the
        run wiring, ``telemetry``/``run`` and ``checkpoint=`` included.
        :meth:`loss` and :meth:`prepare_epoch` draw from the loop's loader
        generator, which a checkpoint rewinds to an epoch start only, so
        baselines checkpoint at epoch boundaries: ``every_n_batches`` is
        a ``ValueError``.
        """
        config = config or PretrainConfig()
        if config.checkpoint is not None and config.checkpoint.every_n_batches:
            raise ValueError(
                f"{type(self).__name__} checkpoints at epoch boundaries only "
                "(every_n_batches must be None): its loss draws from the "
                "loader generator, so a mid-epoch resume would not replay "
                "those draws")
        rng = np.random.default_rng(config.seed)
        return _fit(self, data, _batch_fetcher(data), config, run, hooks,
                    rng, lambda x: self.loss(x, rng),
                    on_epoch_start=lambda: self.prepare_epoch(data, rng),
                    after_step=self.post_step)

    # -- unified inference API (repro.serve.api.InferenceAPI) -------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw batch ``(B, T, C)`` to ``(timestamp_emb, instance_emb)``.

        One deterministic pass (eval mode, no grad): the timestamp
        embedding is the subclass's :meth:`features` output, the instance
        embedding its max-pool over time (TS2Vec convention, shared by
        every conv-based baseline here).
        """
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                z = self.features(x)
                return z.data, z.max(axis=1).data
        finally:
            self.train(was_training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """SSL baselines are encoder-only; they have no predictive head."""
        raise InferenceUnsupported(
            f"{type(self).__name__} is an encoder-only SSL baseline; "
            "use encode() and attach a probe")


class EndToEndForecaster(nn.Module):
    """Base class for supervised forecasters (Informer-style, TCN).

    Subclasses implement :meth:`forward` mapping a normalised window Tensor
    ``(B, L, C)`` to a horizon prediction ``(B, H, C)``.
    """

    name = "base-e2e"
    _EPS = 1e-5

    def __init__(self, pred_len: int):
        super().__init__()
        self.pred_len = pred_len

    def fit(self, data: ForecastingData, config: PretrainConfig | None = None,
            run=None, hooks=None) -> PretrainResult:
        """Train on ``data.train``'s (window, horizon) pairs with the one
        training loop; ``config`` as in :meth:`SSLBaseline.fit`."""
        config = config or PretrainConfig()
        return _fit(self, data.train, (len(data.train), data.train.batch),
                    config, run, hooks, np.random.default_rng(config.seed),
                    lambda batch: self._batch_loss(*batch))

    def _batch_loss(self, x: np.ndarray, y: np.ndarray) -> Tensor:
        """MSE of the normalised forecast against the window-normalised
        horizon."""
        mean, std = self._stats(x)
        pred = self.forward(Tensor((x - mean) / std))
        return nn.mse_loss(pred, Tensor((y - mean) / std))

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Supervised forecasters have no embedding space worth serving."""
        raise InferenceUnsupported(
            f"{type(self).__name__} is an end-to-end forecaster; use predict()")

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forecast in the dataset's scaled space (de-normalised).

        Forces eval mode for the forward pass (and restores the previous
        mode after): without this, calling ``predict`` before or during
        ``fit`` sampled dropout at inference — Informer's attention
        dropout and the TCN's residual dropout made forecasts stochastic.
        """
        mean, std = self._stats(x)
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                pred = self.forward(Tensor((x - mean) / std)).data
        finally:
            self.train(was_training)
        return pred * std + mean

    def evaluate(self, data: ForecastingData, chunk: int = 256):
        """Test-set MSE/MAE, mirroring the representation-probe metric."""
        preds, truth = [], []
        for start in range(0, len(data.test), chunk):
            indices = np.arange(start, min(start + chunk, len(data.test)))
            x, y = data.test.batch(indices)
            preds.append(self.predict(x))
            truth.append(y)
        y_pred, y_true = np.concatenate(preds), np.concatenate(truth)
        return metrics.mse(y_true, y_pred), metrics.mae(y_true, y_pred)

    def _stats(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = x.mean(axis=1, keepdims=True)
        std = x.std(axis=1, keepdims=True) + self._EPS
        return mean, std

