"""Teacher-student distillation for the compiled inference path.

TimeDRL's own pre-training machinery is reused as the distillation
loss (ISSUE 10 / ROADMAP item 3): the frozen fp teacher's *patch*
embeddings are regressed with the timestamp-predictive MSE, and its
*instance* embedding is aligned through the existing SimSiam
stop-gradient predictor (:func:`repro.nn.negative_cosine_similarity`
detaches the teacher target internally — exactly Eq. 16/17 with the
teacher as the stopped branch).  PITS (PAPERS.md) motivates the
headroom: much smaller patch-wise encoders retain downstream accuracy.

The student keeps the teacher's patch geometry (seq_len, patching,
channel independence, pooling) and shrinks only ``d_model`` /
``num_layers`` / ``num_heads`` / ``d_ff``.  Two projections map the
student's embeddings into the teacher's widths and the teacher's
predictive head is copied verbatim, so a distilled artifact serves the
*same output shapes* as the teacher — shadow-validation under
``repro swap`` compares like for like.

Reached through :meth:`repro.train.TrainSession.distill` or
``repro compile <ckpt> --distill``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..core.config import PretrainConfig, TimeDRLConfig
from ..core.encoder import TimeDRLEncoder
from ..core.heads import InstanceContrastiveHead, TimestampPredictiveHead
from ..core.model import TimeDRL
from ..core.pooling import instance_dim, pool_instance
from ..core.pretrain import _batch_fetcher, _run_loop
from ..nn import Tensor
from .errors import CompileError
from .packing import COMPILABLE_BACKBONES

__all__ = ["DistillConfig", "DistillResult", "StudentModel",
           "run_distillation"]


@dataclass
class DistillConfig:
    """Student architecture + distillation-loop hyper-parameters."""

    d_model: int = 32
    num_layers: int = 1
    num_heads: int = 2
    d_ff: int | None = None
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-3
    lambda_weight: float = 1.0   # instance-loss weight (paper Eq. 19)
    seed: int = 0

    def student_config(self, teacher_config: TimeDRLConfig) -> TimeDRLConfig:
        """The shrunk encoder config: teacher geometry, student capacity."""
        if teacher_config.backbone not in COMPILABLE_BACKBONES:
            raise CompileError(
                f"cannot distill a {teacher_config.backbone!r} teacher; "
                f"supported backbones: {', '.join(COMPILABLE_BACKBONES)}")
        if self.d_model % self.num_heads != 0:
            raise CompileError(
                f"student d_model={self.d_model} not divisible by "
                f"num_heads={self.num_heads}")
        return dataclasses.replace(
            teacher_config, d_model=self.d_model,
            num_layers=self.num_layers, num_heads=self.num_heads,
            d_ff=self.d_ff, seed=self.seed)


class StudentModel(nn.Module):
    """Shrunk encoder + projections into the teacher's embedding space.

    ``encode``/``predict`` speak the same :class:`InferenceAPI` shapes
    as the teacher: patch embeddings are projected to the teacher's
    ``d_model``, the pooled instance embedding to the teacher's instance
    width, and per-patch scores come from the teacher's own (copied,
    frozen) predictive head applied to the projected patches.
    """

    def __init__(self, student_config: TimeDRLConfig, teacher: TimeDRL):
        super().__init__()
        self.config = student_config
        self.teacher_config = teacher.config
        rng = np.random.default_rng(student_config.seed + 3)
        self.encoder = TimeDRLEncoder(student_config)
        self.patch_proj = nn.Linear(student_config.d_model,
                                    teacher.config.d_model, rng=rng)
        self.inst_proj = nn.Linear(
            instance_dim(student_config.pooling, student_config.d_model,
                         student_config.num_patches),
            instance_dim(teacher.config.pooling, teacher.config.d_model,
                         teacher.config.num_patches),
            rng=rng)
        # SimSiam bottleneck predictor c_θ over the *teacher-width*
        # instance embedding; training-time only, never packed.
        self.predictor = InstanceContrastiveHead(
            instance_dim(teacher.config.pooling, teacher.config.d_model,
                         teacher.config.num_patches), rng=rng)
        # The teacher's reconstruction head, copied verbatim and frozen.
        self.predictive_head = TimestampPredictiveHead(
            teacher.config.d_model, teacher.config.token_dim, rng=rng)
        self.predictive_head.load_state_dict(
            teacher.predictive_head.state_dict())

    def trainable_parameters(self) -> list[nn.Parameter]:
        """Everything except the frozen teacher reconstruction head."""
        params: list[nn.Parameter] = []
        for module in (self.encoder, self.patch_proj, self.inst_proj,
                       self.predictor):
            params.extend(module.parameters())
        return params

    # -- InferenceAPI ----------------------------------------------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        was_training = self.training
        self.eval()
        try:
            x_patched = self.encoder.prepare_input(x)
            with nn.no_grad():
                z = self.encoder(x_patched)
                z_i, z_t = self.encoder.split(z)
                pooled = pool_instance(z_i, z_t, self.config.pooling)
                z_t = self.patch_proj(z_t)
                pooled = self.inst_proj(pooled)
            return z_t.data, pooled.data
        finally:
            self.train(was_training)

    def predict(self, x: np.ndarray) -> np.ndarray:
        was_training = self.training
        self.eval()
        try:
            x_patched = self.encoder.prepare_input(x)
            with nn.no_grad():
                z = self.encoder(x_patched)
                __, z_t = self.encoder.split(z)
                recon = self.predictive_head(self.patch_proj(z_t)).data
            per_patch = ((recon - x_patched) ** 2).mean(axis=-1)
            if self.config.channel_independence:
                channels = x.shape[2]
                per_patch = per_patch.reshape(
                    x.shape[0], channels, -1).max(axis=1)
            return per_patch
        finally:
            self.train(was_training)


@dataclass
class DistillResult:
    """Outcome of one distillation run."""

    model: StudentModel
    config: DistillConfig
    student_config: TimeDRLConfig
    teacher_config: TimeDRLConfig
    history: list[dict] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1]["total"] if self.history else float("nan")


def run_distillation(teacher: TimeDRL, windows, config: DistillConfig
                     | dict | None = None, log=None) -> DistillResult:
    """Distill ``teacher`` into a student on raw windows ``(N, T, C)``.

    The teacher is used in eval mode as a frozen embedding oracle; the
    student trains with its own dropout active (the usual distillation
    regulariser) on the one training loop
    (:func:`repro.core.pretrain._run_loop`, phase ``distill``, no
    gradient clipping).  ``log`` is an optional ``callable(str)`` for
    the per-epoch progress lines (the CLI passes ``console_log``).
    """
    if config is None:
        config = DistillConfig()
    elif isinstance(config, dict):
        config = DistillConfig(**config)
    windows = np.asarray(windows, dtype=np.float32)
    if windows.ndim != 3:
        raise CompileError(
            f"distillation data must be (N, T, C) windows, got "
            f"{windows.shape}")
    if windows.shape[0] < 1:
        raise CompileError("distillation needs at least one window")
    student_config = config.student_config(teacher.config)
    model = StudentModel(student_config, teacher)
    optimizer = nn.AdamW(model.trainable_parameters(),
                         lr=config.learning_rate)

    def batch_loss(xb: np.ndarray) -> dict:
        teacher_patch, teacher_inst = teacher.encode(xb)
        z = model.encoder(model.encoder.prepare_input(xb))
        z_i, z_t = model.encoder.split(z)
        pooled = pool_instance(z_i, z_t, student_config.pooling)
        loss_patch = nn.mse_loss(model.patch_proj(z_t), Tensor(teacher_patch))
        inst_pred = model.predictor(model.inst_proj(pooled))
        loss_inst = nn.negative_cosine_similarity(inst_pred,
                                                  Tensor(teacher_inst))
        return {"total": loss_patch + loss_inst * config.lambda_weight,
                "patch": loss_patch, "instance": loss_inst}

    schedule = PretrainConfig(epochs=config.epochs,
                              batch_size=config.batch_size,
                              learning_rate=config.learning_rate,
                              grad_clip=0.0, seed=config.seed,
                              verbose=log is not None)
    history = _run_loop(model, optimizer, np.random.default_rng(config.seed),
                        _batch_fetcher(windows), batch_loss, schedule,
                        phase="distill", log=log).history
    return DistillResult(model=model, config=config,
                         student_config=student_config,
                         teacher_config=teacher.config, history=history)
