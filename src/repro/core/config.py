"""Configuration for the TimeDRL model and training loops."""

from __future__ import annotations

from dataclasses import dataclass

from ..checkpoint.config import CheckpointConfig

__all__ = ["TimeDRLConfig", "PretrainConfig"]


def _coerce_checkpoint(value) -> CheckpointConfig | None:
    """Normalise the ``checkpoint=`` wiring shared by every driver:
    ``None`` disables, ``True`` means defaults, a dict is how a
    CheckpointConfig round-trips through JSON run manifests."""
    if value is None or isinstance(value, CheckpointConfig):
        return value
    if value is True:
        return CheckpointConfig()
    if isinstance(value, dict):
        return CheckpointConfig(**value)
    raise ValueError("checkpoint must be None, True, a dict, or a "
                     "CheckpointConfig")


_BACKBONES = ("transformer", "transformer_decoder", "resnet", "tcn", "lstm", "bilstm", "gru")
_POOLINGS = ("cls", "last", "gap", "all")


@dataclass
class TimeDRLConfig:
    """Hyper-parameters of the TimeDRL encoder and pretext tasks.

    Attributes mirror the paper's notation: ``patch_len`` is P, ``stride``
    S, ``d_model`` D, ``num_layers`` L, and ``lambda_weight`` the λ of
    Eq. 19 (``L = L_P + λ·L_C``).
    """

    seq_len: int = 64
    input_channels: int = 1
    patch_len: int = 8
    stride: int = 8
    d_model: int = 64
    num_heads: int = 4
    num_layers: int = 2
    d_ff: int | None = None
    dropout: float = 0.1
    lambda_weight: float = 1.0
    backbone: str = "transformer"
    pooling: str = "cls"
    channel_independence: bool = False
    use_stop_gradient: bool = True
    augmentation: str | None = None  # Table VI ablation hook; None = paper default
    enable_predictive: bool = True
    enable_contrastive: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.backbone not in _BACKBONES:
            raise ValueError(f"backbone must be one of {_BACKBONES}, got {self.backbone!r}")
        if self.pooling not in _POOLINGS:
            raise ValueError(f"pooling must be one of {_POOLINGS}, got {self.pooling!r}")
        if self.patch_len < 1 or self.stride < 1:
            raise ValueError("patch_len and stride must be >= 1")
        if self.seq_len < self.patch_len:
            raise ValueError("seq_len must be >= patch_len")
        if self.lambda_weight < 0:
            raise ValueError("lambda_weight must be non-negative")

    @property
    def num_patches(self) -> int:
        """T_p — number of patches produced from a length-``seq_len`` input."""
        return (self.seq_len - self.patch_len) // self.stride + 1

    @property
    def token_dim(self) -> int:
        """C·P — width of one patch token before encoding (Eq. 1)."""
        channels = 1 if self.channel_independence else self.input_channels
        return channels * self.patch_len


@dataclass
class PretrainConfig:
    """Optimisation settings for the self-supervised pre-training stage.

    Telemetry fields: ``telemetry=True`` makes :func:`repro.core.run_pretrain`
    open a :class:`repro.telemetry.Run` under ``run_root`` and record a
    manifest, structured events and per-step/per-epoch metrics there.
    With ``telemetry=False`` (the default) the training trajectory is
    bit-identical to an uninstrumented loop and the overhead is a strict
    no-op (see ``tests/core/test_encoder_equivalence.py``).

    The run-wiring fields (``prefetch``, ``verbose`` … ``checkpoint``) are
    read by every phase a :class:`repro.train.TrainSession` drives,
    fine-tuning and transfer included; the ``TrainOptions`` override
    fields take precedence over them.
    """

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    grad_clip: float = 5.0
    max_batches_per_epoch: int | None = None  # cap for CPU-scale runs
    # Out-of-core loading: stage batches through a background
    # PrefetchLoader so shard-gather IO overlaps the training step.
    # Batch order and values are unchanged (the loader is a FIFO), so the
    # trajectory stays bit-identical with prefetch on or off — see
    # tests/data/test_ooc_equivalence.py.
    prefetch: bool = False
    prefetch_depth: int = 2
    verbose: bool = False
    profile: bool = False  # collect op-level stats via repro.nn.profiler
    telemetry: bool = False      # open a run directory and record events
    run_root: str = "results/runs"
    run_name: str | None = None  # human label folded into the run id
    log_every: int = 1           # per-step metric cadence (0 = epochs only)
    seed: int = 0
    # Fault tolerance: None disables checkpointing/recovery entirely (the
    # training trajectory stays bit-identical to the uninstrumented loop).
    # Accepts a CheckpointConfig, True (defaults), or a dict of its fields
    # (how it round-trips through JSON run manifests).
    checkpoint: CheckpointConfig | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.log_every < 0:
            raise ValueError("log_every must be >= 0")
        self.checkpoint = _coerce_checkpoint(self.checkpoint)

