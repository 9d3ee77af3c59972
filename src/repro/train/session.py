"""The unified training driver API (PR 9): one options object, one session.

The training entry points grew organically — ``pretrain`` took a
``PretrainConfig`` plus ``run=``/``hooks=``, fine-tuning took eleven
kwargs, transfer took a third shape, and new cross-cutting wiring
(``prefetch``, ``checkpoint``, ``telemetry``, now ``distributed``) had to
be threaded through each one separately.  :class:`TrainOptions` composes
all of it in one dataclass, and :class:`TrainSession` carries the model
across phases::

    from repro.train import TrainOptions, TrainSession

    session = TrainSession(TimeDRLConfig(seq_len=64, input_channels=7))
    session.pretrain(windows, TrainOptions(pretrain=PretrainConfig(epochs=5),
                                           checkpoint=True, distributed=4))
    result = session.finetune(forecasting_data)   # reuses the pretrained model

``docs/training.md`` lists the free functions the session replaced.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..checkpoint.config import CheckpointConfig
from ..core.config import PretrainConfig, TimeDRLConfig, _coerce_checkpoint
from ..core.model import TimeDRL

__all__ = ["TrainOptions", "TrainSession"]


@dataclass
class TrainOptions:
    """Everything a training phase can be configured with, in one place.

    Every field defaults to "no opinion" (``None``): an options object
    built with only ``pretrain=some_config`` resolves to *exactly* that
    config object, unchanged, so a session run with it is bit-identical
    to :func:`repro.core.run_pretrain` with that config.

    Run wiring (checkpoint, prefetch, profile, verbose, telemetry, run
    root) resolves the same way for every phase, highest first:

    1. the override fields (``checkpoint``, ``telemetry``, ``prefetch``,
       ``profile``, ``verbose``, ``run_root``);
    2. the base ``pretrain`` config (or ``PretrainConfig()`` defaults).
    """

    # base pre-training config (PretrainConfig, dict, or None = defaults)
    pretrain: PretrainConfig | dict | None = None
    # data-parallel workers: None/1 = in-process, int/dict/DistributedConfig
    distributed: object = None
    # run wiring overrides (None = inherit from pretrain)
    checkpoint: CheckpointConfig | bool | dict | None = None
    telemetry: bool | None = None
    prefetch: bool | None = None
    profile: bool | None = None
    verbose: bool | None = None
    run_root: str | None = None
    run: object = None            # caller-owned telemetry Run
    hooks: object = None          # TrainingHooks (or {rank: hooks} when distributed)
    # fine-tuning / transfer knobs (None = the task's own default)
    label_fraction: float = 1.0
    epochs: int | None = None
    batch_size: int | None = None
    learning_rate: float | None = None
    encoder_lr_scale: float = 0.1
    seed: int = 0
    alpha: float = 1.0            # ridge strength for transfer probes

    def resolved_pretrain_config(self) -> PretrainConfig:
        """Fold the override fields into the base config.

        With no overrides the base config object is returned *as is*
        (same identity), so a caller's carefully constructed
        ``PretrainConfig`` is never copied or perturbed.
        """
        config = self.pretrain
        if isinstance(config, dict):
            config = PretrainConfig(**config)
        if config is None:
            config = PretrainConfig()
        overrides = {name: getattr(self, name)
                     for name in ("telemetry", "prefetch", "profile",
                                  "verbose", "run_root")
                     if getattr(self, name) is not None}
        if self.checkpoint is not None:
            overrides["checkpoint"] = _coerce_checkpoint(self.checkpoint)
        if not overrides:
            return config
        return dataclasses.replace(config, **overrides)


class TrainSession:
    """One model's journey through pretrain → finetune/transfer.

    The session holds the model configuration and (after ``pretrain`` or
    ``from_checkpoint``) the live model, so downstream phases don't need
    it re-passed.  Per-call ``options`` override the session's default
    options for that call only.
    """

    def __init__(self, model_config: TimeDRLConfig,
                 options: TrainOptions | None = None,
                 model: TimeDRL | None = None):
        self.model_config = model_config
        self.options = options or TrainOptions()
        self.model = model
        self.last_result = None

    @classmethod
    def from_checkpoint(cls, source, options: TrainOptions | None = None
                        ) -> "TrainSession":
        """Open a session around a checkpointed model.

        ``source`` is anything
        :func:`repro.checkpoint.resolve_checkpoint_source` accepts: a
        ``ckpt-*.npz`` file, a checkpoint directory, or a telemetry run
        id/directory.  The model architecture is rebuilt from the
        checkpoint's own ``model_config`` metadata.
        """
        from ..checkpoint.manager import resolve_checkpoint_source

        state, meta, __ = resolve_checkpoint_source(source)
        model_config = TimeDRLConfig(**meta["model_config"])
        model = TimeDRL(model_config)
        model.load_state_dict(state.model_state, strict=True)
        model.eval()
        return cls(model_config, options=options, model=model)

    def _opts(self, options: TrainOptions | None) -> TrainOptions:
        return options if options is not None else self.options

    # -- phases ---------------------------------------------------------
    def pretrain(self, data, options: TrainOptions | None = None):
        """Self-supervised pre-training; stores the trained model on the
        session and returns the :class:`~repro.core.PretrainResult`."""
        from ..core.pretrain import run_pretrain

        opts = self._opts(options)
        result = run_pretrain(self.model_config, data,
                              train_config=opts.resolved_pretrain_config(),
                              run=opts.run, hooks=opts.hooks,
                              distributed=opts.distributed)
        self.model = result.model
        self.last_result = result
        return result

    def finetune(self, data, task: str | None = None,
                 options: TrainOptions | None = None):
        """Fine-tune the session's model (encoder + fresh task head).

        ``task`` is ``"forecasting"`` or ``"classification"``; omitted,
        it is inferred from the data type.  Without a prior ``pretrain``
        (or ``from_checkpoint``) a freshly initialised model is used —
        the paper's supervised baseline.
        """
        from ..core.finetune import (
            run_finetune_classification,
            run_finetune_forecasting,
        )
        from ..core.pretrain import phase_run

        opts = self._opts(options)
        task = task or _infer_task(data)
        if task not in ("forecasting", "classification"):
            raise ValueError("task must be 'forecasting' or "
                             f"'classification', got {task!r}")
        if self.model is None:
            self.model = TimeDRL(self.model_config)
        runner, default_epochs = (
            (run_finetune_forecasting, 5) if task == "forecasting"
            else (run_finetune_classification, 10))
        wiring = opts.resolved_pretrain_config()
        with phase_run(opts.run, wiring, model_config=self.model_config,
                       seed=opts.seed, data=data,
                       tags={"phase": f"finetune_{task}"}) as run:
            result = runner(
                self.model, data,
                label_fraction=opts.label_fraction,
                epochs=(opts.epochs if opts.epochs is not None
                        else default_epochs),
                batch_size=(opts.batch_size
                            if opts.batch_size is not None else 32),
                lr=(opts.learning_rate
                    if opts.learning_rate is not None else 1e-3),
                encoder_lr_scale=opts.encoder_lr_scale,
                seed=opts.seed,
                profile=wiring.profile,
                prefetch=wiring.prefetch,
                run=run,
                checkpoint=wiring.checkpoint,
                run_root=wiring.run_root)
        self.last_result = result
        return result

    def transfer(self, source, target, options: TrainOptions | None = None):
        """Pre-train on ``source`` data, probe frozen on ``target``
        (:func:`repro.core.run_transfer`)."""
        from ..core.transfer import run_transfer

        opts = self._opts(options)
        result = run_transfer(source, target, self.model_config,
                              train_config=opts.resolved_pretrain_config(),
                              alpha=opts.alpha, run=opts.run,
                              distributed=opts.distributed)
        self.last_result = result
        return result

    def distill(self, windows, student=None,
                options: TrainOptions | None = None):
        """Distill the session's model into a narrower/shallower student
        (:func:`repro.compile.run_distillation`).

        ``windows`` is a raw ``(N, T, C)`` batch; ``student`` is a
        :class:`~repro.compile.DistillConfig`, a dict of its fields, or
        ``None`` for the defaults.  Session/per-call ``options`` supply
        epochs, batch size, learning rate, and seed when set.
        """
        from ..compile.distill import DistillConfig, run_distillation

        if self.model is None:
            raise ValueError(
                "distill requires a pretrained model; call pretrain() or "
                "open the session with from_checkpoint()")
        opts = self._opts(options)
        if student is None:
            config = DistillConfig()
        elif isinstance(student, dict):
            config = DistillConfig(**student)
        else:
            config = student
        overrides = {}
        if opts.epochs is not None:
            overrides["epochs"] = opts.epochs
        if opts.batch_size is not None:
            overrides["batch_size"] = opts.batch_size
        if opts.learning_rate is not None:
            overrides["learning_rate"] = opts.learning_rate
        if opts.seed:
            overrides["seed"] = opts.seed
        if overrides:
            config = dataclasses.replace(config, **overrides)
        result = run_distillation(self.model, windows, config=config)
        self.last_result = result
        return result


def _infer_task(data) -> str:
    from ..data.datasets import ClassificationData, ForecastingData

    if isinstance(data, ForecastingData):
        return "forecasting"
    if isinstance(data, ClassificationData):
        return "classification"
    raise ValueError(
        "cannot infer the fine-tuning task from "
        f"{type(data).__name__}; pass task='forecasting' or "
        "task='classification'")
