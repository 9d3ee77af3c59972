"""``repro.train`` — the unified training driver API (PR 9).

:class:`TrainSession` + :class:`TrainOptions` replace the sprawl of
per-driver kwargs; the module-level convenience functions below are thin
session wrappers for one-shot calls.  :func:`repro.core.run_pretrain`
stays the bare pre-training loop the session drives.
"""

from __future__ import annotations

from .session import TrainOptions, TrainSession

__all__ = [
    "TrainOptions",
    "TrainSession",
    "pretrain",
    "fine_tune_forecasting",
    "fine_tune_classification",
    "transfer_forecasting",
]


def pretrain(model_config, data, options: TrainOptions | None = None):
    """One-shot pre-training through a throwaway :class:`TrainSession`."""
    return TrainSession(model_config, options=options).pretrain(data)


def fine_tune_forecasting(model, data, options: TrainOptions | None = None):
    """One-shot forecasting fine-tune of an existing model."""
    session = TrainSession(model.config, options=options, model=model)
    return session.finetune(data, task="forecasting")


def fine_tune_classification(model, data, options: TrainOptions | None = None):
    """One-shot classification fine-tune of an existing model."""
    session = TrainSession(model.config, options=options, model=model)
    return session.finetune(data, task="classification")


def transfer_forecasting(model_config, source, target,
                         options: TrainOptions | None = None):
    """One-shot transfer evaluation (pre-train on source, probe target)."""
    return TrainSession(model_config, options=options).transfer(source, target)
