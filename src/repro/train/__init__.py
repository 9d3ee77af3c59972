"""``repro.train`` — the unified training driver API.

:class:`TrainSession` + :class:`TrainOptions` replace the sprawl of
per-driver kwargs; a one-shot call is one session call, e.g.
``TrainSession(model_config, options).pretrain(data)``.
:func:`repro.core.run_pretrain` stays the bare pre-training loop the
session drives.
"""

from __future__ import annotations

from .session import TrainOptions, TrainSession

__all__ = ["TrainOptions", "TrainSession"]
