"""``repro.checkpoint`` — fault-tolerant training.

Three layers:

* :mod:`~repro.checkpoint.state` — capture/restore the complete training
  state (model, optimizer, RNGs, cursor, history) for bit-identical
  resume;
* :mod:`~repro.checkpoint.manager` — atomic, versioned, checksummed
  checkpoint files with keep-last-k + best-by-metric retention;
* :mod:`~repro.checkpoint.recovery` — active health policies (rollback
  with LR backoff, skip-poison-batch, bounded retry with abort-after-N)
  escalating PR 2's passive telemetry guards into actions.

``faults`` provides the deterministic crash/NaN injectors the
``tests/checkpoint`` harness drives the guarantees with.  See
``docs/robustness.md``.
"""

from .config import RECOVERY_ACTIONS, CheckpointConfig
from .faults import (
    CrashAt,
    PoisonGradAt,
    PoisonLossAt,
    SimulatedCrash,
    TrainingHooks,
    compose,
)
from .manager import (
    FORMAT_VERSION,
    INDEX_NAME,
    CheckpointError,
    CheckpointInfo,
    CheckpointManager,
    CheckpointVersionError,
    resolve_checkpoint_source,
)
from .recovery import RecoveryController, TrainingAborted
from .state import (
    TrainingState,
    capture_state,
    named_rngs,
    restore_state,
    rng_state,
    set_rng_state,
)

__all__ = [
    "CheckpointConfig", "RECOVERY_ACTIONS",
    "CheckpointManager", "CheckpointInfo", "CheckpointError",
    "CheckpointVersionError", "FORMAT_VERSION", "INDEX_NAME",
    "resolve_checkpoint_source",
    "TrainingState", "capture_state", "restore_state",
    "named_rngs", "rng_state", "set_rng_state",
    "RecoveryController", "TrainingAborted",
    "TrainingHooks", "SimulatedCrash", "CrashAt", "PoisonLossAt",
    "PoisonGradAt", "compose",
]
