"""Data-parallel sharded pre-training.

``world_size`` ranks run the in-process ``repro.core`` pre-training
loop over the IDENTICAL per-epoch batch permutation drawn from a shared
loader seed, each taking an equal contiguous slice of every batch, and
exchange gradients through a shared-memory all-reduce whose
fixed-order float64 accumulation makes every replica's reduced gradient
bit-identical — so the replicas stay in lockstep with no parameter
broadcast.  ``repro.train`` (and ``repro pretrain --workers N``) route
here when ``world_size > 1``; world size 1 stays in process.  This
package holds no training step of its own.

See ``docs/training.md`` for the runbook (topology, failure matrix,
observability).
"""

from .config import DistributedConfig, resolve_distributed
from .coordinator import pretrain_data_parallel
from .reduce import SharedAllReduce
from .sharding import shard_slice
from .worker import (
    EXIT_ABORTED,
    EXIT_CRASH,
    EXIT_OK,
    EXIT_PEER_LOST,
    WorkerTask,
    run_worker,
)

__all__ = [
    "DistributedConfig",
    "resolve_distributed",
    "pretrain_data_parallel",
    "SharedAllReduce",
    "shard_slice",
    "WorkerTask",
    "run_worker",
    "EXIT_OK",
    "EXIT_CRASH",
    "EXIT_PEER_LOST",
    "EXIT_ABORTED",
]
