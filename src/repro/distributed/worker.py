"""One data-parallel rank: the in-process pre-training loop, plus an
all-reduce and a record forwarder.

``run_worker`` is a module-level entrypoint (spawn-compatible: every
shared handle travels through ``Process`` args).  It builds
:class:`repro.core.pretrain._PretrainLoop` — the loop ``run_pretrain``
runs in process — over this rank's view of the corpus, and fills the
loop's two seams with :class:`_Rank`:

* every rank draws the IDENTICAL global batch permutation from the same
  loader RNG and gathers only its equal slice of each batch
  (:func:`~repro.distributed.sharding.shard_slice`), so the union of the
  per-rank selections is exactly the single-process batch stream;
* the gradient reducer hands the local mean gradients to
  :class:`~repro.distributed.reduce.SharedAllReduce`, which leaves the
  reduced gradient in each ``param.grad``, and stamps this rank's
  heartbeat.  The reduced gradient is bit-identical on every replica, so
  optimizer trajectories stay in lockstep with no parameter broadcast,
  and the loop's recovery checks read the reduced values, so every
  replica takes the same skip/rollback/abort decision at the same step;
* the reporter forwards rank 0's records (steps, epochs, checkpoint and
  recovery events, ``train_*`` obs metrics, verbose lines) over the
  message queue; the coordinator replays them on the caller's run.
  Every rank also reports its all-reduce time and rows for the
  ``dist_*`` obs families.  Only rank 0 writes checkpoints.

Before its first GEMM a rank of a group of two or more lowers OpenBLAS
to its share of the CPUs (:mod:`repro.distributed.blas`) and, under
telemetry, reports its pool in a ``worker`` event with
``action="blas"``.

Exit codes tell the coordinator what happened: ``0`` finished, ``1``
crashed (elastic restart), ``3`` a *peer* died and broke a barrier
(restart, not a fault of this rank), ``4`` a recovery policy aborted
training deliberately (no restart — the abort is replayed to the
caller).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass

from ..checkpoint import TrainingAborted
from ..core.config import PretrainConfig, TimeDRLConfig
from ..core.pretrain import (
    _LOSS_KEYS,
    _batch_fetcher,
    _PretrainLoop,
    _timedrl_loop_inputs,
)
from ..data.store import resolve_data_source
from ..obs import trace as obs_trace
from .blas import limit_blas_threads
from .reduce import SharedAllReduce
from .sharding import shard_slice

__all__ = ["WorkerTask", "run_worker",
           "EXIT_OK", "EXIT_CRASH", "EXIT_PEER_LOST", "EXIT_ABORTED"]

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_PEER_LOST = 3
EXIT_ABORTED = 4


@dataclass
class WorkerTask:
    """Everything one rank needs, picklable through ``Process`` args."""

    rank: int
    model_config: TimeDRLConfig
    train_config: PretrainConfig
    data: object                  # resolved data, or a store's path
    checkpoint_dir: str | None = None
    extra_meta: dict | None = None
    resume: bool = False          # forced True on elastic restarts
    hooks: object | None = None   # this rank's TrainingHooks, if any
    telemetry: bool = False       # the caller's run records
    obs: bool = False             # the caller's obs registry is enabled


class _Shard:
    """This rank's view of the corpus: the global index space, gathering
    only this rank's equal slice of each batch, in batch order."""

    def __init__(self, data, rank: int, world_size: int):
        self.size, self.fetch = _batch_fetcher(data)
        self.rank, self.world_size = rank, world_size

    def __len__(self) -> int:
        return self.size

    def batch(self, indices):
        mine = indices[shard_slice(len(indices), self.world_size, self.rank)]
        # No rows of this batch here: the empty index array tells the
        # loop to skip the forward and still join the all-reduce.
        return self.fetch(mine) if mine.size else mine


class _Rank:
    """The loop's two seams in one rank: the gradient reducer
    (:meth:`reduce`) and the reporter (everything else)."""

    def __init__(self, task: WorkerTask, shared: SharedAllReduce, heartbeats,
                 queue):
        self.rank = task.rank
        self.shared = shared
        self.heartbeats = heartbeats
        self.queue = queue
        self.enabled = task.telemetry and task.rank == 0
        self.obs_on = task.obs
        self.rows = 0              # local rows since the last epoch report
        self.reduce_seconds = 0.0  # all-reduce wall-clock, likewise

    def reduce(self, params, losses, rows):
        self.heartbeats[self.rank] = time.monotonic()
        local = (0.0, 0.0, 0.0)
        if losses is not None:
            local = tuple(float(losses[key].data) for key in _LOSS_KEYS)
        started = time.perf_counter()
        values, total = self.shared.all_reduce(self.rank, params, float(rows),
                                               local)
        self.reduce_seconds += time.perf_counter() - started
        self.rows += rows
        return values, int(total)

    # -- reporter: the loop reports through ``enabled`` (rank 0 of a
    # recording run only); the coordinator replays each forwarded call.
    def _forward(self, call: str, *args, **kwargs) -> None:
        self.queue.put({"type": "report", "call": call, "args": args,
                        "kwargs": kwargs})

    def emit(self, type: str, **payload) -> None:
        self._forward("emit", type, **payload)

    def log_step(self, step: int, **metrics) -> None:
        self._forward("log_step", step, **metrics)

    def log_epoch(self, epoch: int, **metrics) -> None:
        self._forward("log_epoch", epoch, **metrics)

    def log(self, text: str) -> None:
        if self.rank == 0:
            self._forward("log", text)

    def span(self, name: str, **attrs):
        # Timed whenever this rank reports its epoch (run records or obs
        # metrics); only the reading leaves the rank, in those reports.
        if self.enabled or self.obs_on:
            return obs_trace.Span(f"run/{name}", attrs)
        return obs_trace.span(f"run/{name}", **attrs)

    def observe_epoch(self, phase: str, steps: int, seconds: float,
                      last_loss: float) -> None:
        if self.rank == 0:
            self._forward("observe_epoch", phase, steps, seconds, last_loss)
        self._forward("observe_rank", self.rank, self.rows, seconds,
                      self.reduce_seconds)
        self.rows, self.reduce_seconds = 0, 0.0


def run_worker(task: WorkerTask, reducer: SharedAllReduce, heartbeats,
               queue) -> None:
    """Process entrypoint for one rank.  Exits via ``SystemExit`` with one
    of the ``EXIT_*`` codes; the coordinator keys its elastic policy off
    the exit status, with queue messages carrying the detail."""
    try:
        # Before the rank's first GEMM: its share of the CPUs, so the
        # ranks' BLAS pools do not fight over them (.blas).
        pool = limit_blas_threads(reducer.world_size)
        rank = _Rank(task, reducer, heartbeats, queue)
        if task.telemetry:
            rank.emit("worker", action="blas", rank=task.rank, **pool)
        data = _Shard(resolve_data_source(task.data), task.rank,
                      reducer.world_size)
        cfg = task.train_config
        loop = _PretrainLoop(*_timedrl_loop_inputs(task.model_config, data,
                                                   cfg),
                             cfg, rank, hooks=task.hooks,
                             checkpoint_dir=task.checkpoint_dir,
                             extra_meta=task.extra_meta, reduce=rank.reduce,
                             rank=task.rank)
        resumed_from_step = None
        if loop.manager is not None and (task.resume or cfg.checkpoint.resume):
            resumed_from_step = loop.resume_latest()
        loop.run_all()
        if task.rank == 0:
            queue.put({"type": "result", "rank": 0,
                       "model_state": loop.model.state_dict(),
                       "history": loop.history,
                       "global_step": loop.global_step,
                       "resumed_from_step": resumed_from_step})
        queue.close()
        queue.join_thread()
        raise SystemExit(EXIT_OK)
    except threading.BrokenBarrierError:
        queue.put({"type": "peer_lost", "rank": task.rank})
        queue.close()
        queue.join_thread()
        raise SystemExit(EXIT_PEER_LOST) from None
    except TrainingAborted as error:
        queue.put({"type": "aborted", "rank": task.rank,
                   "error": str(error), "recoveries": error.recoveries})
        queue.close()
        queue.join_thread()
        raise SystemExit(EXIT_ABORTED) from None
    except SystemExit:
        raise
    except BaseException:
        # Includes SimulatedCrash from fault-injection hooks: this rank is
        # "dead" and the coordinator's elastic restart takes over.
        try:
            queue.put({"type": "error", "rank": task.rank,
                       "error": traceback.format_exc(limit=20)})
            queue.close()
            queue.join_thread()
        except Exception:
            pass
        raise SystemExit(EXIT_CRASH) from None
