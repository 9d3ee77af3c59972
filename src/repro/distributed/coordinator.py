"""The coordinator: launches, monitors and (elastically) restarts the
rank group of a data-parallel pre-training run.

:func:`repro.core.run_pretrain` drives a data-parallel run exactly as an
in-process one: it opens the run, resolves the checkpoint directory,
and records the summary.  Only the training itself moves into
:func:`train_group`, where every rank runs the same
``_PretrainLoop`` (:mod:`repro.distributed.worker`).  The coordinator
never trains.  It owns the shared-memory reducer, the heartbeat slab
and the message queue, ships each rank a
:class:`~repro.distributed.worker.WorkerTask`, and then:

* **replays records** — rank 0 forwards the loop's records (steps,
  epochs, checkpoint and recovery events, ``train_*`` obs metrics,
  verbose lines) and every rank its all-reduce digest; each is replayed
  on the caller's run and obs registry through the in-process reporter;
* **watches exit codes** — a rank that dies (crash, kill, fault-injected
  ``SimulatedCrash``) exits non-zero or is signalled; survivors blocked
  on a reduce barrier time out with ``BrokenBarrierError`` and exit
  ``EXIT_PEER_LOST`` (the coordinator also terminates them proactively);
* **watches heartbeats** — each rank stamps a monotonic timestamp into
  shared memory every step; a stale stamp beyond ``heartbeat_timeout_s``
  marks a hung (not dead) rank.

In elastic mode a dead group is relaunched with ``resume=True`` — the
replacement replays from the last checkpoint saved by rank 0 (or from
scratch when checkpointing is off), bounded by ``max_restarts`` before a
:class:`~repro.checkpoint.TrainingAborted`.  A deliberate abort by a
recovery policy inside the ranks (exit ``EXIT_ABORTED``) is never
restarted: the abort is replayed to the caller, matching the
single-process contract.

The coordinator adds ``worker`` telemetry events (started / dead /
restart / finished) and ``dist_*`` obs metric families
(``dist_world_size``, ``dist_worker_restarts``, per-rank
``dist_allreduce_seconds`` and ``dist_worker_throughput``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import queue as queue_module
import time

from ..checkpoint import TrainingAborted
from ..core.config import PretrainConfig, TimeDRLConfig
from ..core.model import TimeDRL
from ..core.pretrain import _batch_fetcher, _Reporter
from ..data.store import ShardedDataset
from ..obs.metrics import enabled as obs_enabled
from ..obs.metrics import get_registry as obs_registry
from ..telemetry import console_log
from .config import DistributedConfig
from .reduce import SharedAllReduce
from .worker import EXIT_ABORTED, EXIT_OK, EXIT_PEER_LOST, WorkerTask, run_worker

__all__ = ["pretrain_data_parallel"]

_POLL_SECONDS = 0.05
_JOIN_TIMEOUT = 10.0


def _rank_hooks(hooks, rank: int):
    """Per-rank hook routing: a dict maps ranks to hooks; a bare
    ``TrainingHooks`` rides on rank 0 (mirroring the single-process
    loop, which *is* rank 0 at world size 1)."""
    if hooks is None:
        return None
    if isinstance(hooks, dict):
        return hooks.get(rank)
    return hooks if rank == 0 else None


class _Group:
    """One incarnation of the rank group."""

    def __init__(self, ctx, tasks, reducer, heartbeats, queue):
        now = time.monotonic()
        for rank in range(len(tasks)):
            heartbeats[rank] = now
        self.processes = [
            ctx.Process(target=run_worker,
                        args=(task, reducer, heartbeats, queue),
                        name=f"repro-dp-{task.rank}", daemon=True)
            for task in tasks]
        for process in self.processes:
            process.start()

    def alive(self) -> bool:
        return any(process.is_alive() for process in self.processes)

    def exitcodes(self) -> list[int | None]:
        return [process.exitcode for process in self.processes]

    def terminate_and_join(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for process in self.processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=_JOIN_TIMEOUT)


class _GroupReport(_Reporter):
    """The caller's reporter, which also takes each rank's epoch digest
    into the per-rank ``dist_*`` obs families."""

    @staticmethod
    def observe_rank(rank: int, rows: int, seconds: float,
                     reduce_seconds: float) -> None:
        registry = obs_registry()
        registry.histogram(
            "dist_allreduce_seconds",
            "Per-epoch wall-clock a rank spent in gradient all-reduce",
            labels=("rank",),
            buckets=(0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 60, 300),
        ).labels(rank=str(rank)).observe(reduce_seconds)
        if seconds > 0:
            registry.gauge(
                "dist_worker_throughput",
                "Windows/s a rank processed in its last epoch",
                labels=("rank",)).labels(rank=str(rank)).set(rows / seconds)


def pretrain_data_parallel(model_config: TimeDRLConfig, data,
                           train_config: PretrainConfig | None = None,
                           distributed: DistributedConfig | None = None,
                           run=None, hooks=None):
    """:func:`repro.core.run_pretrain` in ``distributed.world_size`` ranks
    — even at world size 1, which ``run_pretrain`` keeps in process.

    Same contract and return type (:class:`~repro.core.PretrainResult`,
    with ``world_size``/``worker_restarts`` filled in); ``hooks`` may be
    a single ``TrainingHooks`` (applied to rank 0) or a ``{rank: hooks}``
    dict for fault-injection on specific ranks.
    """
    from ..core.pretrain import _run_pretrain

    return _run_pretrain(model_config, data, train_config or PretrainConfig(),
                         run, hooks, distributed or DistributedConfig())


def train_group(model_config, data, train_config, dist, run, hooks,
                checkpoint_dir, extra_meta) -> dict:
    """Train in a supervised group of ``dist.world_size`` ranks.

    ``data`` is already resolved; a store travels to the ranks as its
    path (each rank maps it again), anything else by value (inherited on
    fork, pickled on spawn).  Returns rank 0's final state —
    ``model_state``, ``history``, ``global_step``, ``resumed_from_step``
    — plus ``restarts``.
    """
    total, __ = _batch_fetcher(data)
    if total == 0:
        # Every rank would fail alike, which the elastic policy would
        # misread as a crash loop.
        raise ValueError("pre-training data yielded no batches")
    token = str(data.root) if isinstance(data, ShardedDataset) else data
    report = _GroupReport(run)
    obs_on = obs_enabled()
    if obs_on:
        obs_registry().gauge("dist_world_size",
                             "Workers in the data-parallel group").set(
            dist.world_size)
    tasks = [WorkerTask(rank=rank, model_config=model_config,
                        train_config=train_config, data=token,
                        checkpoint_dir=(str(checkpoint_dir)
                                        if checkpoint_dir else None),
                        extra_meta=extra_meta, hooks=_rank_hooks(hooks, rank),
                        telemetry=run.enabled, obs=obs_on)
             for rank in range(dist.world_size)]
    n_params = sum(p.data.size for p in TimeDRL(model_config).parameters())
    ctx = multiprocessing.get_context(dist.start_method)
    heartbeats = ctx.RawArray("d", dist.world_size)
    messages = ctx.Queue()
    restarts = 0
    try:
        while True:
            # A fresh reducer per incarnation: a rank killed while parked
            # at a barrier leaves a stale waiter count behind, which would
            # desync (and hang) a group that inherited it.
            reducer = SharedAllReduce(ctx, dist.world_size, n_params,
                                      barrier_timeout_s=dist.barrier_timeout_s)
            group = _Group(ctx, tasks, reducer, heartbeats, messages)
            if run.enabled:
                for process, task in zip(group.processes, tasks):
                    run.emit("worker", action="started", rank=task.rank,
                             pid=process.pid, incarnation=restarts)
            outcome = _monitor(group, dist, heartbeats, messages, report)
            group.terminate_and_join()
            _drain(messages, report)
            if outcome.kind == "finished":
                break
            if outcome.kind == "aborted":
                raise TrainingAborted(outcome.detail,
                                      recoveries=outcome.recoveries)
            # outcome.kind == "dead"
            if not dist.elastic or restarts >= dist.max_restarts:
                raise TrainingAborted(
                    f"worker group died ({outcome.detail}) and the "
                    f"elastic restart budget is exhausted "
                    f"({restarts}/{dist.max_restarts} restarts used)")
            restarts += 1
            tasks = [dataclasses.replace(task, resume=True) for task in tasks]
            if obs_on:
                obs_registry().counter("dist_worker_restarts",
                                       "Elastic worker-group restarts").inc()
            if run.enabled:
                run.emit("worker", action="restart", detail=outcome.detail,
                         incarnation=restarts, restarts=restarts)
            if train_config.verbose:
                console_log(f"[distributed] {outcome.detail}; restarting "
                            f"group (attempt {restarts}/{dist.max_restarts})")
    finally:
        messages.close()
        messages.join_thread()
    if run.enabled:
        run.emit("worker", action="finished", world_size=dist.world_size,
                 restarts=restarts, global_step=outcome.result["global_step"])
    return dict(outcome.result, restarts=restarts)


@dataclasses.dataclass
class _Outcome:
    kind: str                 # "finished" | "dead" | "aborted"
    detail: str = ""
    result: dict | None = None
    recoveries: int = 0


def _handle_message(message, report) -> dict | None:
    """Replay a forwarded record on ``report``; returns any other
    (terminal) message."""
    if message["type"] != "report":
        return message  # result / aborted / error / peer_lost
    getattr(report, message["call"])(*message["args"], **message["kwargs"])
    return None


def _monitor(group: _Group, dist: DistributedConfig, heartbeats, messages,
             report) -> _Outcome:
    """Drain messages and watch exit codes + heartbeats until the group
    finishes, aborts, or loses a worker."""
    result = None
    abort = None
    error_detail = None
    flush_deadline = None  # grace period for the queue after group exit
    while True:
        try:
            while True:
                if result is None and abort is None:
                    message = messages.get(timeout=_POLL_SECONDS)
                else:
                    message = messages.get_nowait()
                message = _handle_message(message, report)
                if message is None:
                    continue
                if message["type"] == "result":
                    result = message
                elif message["type"] == "aborted":
                    abort = message
                elif message["type"] == "error":
                    error_detail = (f"rank {message['rank']} crashed:\n"
                                    f"{message['error']}")
        except queue_module.Empty:
            pass

        codes = group.exitcodes()
        if group.alive():
            # A rank that crashed or was killed while peers still run:
            # tear down now — the barrier timeout is only the backstop.
            dead = [rank for rank, code in enumerate(codes)
                    if code is not None and code not in (EXIT_OK, EXIT_ABORTED,
                                                         EXIT_PEER_LOST)]
            if dead:
                rank = dead[0]
                if report.enabled:
                    report.emit("worker", action="dead", rank=rank,
                             exitcode=codes[rank], reason="exit")
                return _Outcome("dead", detail=error_detail or
                                f"rank {rank} exited with status {codes[rank]}")
            now = time.monotonic()
            stale = [rank for rank, process in enumerate(group.processes)
                     if process.is_alive()
                     and now - heartbeats[rank] > dist.heartbeat_timeout_s]
            if stale:
                rank = stale[0]
                if report.enabled:
                    report.emit("worker", action="dead", rank=rank,
                             reason="heartbeat_timeout",
                             stale_seconds=now - heartbeats[rank])
                return _Outcome("dead", detail=f"rank {rank} heartbeat stale "
                                f"for {now - heartbeats[rank]:.1f}s")
            if result is not None or abort is not None:
                # Training is over: wake as each rank exits, not on the
                # next queue poll.
                multiprocessing.connection.wait(
                    [process.sentinel for process in group.processes
                     if process.is_alive()], timeout=_POLL_SECONDS)
            continue

        # Group fully exited: terminal messages may still be in the pipe —
        # keep draining for a bounded grace period before deciding on exit
        # codes alone.
        if abort is not None:
            return _Outcome("aborted", detail=abort["error"],
                            recoveries=abort["recoveries"])
        if all(code == EXIT_OK for code in codes) and result is not None:
            return _Outcome("finished", result=result)
        crashed = [(rank, code) for rank, code in enumerate(codes)
                   if code not in (EXIT_OK, EXIT_ABORTED, EXIT_PEER_LOST)]
        if crashed and error_detail is not None:
            rank, code = crashed[0]
            if report.enabled:
                report.emit("worker", action="dead", rank=rank, exitcode=code,
                         reason="exit")
            return _Outcome("dead", detail=error_detail)
        if flush_deadline is None:
            # Crash tracebacks arrive almost instantly (the worker flushed
            # its queue before exiting); results/abort details deserve the
            # longer join grace.
            grace = 1.0 if crashed else _JOIN_TIMEOUT
            flush_deadline = time.monotonic() + grace
        if time.monotonic() < flush_deadline:
            continue
        if crashed:
            rank, code = crashed[0]
            if report.enabled:
                report.emit("worker", action="dead", rank=rank, exitcode=code,
                         reason="exit")
            return _Outcome("dead",
                            detail=f"rank {rank} exited with status {code}")
        if any(code == EXIT_ABORTED for code in codes):
            return _Outcome("aborted",
                            detail="a recovery policy aborted training "
                            "(worker abort detail was lost)")
        if all(code == EXIT_OK for code in codes):  # pragma: no cover
            return _Outcome("dead", detail="group exited cleanly without a "
                            "result payload")
        rank = next(rank for rank, code in enumerate(codes)
                    if code == EXIT_PEER_LOST)
        return _Outcome("dead", detail=f"rank {rank} lost a peer at a reduce "
                        "barrier")


def _drain(messages, report) -> None:
    """Absorb whatever the (now joined) group left on the queue so late
    records still reach the run and the next incarnation starts with an
    empty mailbox."""
    try:
        while True:
            _handle_message(messages.get_nowait(), report)
    except queue_module.Empty:
        pass
