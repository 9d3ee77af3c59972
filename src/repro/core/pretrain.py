"""Self-supervised pre-training (paper Fig. 3a) on the one training
loop, :class:`_PretrainLoop`, which every baseline's ``fit``,
fine-tuning and distillation also run (through :func:`_run_loop`).

Works for both task families:

* forecasting — batches are sliding input windows (targets unused);
* classification — batches are whole labelled samples (labels unused).

Observability: pass ``PretrainConfig(telemetry=True)`` (or an explicit
``run=``) to record the run — manifest, per-step/per-epoch metrics, span
traces and health events — under ``results/runs/<run_id>/``.

Fault tolerance: pass ``PretrainConfig(checkpoint=CheckpointConfig(...))``
to checkpoint the complete training state (model, optimizer, RNGs, batch
cursor, history) at epoch and/or batch boundaries and to escalate health
findings into recovery actions (skip-batch, rollback-with-LR-backoff,
bounded abort).  Resume is bit-identical: a run killed at any batch
boundary and resumed from its last checkpoint produces exactly the same
parameters and losses as an uninterrupted run (see
``tests/checkpoint/test_resume_exact.py``).

With telemetry and checkpointing both off the loop is bit-identical to
the uninstrumented original: no derived metrics are computed, no clocks
beyond the wall-clock total are read, and no files are touched.

Data parallelism: ``distributed=`` with a world size above 1 runs this
same loop inside every rank of a :mod:`repro.distributed` group, with a
gradient all-reduce and the records forwarded to the caller's run (see
:class:`_PretrainLoop`).
"""

from __future__ import annotations

import dataclasses
import pathlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..checkpoint import (
    CheckpointManager,
    RecoveryController,
    TrainingAborted,
    TrainingState,
    capture_state,
    restore_state,
    rng_state,
)
from ..data.datasets import ForecastingWindows
from ..data.loader import batch_indices
from ..data.prefetch import PrefetchLoader
from ..data.store import ShardedDataset, resolve_data_source
from ..nn import profiler
from ..obs import trace as obs_trace
from ..obs.metrics import enabled as obs_enabled
from ..obs.metrics import get_registry as obs_registry
from ..telemetry import NULL_RUN, ParamUpdateMeter, Run, console_log, grad_global_norm
from ..utils.training import format_profile
from .config import PretrainConfig, TimeDRLConfig
from .model import TimeDRL

__all__ = ["PretrainResult", "run_pretrain", "iterate_pretrain_batches"]


@dataclass
class PretrainResult:
    """Artifacts of a training run of the loop."""

    model: nn.Module
    history: list[dict[str, float]] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    profile: dict[str, dict[str, float]] | None = None  # op stats when profiled
    run_id: str | None = None   # telemetry run id (when enabled)
    run_dir: str | None = None  # telemetry run directory (when enabled)
    checkpoint_dir: str | None = None    # where checkpoints were written
    resumed_from_step: int | None = None  # global step a resume started at
    world_size: int = 1        # data-parallel workers (1 = in-process loop)
    worker_restarts: int = 0   # elastic restarts taken during the run

    @property
    def final_loss(self) -> float:
        return self.history[-1]["total"] if self.history else float("nan")


# TimeDRL's loss terms, in the order a data-parallel rank's all-reduce
# row carries them (repro.distributed.worker).
_LOSS_KEYS = ("total", "predictive", "contrastive")


def _noop() -> None:
    pass


def _batch_fetcher(data):
    """Resolve ``data`` to ``(n_windows, fetch(indices) -> (B, T, C))``."""
    if isinstance(data, ForecastingWindows):
        return len(data), lambda indices: data.batch(indices)[0]
    if hasattr(data, "batch"):  # a ShardedDataset, or a data-parallel rank's shard
        return len(data), data.batch
    samples = np.asarray(data)
    return len(samples), lambda indices: samples[indices]


def _batches(size: int, fetch, batch_size: int, rng: np.random.Generator,
             max_batches: int | None = None, skip: int = 0):
    """Yield ``fetch(indices)`` for one epoch's shuffled batches.

    ``skip`` drops the first N batches of the epoch *without fetching
    them* — the index permutation is still drawn identically from ``rng``,
    so a resumed epoch sees exactly the batches the interrupted one would
    have.  Skipped batches count against ``max_batches`` (they were
    already consumed before the interruption).
    """
    count = 0
    for indices in batch_indices(size, batch_size, rng):
        if count >= skip:
            yield fetch(indices)
        count += 1
        if max_batches is not None and count >= max_batches:
            return


def iterate_pretrain_batches(data, batch_size: int, rng: np.random.Generator,
                             max_batches: int | None = None, skip: int = 0):
    """:func:`_batches` of raw inputs ``(B, T, C)`` from a
    :class:`ForecastingWindows` split, an out-of-core
    :class:`~repro.data.store.ShardedDataset`, or a plain sample array."""
    return _batches(*_batch_fetcher(data), batch_size, rng, max_batches, skip)


def _profiler_alloc_bytes() -> float:
    """Cumulative bytes the op profiler has attributed so far."""
    return float(sum(stat["bytes"] for stat in profiler.snapshot().values()))


class _Rollback(Exception):
    """Internal signal: restore the last checkpoint and continue."""


def _local_reduce(params, losses, rows):
    """The in-process gradient reducer: the gradients stay where backward
    left them; only the loss values are read out."""
    return {key: float(value.data) for key, value in losses.items()}, rows


class _Reporter:
    """Where the loop's records go: the telemetry run, the obs registry
    and the console (or the caller's ``log``).

    A data-parallel rank reports through a forwarder instead
    (:mod:`repro.distributed.worker`); the coordinator replays each
    forwarded call on a ``_Reporter`` around the caller's run, so both
    paths record through this code.
    """

    def __init__(self, run, log=console_log):
        self.enabled = run.enabled
        self.emit = run.emit
        self.span = run.span
        self.log_step = run.log_step
        self.log_epoch = run.log_epoch
        self.log = log

    @property
    def obs_on(self) -> bool:
        return obs_enabled()

    @staticmethod
    def observe_epoch(phase: str, steps: int, seconds: float,
                      last_loss: float) -> None:
        """Publish one training epoch of ``phase`` into the obs registry.

        ``seconds`` is the epoch span's reading; the loop calls this only
        when obs was enabled before the epoch, so the disabled path never
        times.
        """
        registry = obs_registry()
        registry.counter("train_steps_total", "Optimizer steps taken",
                         labels=("phase",)).labels(phase=phase).inc(steps)
        registry.counter("train_epochs_total", "Epochs completed",
                         labels=("phase",)).labels(phase=phase).inc()
        registry.histogram("train_epoch_seconds", "Wall-clock per epoch",
                           labels=("phase",),
                           buckets=(0.01, 0.1, 0.5, 1, 5, 30, 60, 300,
                                    1800, 7200)).labels(
            phase=phase).observe(seconds)
        registry.gauge("train_last_loss",
                       "Most recent epoch's mean total loss",
                       labels=("phase",)).labels(phase=phase).set(last_loss)


class _PretrainLoop:
    """The one resumable training loop, in process and in every
    data-parallel rank.

    It steps ``optimizer`` (``parameters``, ``zero_grad``, ``step``,
    ``lr``, a state dict) on ``batch_loss(batch)["total"]`` over the
    batches ``source = (n, fetch)`` yields (an input array, or a tuple
    led by one), shuffled by the loader generator ``rng``.  ``phase``
    names its metrics, records and console lines.  ``on_epoch_start()``
    runs before each epoch's permutation is drawn, ``after_step()``
    after each optimizer step.

    Cursor model: ``(epoch, batch_in_epoch, global_step)`` plus the loader
    RNG state *as of the start of the current epoch*.  ``batch_indices``
    draws one shuffle permutation per epoch from the loader RNG, so
    restoring the epoch-start state and skipping ``batch_in_epoch``
    batches replays the interrupted epoch bit-identically.

    One step: forward → ``on_loss`` → backward → ``on_after_backward`` →
    ``reduce`` → loss check → clip → gradient check → optimizer step →
    ``after_step``.  Two seams adapt the loop to a data-parallel rank;
    neither is a user option.  ``reduce(params, losses, rows)`` returns
    the step's loss values and global batch rows: in process it only
    reads the losses out, in a rank it all-reduces the gradients.
    ``report`` receives every record: a :class:`_Reporter` in process, a
    forwarder in a rank.  A rank other than 0 restores checkpoints but
    never writes them.
    """

    def __init__(self, model, optimizer, rng, source, batch_loss,
                 train_config, report, phase: str = "pretrain",
                 on_epoch_start=_noop, after_step=_noop, hooks=None,
                 checkpoint_dir=None, extra_meta=None, reduce=_local_reduce,
                 rank: int = 0):
        self.model = model
        self.model.train()
        self.optimizer = optimizer
        self.params = optimizer.parameters
        self.rng = rng
        self.size, self.fetch = source
        self.batch_loss = batch_loss
        self.phase = phase
        self.on_epoch_start = on_epoch_start
        self.after_step = after_step
        self.history: list[dict[str, float]] = []
        self.train_config = train_config
        self.report = report
        self.hooks = hooks
        self.extra_meta = extra_meta
        self.reduce = reduce
        self.rank = rank
        ckpt = train_config.checkpoint
        self.manager = self.recovery = None
        if ckpt is not None:
            self.manager = CheckpointManager(checkpoint_dir,
                                             keep_last=ckpt.keep_last,
                                             best_metric=ckpt.best_metric,
                                             best_mode=ckpt.best_mode)
            self.recovery = RecoveryController(ckpt, run=report)
        self.every_n_batches = ckpt.every_n_batches if ckpt else None
        self.every_n_epochs = ckpt.every_n_epochs if ckpt else 1
        # cursor
        self.epoch = 0
        self.start_batch = 0      # batches to skip when (re)entering the epoch
        self.global_step = 0
        self.pending = None       # (sums, batches, samples) restored mid-epoch
        self.epoch_rng_state = None
        self.active_loader = None  # PrefetchLoader of the epoch in flight
        # telemetry instrument (built in run_all, after any resume)
        self.meter = None

    # -- state transfer -------------------------------------------------
    def apply_state(self, state: TrainingState) -> None:
        """Adopt a checkpointed state: used for both resume and rollback."""
        restore_state(state, self.model, self.optimizer, loader_rng=self.rng)
        self.epoch = state.epoch
        self.start_batch = state.batch_in_epoch
        self.global_step = state.global_step
        self.history[:] = [dict(record) for record in state.history]
        if state.batch_in_epoch > 0:
            self.pending = (dict(state.epoch_sums), state.epoch_batches,
                            state.epoch_samples)
        else:
            self.pending = None

    def resume_latest(self) -> int | None:
        """Adopt the latest checkpoint, if any; returns its global step."""
        loaded = self.manager.load_latest()
        if loaded is None:
            return None
        state, __ = loaded
        self.apply_state(state)
        if self.report.enabled:
            self.report.emit("checkpoint", action="resumed",
                             step=state.global_step, epoch=state.epoch,
                             batch=state.batch_in_epoch)
        if self.train_config.verbose:
            self.report.log(f"[{self.phase}] resuming from step "
                            f"{state.global_step} (epoch {state.epoch}, "
                            f"batch {state.batch_in_epoch})")
        return state.global_step

    def _save(self, batch_in_epoch: int, sums, batches: int, samples: int,
              metrics=None, at_epoch_start: bool = False) -> None:
        if self.rank != 0:
            return
        loader = rng_state(self.rng) if at_epoch_start else self.epoch_rng_state
        state = capture_state(
            self.model, self.optimizer, loader_rng_state=loader,
            epoch=self.epoch, batch_in_epoch=batch_in_epoch,
            global_step=self.global_step, epoch_sums=sums,
            epoch_batches=batches, epoch_samples=samples,
            history=self.history)
        info = self.manager.save(state, metrics=metrics,
                                 extra_meta=self.extra_meta)
        if self.report.enabled:
            self.report.emit("checkpoint", action="saved", step=info.step,
                             epoch=self.epoch, batch=batch_in_epoch,
                             file=info.path.name, sha256=info.sha256,
                             size_bytes=info.size_bytes, best=info.is_best)

    def _rollback(self) -> None:
        loaded = self.manager.load_latest() if self.manager is not None else None
        if loaded is None:
            raise TrainingAborted(
                "rollback requested but no valid checkpoint is available",
                recoveries=self.recovery.recoveries if self.recovery else 0)
        state, __ = loaded
        self.apply_state(state)
        # Cumulative LR backoff: the restored checkpoint carries the LR it
        # was saved with, so scale by backoff**rollbacks to keep repeated
        # rollbacks to the same checkpoint making progress downward.
        self.optimizer.lr = self.optimizer.lr * self.recovery.lr_scale()
        if self.report.enabled:
            self.report.emit("recovery", action="rollback_restored",
                             step=state.global_step, epoch=state.epoch,
                             batch=state.batch_in_epoch,
                             lr=float(self.optimizer.lr),
                             recoveries=self.recovery.recoveries)
        if self.train_config.verbose:
            self.report.log(f"[{self.phase}] rolled back to step "
                            f"{state.global_step} (epoch {state.epoch}, "
                            f"batch {state.batch_in_epoch}), "
                            f"lr={self.optimizer.lr:.2e}")

    # -- driving --------------------------------------------------------
    def run_all(self) -> None:
        cfg = self.train_config
        telemetry_on = self.report.enabled
        self.meter = ParamUpdateMeter(self.params) if telemetry_on else None
        self._profiling = telemetry_on and cfg.profile and profiler.is_active()
        self._alloc_before = _profiler_alloc_bytes() if self._profiling else 0.0
        if (self.manager is not None and cfg.checkpoint.wants_rollback
                and self.global_step == 0):
            # Rollback needs a floor to land on even if the very first
            # batches go bad: checkpoint the untrained state.
            self.epoch_rng_state = rng_state(self.rng)
            self._save(0, {}, 0, 0, at_epoch_start=True)
        try:
            while self.epoch < cfg.epochs:
                try:
                    self._run_epoch()
                except _Rollback:
                    # Join the prefetch worker before the restore touches
                    # the loader RNG it shares.
                    self._close_loader()
                    self._rollback()
        finally:
            self._close_loader()

    def _close_loader(self) -> None:
        if self.active_loader is not None:
            self.active_loader.close()
            self.active_loader = None

    def _run_epoch(self) -> None:
        cfg = self.train_config
        telemetry_on = self.report.enabled
        # Sampled once per epoch: the batch loop below must not pay even
        # a registry lookup per step on the disabled path.  The epoch
        # span times the epoch whenever either consumer is on.
        obs_on = self.report.obs_on
        epoch = self.epoch
        skip = self.start_batch
        self.start_batch = 0
        if self.manager is not None:
            # On a fresh epoch this is the epoch-start state; on a resumed
            # epoch apply_state already rewound the loader RNG to it.
            self.epoch_rng_state = rng_state(self.rng)
        if self.pending is not None:
            sums, batches, samples = self.pending
            self.pending = None
        else:
            sums = {}
            batches = 0
            samples = 0
        batch_in_epoch = skip

        # Before the source exists: a prefetch worker draws the epoch's
        # permutation as soon as it starts.
        self.on_epoch_start()
        source = _batches(self.size, self.fetch, cfg.batch_size, self.rng,
                          cfg.max_batches_per_epoch, skip=skip)
        if cfg.prefetch:
            # Double-buffered: the worker gathers batch k+1 while the
            # step below runs on batch k.  FIFO order keeps the epoch
            # bit-identical to the unprefetched path.
            source = self.active_loader = PrefetchLoader(
                source, depth=cfg.prefetch_depth)
        with self.report.span("epoch", index=epoch, task=self.phase) as span:
            for batch in source:
                step = self.global_step
                self.optimizer.zero_grad()
                losses = None
                rows = len(batch[0] if isinstance(batch, tuple) else batch)
                if rows:  # a data-parallel rank may own no rows of a batch
                    losses = self.batch_loss(batch)
                    if self.hooks is not None:
                        self.hooks.on_loss(losses, epoch, batch_in_epoch, step)
                    losses["total"].backward()
                    if self.hooks is not None:
                        self.hooks.on_after_backward(self.model, epoch,
                                                     batch_in_epoch, step)
                # Recovery decisions below read the reduced values, so every
                # data-parallel replica takes the same action at the same step.
                values, rows = self.reduce(self.params, losses, rows)
                if self.recovery is not None:
                    action = self.recovery.check_loss(values["total"], epoch,
                                                      batch_in_epoch, step)
                    if action == "skip_batch":
                        batch_in_epoch += 1
                        self.global_step += 1
                        continue
                    if action == "rollback":
                        raise _Rollback()
                grad_norm = None
                if cfg.grad_clip:
                    grad_norm = nn.clip_grad_norm(self.params, cfg.grad_clip)
                if self.recovery is not None:
                    norm_value = (grad_norm if grad_norm is not None
                                  else grad_global_norm(self.params))
                    action = self.recovery.check_grad(float(norm_value), epoch,
                                                      batch_in_epoch, step)
                    if action == "skip_batch":
                        batch_in_epoch += 1
                        self.global_step += 1
                        continue
                    if action == "rollback":
                        raise _Rollback()
                log_step = (telemetry_on and cfg.log_every
                            and step % cfg.log_every == 0)
                if log_step:
                    if grad_norm is None:
                        grad_norm = grad_global_norm(self.params)
                    self.meter.snapshot()
                self.optimizer.step()
                self.after_step()
                for key, value in values.items():
                    sums[key] = sums.get(key, 0.0) + value
                if log_step:
                    self.report.log_step(step, **values, grad_norm=grad_norm,
                                         update_ratio=self.meter.ratio())
                batches += 1
                samples += rows
                batch_in_epoch += 1
                self.global_step += 1
                if (self.manager is not None and self.every_n_batches
                        and batch_in_epoch % self.every_n_batches == 0):
                    means = {key: value / batches for key, value in sums.items()}
                    self._save(batch_in_epoch, sums, batches, samples,
                               metrics=means)
                if self.hooks is not None:
                    self.hooks.on_batch_end(epoch, batch_in_epoch - 1, step)

        self._close_loader()
        if batches == 0:
            raise ValueError(f"{self.phase} data yielded no batches")
        epoch_stats = {key: value / batches for key, value in sums.items()}
        epoch_stats["epoch"] = float(epoch)
        self.history.append(epoch_stats)
        if obs_on:
            self.report.observe_epoch(self.phase, batches, span.seconds,
                                      epoch_stats["total"])
        if telemetry_on:
            seconds = span.seconds
            epoch_metrics = {key: epoch_stats[key] for key in sums}
            epoch_metrics["epoch_seconds"] = seconds
            epoch_metrics["samples"] = samples
            if seconds > 0:
                epoch_metrics["throughput"] = samples / seconds
            if self._profiling:
                alloc_now = _profiler_alloc_bytes()
                epoch_metrics["alloc_mb"] = (alloc_now - self._alloc_before) / 1e6
                self._alloc_before = alloc_now
            self.report.log_epoch(epoch, task=self.phase, **epoch_metrics)
        if cfg.verbose:
            self.report.log(f"[{self.phase}] epoch {epoch}: " + " ".join(
                f"{key}={epoch_stats[key]:.4f}" for key in sums))
        if self.recovery is not None:
            action = self.recovery.check_epoch(epoch_stats["total"], epoch)
            if action == "rollback":
                # The diverged epoch's history entry is discarded by the
                # restore inside _rollback().
                raise _Rollback()
        self.epoch += 1
        if self.manager is not None and (self.epoch % self.every_n_epochs == 0
                                         or self.epoch == cfg.epochs):
            self._save(0, {}, 0, 0, metrics=epoch_stats, at_epoch_start=True)


def _resolve_checkpoint_dir(ckpt_cfg, train_config, run,
                            phase: str = "pretrain") -> pathlib.Path:
    """Pick the checkpoint directory.  Precedence, highest first:

    1. an explicit ``CheckpointConfig.directory`` — ALWAYS wins, even
       when a caller-owned telemetry ``run`` is also present (the run
       directory is NOT used in that case; callers splitting checkpoints
       from the run spine, e.g. transfer's per-phase subdirectories,
       rely on this);
    2. the telemetry run's own directory → ``<run_dir>/checkpoints`` —
       keeps a run's artifacts in one place;
    3. the configured ``train_config.run_root`` → ``<run_root>/checkpoints``
       (no telemetry, no explicit directory).

    Any phase but pre-training checkpoints into a ``<phase>``
    subdirectory of that: a session reuses one checkpoint config for
    pre-training and fine-tuning, and the two must not share (or prune)
    each other's checkpoints.

    The choice is recorded as a ``checkpoint`` telemetry event
    (``action="dir_resolved"``) so a surprising precedence outcome is
    visible in ``repro runs tail`` instead of silent.

    ``resume`` under rule 2 raises ``ValueError`` while the run's
    checkpoint directory holds no checkpoint: a run created by this call
    starts empty, so the resume could never find one.
    """
    if ckpt_cfg.directory:
        chosen, source = pathlib.Path(ckpt_cfg.directory), "explicit_directory"
    elif getattr(run, "directory", None):
        chosen = pathlib.Path(run.directory) / "checkpoints"
        source = "run_directory"
        if ckpt_cfg.resume and not any(chosen.rglob("ckpt-*.npz")):
            raise ValueError(
                f"nothing to resume: {chosen}, the checkpoint directory of "
                f"run {run.run_id}, holds no checkpoint (a run created by "
                f"this call starts empty); pass the directory to resume "
                f"from (--checkpoint DIR) or restart the recorded run "
                f"(repro runs resume RUN_ID)")
    else:
        chosen = pathlib.Path(train_config.run_root) / "checkpoints"
        source = "run_root"
    if phase != "pretrain":
        chosen = chosen / phase
    if getattr(run, "enabled", False):
        run.emit("checkpoint", action="dir_resolved", source=source,
                 directory=str(chosen),
                 run_directory_ignored=bool(
                     ckpt_cfg.directory and getattr(run, "directory", None)))
    return chosen


def _checkpoint_extra_meta(model_config, train_config, ckpt_cfg, spec, data,
                           dist) -> dict:
    """Self-description stored in every checkpoint so ``repro runs resume``
    can rebuild the model/config/data without the original script.

    Without an explicit ``ckpt_cfg.data_spec`` the data spec is, in
    order: the store's own ``kind='store'`` spec (path + generating spec
    from the manifest) when training from an on-disk store, so
    out-of-core runs resume too; else the spec the caller passed.  A
    data-parallel run also records its topology.
    """
    data_spec = ckpt_cfg.data_spec
    if data_spec is None:
        data_spec = (data.store_spec() if isinstance(data, ShardedDataset)
                     else spec)
    meta = {"model_config": dataclasses.asdict(model_config),
            "train_config": dataclasses.asdict(train_config),
            "data_spec": data_spec}
    if dist is not None:
        meta["distributed"] = dataclasses.asdict(dist)
    return meta


def run_pretrain(model_config: TimeDRLConfig, data,
                 train_config: PretrainConfig | None = None,
                 run=None, hooks=None, distributed=None) -> PretrainResult:
    """Pre-train a :class:`TimeDRL` model on unlabeled data.

    Parameters
    ----------
    data:
        A :class:`ForecastingWindows` (forecasting), an ndarray of samples
        ``(N, T, C)`` (classification), an out-of-core
        :class:`~repro.data.store.ShardedDataset`, a path to a store
        directory built by ``repro data build`` (opened and memory-mapped
        here), or a ``repro.data.specs`` spec dict (materialized here).
        Labels are never consumed.  With ``train_config.prefetch=True``
        batches are staged through a background
        :class:`~repro.data.prefetch.PrefetchLoader`.
    run:
        Optional :class:`repro.telemetry.Run` to report into (the caller
        keeps ownership).  When omitted, ``train_config.telemetry=True``
        opens (and finishes) a fresh run under ``train_config.run_root``.
    hooks:
        Optional :class:`repro.checkpoint.TrainingHooks` — fault-injection
        points for the test harness.  Production code leaves this ``None``.
    distributed:
        ``None`` (single process), an int world size, a dict, or a
        :class:`repro.distributed.DistributedConfig`.  A world size above
        1 runs this same loop in that many data-parallel ranks
        (:mod:`repro.distributed`); 1 stays in process.

    Returns
    -------
    PretrainResult with the trained model and per-epoch loss history.
    """
    dist = None
    if distributed is not None:
        from ..distributed import resolve_distributed

        dist = resolve_distributed(distributed)
        if dist is not None and dist.world_size == 1:
            dist = None
    return _run_pretrain(model_config, data, train_config or PretrainConfig(),
                         run, hooks, dist)


def reject_fresh_run_resume(ckpt_cfg) -> None:
    """Raise ``ValueError`` for a ``resume`` with no checkpoint directory,
    called before a run is created for it: it would resume from the new
    run's own checkpoint directory, which starts empty."""
    if ckpt_cfg is not None and ckpt_cfg.resume and not ckpt_cfg.directory:
        raise ValueError(
            "nothing to resume: a run created by this call starts with an "
            "empty checkpoint directory; pass the directory to resume from "
            "(--checkpoint DIR) or restart the recorded run "
            "(repro runs resume RUN_ID)")


@contextmanager
def phase_run(run, wiring: PretrainConfig, **manifest):
    """The telemetry run one training phase reports into.

    A caller's ``run`` is yielded untouched (the caller keeps ownership).
    Without one, ``wiring.telemetry`` opens a fresh
    :class:`repro.telemetry.Run` under ``wiring.run_root``
    (``manifest`` is passed on to :meth:`Run.create`) and owns it: it is
    finished ``completed`` when the phase returns, ``failed`` when a
    recovery policy aborts training, and marked ``crashed`` with a
    traceback on any other exception.  With telemetry off the phase gets
    :data:`NULL_RUN`.

    A ``resume`` with no checkpoint directory raises ``ValueError``
    before the run is created (:func:`reject_fresh_run_resume`).
    """
    if run is not None or not wiring.telemetry:
        yield NULL_RUN if run is None else run
        return
    reject_fresh_run_resume(wiring.checkpoint)
    run = Run.create(root=wiring.run_root, name=wiring.run_name,
                     log_to_console=wiring.verbose, **manifest)
    try:
        yield run
    except TrainingAborted as error:
        # Deliberate stop by a recovery policy: a controlled failure, not
        # a crash.
        run.emit("health", check="aborted", phase="run",
                 error=type(error).__name__, detail=str(error))
        run.finish("failed")
        raise
    except BaseException as error:
        run.emit("health", check="exception", phase="run",
                 error=type(error).__name__, detail=str(error))
        run.record_crash(error)
        raise
    run.finish("completed")


def _phase_span(run, phase: str, train_config: PretrainConfig, **attrs):
    """One clock for the phase, read by the run's ``span_end``, the
    summary and the result; it times with telemetry and obs off too."""
    attrs = {"epochs": train_config.epochs,
             "batch_size": train_config.batch_size, **attrs}
    return (run.span(phase, **attrs) if run.enabled
            else obs_trace.Span(f"run/{phase}", attrs))


def _finish(run, model, history, seconds: float, **fields) -> PretrainResult:
    """Summarise the phase, leave ``model`` in eval mode, wrap up."""
    if run.enabled and history:
        run.log_summary(**{f"final_{key}": value
                           for key, value in history[-1].items()
                           if key != "epoch"},
                        epochs=len(history), wall_clock_seconds=seconds)
    model.eval()
    return PretrainResult(
        model=model, history=history, wall_clock_seconds=seconds,
        run_id=run.run_id,
        run_dir=str(run.directory) if run.directory is not None else None,
        **fields)


def _run_loop(model, optimizer, rng, source, batch_loss,
              train_config: PretrainConfig, run=NULL_RUN, *,
              phase: str = "pretrain", on_epoch_start=_noop,
              after_step=_noop, hooks=None, extra_meta=None,
              log=console_log) -> PretrainResult:
    """Train ``model`` in process with :class:`_PretrainLoop` inside an
    open ``run`` (see :func:`phase_run`), ``train_config`` supplying the
    schedule and run wiring and ``log`` taking the verbose lines."""
    ckpt = train_config.checkpoint
    checkpoint_dir = resumed_from_step = None
    if ckpt is not None:
        checkpoint_dir = _resolve_checkpoint_dir(ckpt, train_config, run,
                                                 phase)
    loop = _PretrainLoop(model, optimizer, rng, source, batch_loss,
                         train_config, _Reporter(run, log), phase=phase,
                         on_epoch_start=on_epoch_start, after_step=after_step,
                         hooks=hooks, checkpoint_dir=checkpoint_dir,
                         extra_meta=extra_meta)
    if ckpt is not None and ckpt.resume:
        resumed_from_step = loop.resume_latest()
    if train_config.profile:
        profiler.enable()
    span = _phase_span(run, phase, train_config)
    with span:
        loop.run_all()
    profile = None
    if train_config.profile:
        profiler.disable()
        profile = profiler.snapshot()
        if train_config.verbose:
            log(f"[{phase}] op profile:")
            log(format_profile(profile, limit=20))
    return _finish(run, model, loop.history, span.seconds, profile=profile,
                   checkpoint_dir=(str(checkpoint_dir)
                                   if checkpoint_dir is not None else None),
                   resumed_from_step=resumed_from_step)


def _timedrl_loop_inputs(model_config: TimeDRLConfig, data,
                         train_config: PretrainConfig):
    """TimeDRL's model, optimizer, loader generator, source and loss."""
    model = TimeDRL(model_config)
    optimizer = nn.AdamW(model.parameters(), lr=train_config.learning_rate,
                         weight_decay=train_config.weight_decay)
    return (model, optimizer, np.random.default_rng(train_config.seed),
            _batch_fetcher(data), model.pretraining_losses)


def _run_pretrain(model_config, data, train_config, run, hooks,
                  dist) -> PretrainResult:
    """The one pre-training driver: resolve the data, open the run, train
    in process (``dist=None``) or in a data-parallel rank group of
    ``dist.world_size`` (:func:`repro.distributed.pretrain_data_parallel`
    passes one even at world size 1), then close the run."""
    spec = data if isinstance(data, dict) and "kind" in data else None
    if spec is not None:
        from ..data.specs import materialize_data_spec

        data = materialize_data_spec(spec)
    data = resolve_data_source(data)
    with phase_run(run, train_config, model_config=model_config,
                   train_config=train_config, seed=train_config.seed,
                   data=data) as run:
        ckpt_cfg = train_config.checkpoint
        extra_meta = None
        if ckpt_cfg is not None:
            extra_meta = _checkpoint_extra_meta(model_config, train_config,
                                                ckpt_cfg, spec, data, dist)
        if dist is None:
            return _run_loop(
                *_timedrl_loop_inputs(model_config, data, train_config),
                train_config, run, hooks=hooks, extra_meta=extra_meta)

        from ..distributed.coordinator import train_group

        checkpoint_dir = None
        if ckpt_cfg is not None:
            checkpoint_dir = _resolve_checkpoint_dir(ckpt_cfg, train_config,
                                                     run)
        span = _phase_span(run, "pretrain", train_config,
                           world_size=dist.world_size)
        with span:
            group = train_group(model_config, data, train_config, dist,
                                run, hooks, checkpoint_dir, extra_meta)
        model = TimeDRL(model_config)
        model.load_state_dict(group["model_state"], strict=True)
        return _finish(run, model, group["history"], span.seconds,
                       checkpoint_dir=(str(checkpoint_dir)
                                       if checkpoint_dir is not None
                                       else None),
                       resumed_from_step=group["resumed_from_step"],
                       world_size=dist.world_size,
                       worker_restarts=group["restarts"])
