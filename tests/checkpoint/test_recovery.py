"""Fault-injection tests: every recovery policy fires, recovers (or
aborts) deterministically, and mirrors what it did as telemetry events."""

import glob
import math

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointConfig,
    PoisonGradAt,
    PoisonLossAt,
    TrainingAborted,
    compose,
)
from repro.core import run_pretrain
from repro.telemetry import Run
from tests.checkpoint.common import (
    EPOCHS,
    tiny_data,
    tiny_model_config,
    tiny_train_config,
)


def _train(tmp_path, hooks=None, **ckpt_overrides):
    """Telemetry-enabled checkpointed run; returns (result, loaded_run)."""
    config = tiny_train_config(
        telemetry=True, run_root=str(tmp_path / "runs"),
        checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpts"),
                                    **ckpt_overrides))
    result = run_pretrain(tiny_model_config(), tiny_data(), config, hooks=hooks)
    return result, Run.load(result.run_dir)


def _events(loaded, kind):
    return [e for e in loaded.events if e["type"] == kind]


def _healthy(result):
    assert len(result.history) == EPOCHS
    assert all(math.isfinite(epoch["total"]) for epoch in result.history)
    for __, param in result.model.named_parameters():
        assert np.isfinite(param.data).all()


class TestSkipBatch:
    def test_nan_loss_is_skipped(self, tmp_path):
        result, loaded = _train(tmp_path, hooks=PoisonLossAt(3),
                                on_nan="skip_batch")
        _healthy(result)
        recoveries = _events(loaded, "recovery")
        assert [e["action"] for e in recoveries] == ["skip_batch"]
        assert recoveries[0]["check"] == "non_finite_loss"
        assert recoveries[0]["step"] == 3

    def test_nan_grad_is_skipped(self, tmp_path):
        result, loaded = _train(tmp_path, hooks=PoisonGradAt(3),
                                on_nan="skip_batch")
        _healthy(result)
        recoveries = _events(loaded, "recovery")
        assert [e["action"] for e in recoveries] == ["skip_batch"]
        assert recoveries[0]["check"] == "non_finite_grad"

    def test_skipped_batch_excluded_from_epoch_mean(self, tmp_path):
        clean, __ = _train(tmp_path / "clean", on_nan="skip_batch")
        poisoned, __ = _train(tmp_path / "poisoned", hooks=PoisonLossAt(3),
                              on_nan="skip_batch")
        # The poisoned batch never reaches the epoch sums, so epoch 0's
        # mean is over 4 clean batches — finite, and different from the
        # 5-batch clean mean.
        assert math.isfinite(poisoned.history[0]["total"])
        assert poisoned.history[0]["total"] != clean.history[0]["total"]


class TestRollback:
    def test_nan_loss_rolls_back_with_lr_backoff(self, tmp_path):
        result, loaded = _train(tmp_path, hooks=PoisonLossAt(4),
                                on_nan="rollback", every_n_batches=1,
                                lr_backoff=0.5)
        _healthy(result)
        actions = [e["action"] for e in _events(loaded, "recovery")]
        assert actions == ["rollback", "rollback_restored"]
        restored, = [e for e in _events(loaded, "recovery")
                     if e["action"] == "rollback_restored"]
        # Restored from the checkpoint taken after step 3, with the LR
        # halved once.
        assert restored["step"] == 4
        assert restored["lr"] == pytest.approx(1e-3 * 0.5)

    def test_rollback_lands_on_initial_floor_checkpoint(self, tmp_path):
        # Poison the very first batch: the only checkpoint to land on is
        # the untrained step-0 floor written before training starts.
        result, loaded = _train(tmp_path, hooks=PoisonLossAt(0),
                                on_nan="rollback", every_n_batches=1)
        _healthy(result)
        restored, = [e for e in _events(loaded, "recovery")
                     if e["action"] == "rollback_restored"]
        assert restored["step"] == 0

    def test_divergence_rollback_discards_poisoned_epoch(self, tmp_path):
        # Huge-but-finite losses for all of epoch 1 (steps 5..9): the
        # per-batch NaN checks stay quiet, the epoch-level divergence
        # check fires, and epoch 1 replays cleanly from its boundary
        # checkpoint once the injector is exhausted.
        result, loaded = _train(
            tmp_path, hooks=PoisonLossAt(5, value=1e9, repeat=5),
            on_divergence="rollback", every_n_epochs=1)
        _healthy(result)
        recoveries = _events(loaded, "recovery")
        assert [e["action"] for e in recoveries] == ["rollback",
                                                     "rollback_restored"]
        assert recoveries[0]["check"] == "divergence"
        # The diverged epoch's history entry must not survive the rewind.
        assert all(epoch["total"] < 1e6 for epoch in result.history)


class TestAbort:
    def test_abort_policy_fails_the_run(self, tmp_path):
        config = tiny_train_config(
            telemetry=True, run_root=str(tmp_path / "runs"),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpts"),
                                        on_nan="abort"))
        with pytest.raises(TrainingAborted):
            run_pretrain(tiny_model_config(), tiny_data(), config,
                         hooks=PoisonLossAt(3))
        run_dir, = glob.glob(str(tmp_path / "runs" / "*"))
        loaded = Run.load(run_dir)
        # A policy abort is a controlled failure, not a crash.
        assert loaded.status == "failed"
        recoveries = _events(loaded, "recovery")
        assert [e["action"] for e in recoveries] == ["abort"]
        health = [e for e in _events(loaded, "health")
                  if e.get("check") == "aborted"]
        assert health and health[0]["error"] == "TrainingAborted"

    def test_bounded_retries_abort_after_n(self, tmp_path):
        # A fault that fires on every batch forever: skip_batch recovers
        # twice, then the bounded-retry guard pulls the plug.
        config = tiny_train_config(
            telemetry=True, run_root=str(tmp_path / "runs"),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpts"),
                                        on_nan="skip_batch",
                                        max_recoveries=2))
        with pytest.raises(TrainingAborted, match="max_recoveries"):
            run_pretrain(tiny_model_config(), tiny_data(), config,
                         hooks=PoisonLossAt(3, repeat=50))
        run_dir, = glob.glob(str(tmp_path / "runs" / "*"))
        loaded = Run.load(run_dir)
        actions = [e["action"] for e in _events(loaded, "recovery")]
        assert actions == ["skip_batch", "skip_batch", "abort_after_n"]


class TestIgnoreAndComposition:
    def test_ignore_policy_emits_nothing(self, tmp_path):
        result, loaded = _train(tmp_path, hooks=PoisonLossAt(3),
                                on_nan="ignore")
        assert _events(loaded, "recovery") == []
        # The poisoned loss marches straight into the epoch mean: "ignore"
        # restores the pre-PR observe-only behaviour.
        assert len(result.history) == EPOCHS
        assert math.isnan(result.history[0]["total"])

    def test_composed_injectors_fire_independently(self, tmp_path):
        result, loaded = _train(
            tmp_path,
            hooks=compose(PoisonLossAt(2), PoisonGradAt(8)),
            on_nan="skip_batch")
        _healthy(result)
        checks = [e["check"] for e in _events(loaded, "recovery")]
        assert checks == ["non_finite_loss", "non_finite_grad"]
