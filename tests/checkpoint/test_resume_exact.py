"""Kill-and-resume must be bit-identical (the PR's headline guarantee).

A fixed-seed pre-training run killed at an arbitrary batch boundary and
resumed from its last checkpoint must produce *exactly* the same final
parameters, optimizer state and loss trajectory as an uninterrupted run
— ``np.array_equal``, not ``allclose``.
"""

import dataclasses
import glob

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    CrashAt,
    SimulatedCrash,
    TrainingAborted,
)
from repro.core import run_pretrain
from repro.telemetry import Run
from tests.checkpoint.common import (
    BATCHES_PER_EPOCH,
    assert_model_states_equal,
    assert_training_states_equal,
    tiny_data,
    tiny_model_config,
    tiny_train_config,
)


def _run_to_completion(tmp_path, label, **ckpt_overrides):
    """One full uninterrupted run checkpointing into ``tmp_path/label``."""
    config = tiny_train_config(checkpoint=CheckpointConfig(
        directory=str(tmp_path / label), **ckpt_overrides))
    return run_pretrain(tiny_model_config(), tiny_data(), config)


class TestKillAndResume:
    def _crash_and_resume(self, tmp_path, crash_step, **ckpt_overrides):
        """Kill a run at ``crash_step``, resume it, return both results."""
        baseline = _run_to_completion(tmp_path, "baseline", **ckpt_overrides)

        ckpt = CheckpointConfig(directory=str(tmp_path / "killed"),
                                **ckpt_overrides)
        with pytest.raises(SimulatedCrash):
            run_pretrain(tiny_model_config(), tiny_data(),
                         tiny_train_config(checkpoint=ckpt),
                         hooks=CrashAt(crash_step))
        resumed = run_pretrain(
            tiny_model_config(), tiny_data(),
            tiny_train_config(checkpoint=dataclasses.replace(ckpt, resume=True)))
        return baseline, resumed

    def _assert_identical(self, baseline, resumed, tmp_path):
        assert baseline.history == resumed.history  # exact float equality
        assert_model_states_equal(baseline.model.state_dict(),
                                  resumed.model.state_dict())
        # The final checkpoints carry the optimizer state (moments, step
        # count): they must match bit for bit too.
        final_a, __ = CheckpointManager(tmp_path / "baseline").load_latest()
        final_b, __ = CheckpointManager(tmp_path / "killed").load_latest()
        assert_training_states_equal(final_a, final_b)

    def test_mid_epoch_batch_boundary(self, tmp_path):
        # Step 7 is epoch 1, batch 2 — nowhere near an epoch boundary.
        baseline, resumed = self._crash_and_resume(tmp_path, crash_step=7,
                                                   every_n_batches=1)
        assert resumed.resumed_from_step == 8  # checkpoint after step 7 ran
        self._assert_identical(baseline, resumed, tmp_path)

    def test_epoch_boundary_checkpoints_only(self, tmp_path):
        # Only epoch-boundary checkpoints: dying at step 7 rewinds to the
        # start of epoch 1 (global step 5) and replays the epoch.
        baseline, resumed = self._crash_and_resume(tmp_path, crash_step=7,
                                                   every_n_epochs=1)
        assert resumed.resumed_from_step == 5
        self._assert_identical(baseline, resumed, tmp_path)

    def test_crash_on_first_batch(self, tmp_path):
        baseline, resumed = self._crash_and_resume(tmp_path, crash_step=0,
                                                   every_n_batches=1)
        assert resumed.resumed_from_step == 1
        self._assert_identical(baseline, resumed, tmp_path)

    def test_resume_without_checkpoints_starts_fresh(self, tmp_path):
        config = tiny_train_config(checkpoint=CheckpointConfig(
            directory=str(tmp_path / "empty"), resume=True))
        result = run_pretrain(tiny_model_config(), tiny_data(), config)
        assert result.resumed_from_step is None
        assert len(result.history) == 3


class TestCheckpointingIsFree:
    def test_trajectory_identical_with_and_without_checkpointing(self, tmp_path):
        """Turning checkpointing on (no faults) must not change one bit of
        the training trajectory."""
        plain = run_pretrain(tiny_model_config(), tiny_data(), tiny_train_config())
        checkpointed = _run_to_completion(tmp_path, "on", every_n_batches=1)
        assert plain.history == checkpointed.history
        assert_model_states_equal(plain.model.state_dict(),
                                  checkpointed.model.state_dict())


class TestDistributedKillAndResume:
    """The same guarantee through the ``repro.distributed`` entry point.

    With ``elastic=False`` a dead worker is not replaced: the coordinator
    surfaces :class:`TrainingAborted` exactly like an in-process crash,
    and a follow-up run with ``resume=True`` must land bit-identical to
    an uninterrupted **single-process** run — and vice versa across
    topologies (crash distributed, resume in-process).
    """

    def _checkpoint(self, tmp_path, label, **overrides):
        params = dict(directory=str(tmp_path / label), every_n_batches=1)
        params.update(overrides)
        return CheckpointConfig(**params)

    def test_world_one_crash_resumes_bit_identical(self, tmp_path):
        from repro.distributed import DistributedConfig, pretrain_data_parallel

        baseline = _run_to_completion(tmp_path, "baseline",
                                      every_n_batches=1)
        ckpt = self._checkpoint(tmp_path, "killed")
        with pytest.raises(TrainingAborted):
            pretrain_data_parallel(
                tiny_model_config(), tiny_data(),
                train_config=tiny_train_config(checkpoint=ckpt),
                distributed=DistributedConfig(world_size=1, elastic=False),
                hooks=CrashAt(7))
        resumed = pretrain_data_parallel(
            tiny_model_config(), tiny_data(),
            train_config=tiny_train_config(
                checkpoint=dataclasses.replace(ckpt, resume=True)),
            distributed=DistributedConfig(world_size=1, elastic=False))
        assert resumed.resumed_from_step == 8
        self._assert_identical(baseline, resumed, tmp_path)

    def test_cross_topology_crash_distributed_resume_in_process(self, tmp_path):
        from repro.distributed import DistributedConfig, pretrain_data_parallel

        baseline = _run_to_completion(tmp_path, "baseline",
                                      every_n_batches=1)
        ckpt = self._checkpoint(tmp_path, "killed")
        with pytest.raises(TrainingAborted):
            pretrain_data_parallel(
                tiny_model_config(), tiny_data(),
                train_config=tiny_train_config(checkpoint=ckpt),
                distributed=DistributedConfig(world_size=1, elastic=False),
                hooks=CrashAt(7))
        resumed = run_pretrain(
            tiny_model_config(), tiny_data(),
            tiny_train_config(
                checkpoint=dataclasses.replace(ckpt, resume=True)))
        assert resumed.resumed_from_step == 8
        self._assert_identical(baseline, resumed, tmp_path)

    # _assert_identical from TestKillAndResume, re-used verbatim.
    _assert_identical = TestKillAndResume._assert_identical


class TestCrashTelemetry:
    def test_simulated_crash_marks_run_crashed(self, tmp_path):
        """An unhandled (Base)Exception must leave the telemetry run in
        status ``crashed`` with a structured traceback event."""
        config = tiny_train_config(
            telemetry=True, run_root=str(tmp_path / "runs"),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpts"),
                                        every_n_batches=1))
        with pytest.raises(SimulatedCrash):
            run_pretrain(tiny_model_config(), tiny_data(), config,
                         hooks=CrashAt(4))
        run_dir, = glob.glob(str(tmp_path / "runs" / "*"))
        loaded = Run.load(run_dir)
        assert loaded.status == "crashed"
        crashes = [e for e in loaded.events if e["type"] == "crash"]
        assert crashes and crashes[0]["error"] == "SimulatedCrash"
        assert any("injected crash" in line for line in crashes[0]["traceback"])
        saves = [e for e in loaded.events
                 if e["type"] == "checkpoint" and e["action"] == "saved"]
        assert saves, "checkpoint saves should be mirrored as events"

    def test_resume_emits_checkpoint_event(self, tmp_path):
        ckpt = CheckpointConfig(directory=str(tmp_path / "ckpts"),
                                every_n_batches=1)
        with pytest.raises(SimulatedCrash):
            run_pretrain(tiny_model_config(), tiny_data(),
                         tiny_train_config(checkpoint=ckpt), hooks=CrashAt(7))
        config = tiny_train_config(
            telemetry=True, run_root=str(tmp_path / "runs"),
            checkpoint=dataclasses.replace(ckpt, resume=True))
        result = run_pretrain(tiny_model_config(), tiny_data(), config)
        loaded = Run.load(result.run_dir)
        resumes = [e for e in loaded.events
                   if e["type"] == "checkpoint" and e["action"] == "resumed"]
        assert resumes and resumes[0]["step"] == 8


class TestFinetuneKillAndResume:
    """Fine-tuning resumes bit-identically at epoch granularity.

    Two epochs with a checkpoint, then a resume to three epochs on a
    freshly built model, must equal an uninterrupted three-epoch run:
    the result dataclass, the model's ``state_dict`` and the final
    checkpoint (head and both optimizers included).
    """

    @pytest.mark.parametrize("task", ["forecasting", "classification"])
    def test_resume_matches_uninterrupted(self, tmp_path, task):
        from repro.core import (
            TimeDRL,
            run_finetune_classification,
            run_finetune_forecasting,
        )
        from tests.train.test_session import (
            _class_data,
            _forecast_data,
            _model_config,
        )

        if task == "forecasting":
            runner, data, config = (run_finetune_forecasting,
                                    _forecast_data(), _model_config())
        else:
            runner, data, config = (run_finetune_classification,
                                    _class_data(),
                                    _model_config(channel_independence=False))

        def finetune(label, epochs, resume=False):
            model = TimeDRL(config)
            result = runner(model, data, epochs=epochs, batch_size=16,
                            seed=0, checkpoint=CheckpointConfig(
                                directory=str(tmp_path / label),
                                resume=resume))
            return result, model

        baseline, baseline_model = finetune("baseline", 3)
        finetune("killed", 2)
        resumed, resumed_model = finetune("killed", 3, resume=True)
        assert resumed == baseline
        assert_model_states_equal(baseline_model.state_dict(),
                                  resumed_model.state_dict())
        phase = f"finetune_{task}"
        final_a, __ = CheckpointManager(
            tmp_path / "baseline" / phase).load_latest()
        final_b, __ = CheckpointManager(
            tmp_path / "killed" / phase).load_latest()
        assert final_b.epoch == 3
        assert_training_states_equal(final_a, final_b)


class TestBaselineKillAndResume:
    """Baselines train on the same loop, so they resume the same way, at
    epoch granularity: their loss draws augmentations from the loader
    generator, which a checkpoint rewinds to an epoch start only.  BYOL
    also steps its EMA target after every optimizer step, and the
    target's weights ride in the checkpoint with the rest of the model.
    """

    @staticmethod
    def _fit(directory, hooks=None, **checkpoint):
        from repro.baselines import BYOL

        model = BYOL(in_channels=2, d_model=8, depth=2, seed=0)
        config = tiny_train_config(
            weight_decay=1e-4,
            checkpoint=CheckpointConfig(directory=str(directory), **checkpoint))
        return model.fit(tiny_data(), config, hooks=hooks)

    # Step 5 is the first batch after the epoch-0 checkpoint, step 7 is
    # epoch 1, batch 2: either way the run rewinds to the start of epoch
    # 1 (global step 5) and replays the epoch.
    @pytest.mark.parametrize("crash_step", [BATCHES_PER_EPOCH, 7])
    def test_byol_resume_matches_uninterrupted(self, tmp_path, crash_step):
        baseline = self._fit(tmp_path / "baseline")
        with pytest.raises(SimulatedCrash):
            self._fit(tmp_path / "killed", hooks=CrashAt(crash_step))
        resumed = self._fit(tmp_path / "killed", resume=True)
        assert resumed.resumed_from_step == BATCHES_PER_EPOCH
        assert baseline.history == resumed.history
        assert_model_states_equal(baseline.model.state_dict(),
                                  resumed.model.state_dict())
        final_a, __ = CheckpointManager(tmp_path / "baseline").load_latest()
        final_b, __ = CheckpointManager(tmp_path / "killed").load_latest()
        assert_training_states_equal(final_a, final_b)

    def test_mid_epoch_checkpoints_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="epoch boundaries only"):
            self._fit(tmp_path / "refused", every_n_batches=1)
        assert not (tmp_path / "refused").exists()
