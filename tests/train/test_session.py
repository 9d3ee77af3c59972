"""The ``repro.train`` facade.

The API contract: a :class:`TrainSession` phase run with the same
settings is **bit-identical** to the bare ``repro.core`` driver it
wraps (:func:`~repro.core.run_pretrain`,
:func:`~repro.core.run_finetune_forecasting`,
:func:`~repro.core.run_finetune_classification`,
:func:`~repro.core.run_transfer`).
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.core import (
    PretrainConfig,
    TimeDRL,
    TimeDRLConfig,
    run_finetune_classification,
    run_finetune_forecasting,
    run_pretrain,
    run_transfer,
)
from repro.data import make_classification_data, make_forecasting_data
from repro.obs import metrics as obs_metrics
from repro.telemetry import Run
from repro.train import TrainOptions, TrainSession


def _model_config(**overrides) -> TimeDRLConfig:
    params = dict(seq_len=32, input_channels=2, patch_len=8, stride=8,
                  d_model=16, num_heads=2, num_layers=1,
                  channel_independence=True, seed=0)
    params.update(overrides)
    return TimeDRLConfig(**params)


def _samples(n: int = 40, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).normal(
        size=(n, 32, 2)).astype(np.float32)


def _forecast_data(period: int = 24, seed: int = 0):
    rng = np.random.default_rng(seed)
    t = np.arange(420)
    series = np.stack([
        np.sin(2 * np.pi * t / period + k) + 0.1 * rng.standard_normal(420)
        for k in range(2)
    ], axis=1).astype(np.float32)
    return make_forecasting_data(series, seq_len=32, pred_len=8, stride=4)


def _class_data(seed: int = 0):
    from repro.data import load_classification_dataset

    x, y = load_classification_dataset("PenDigits", scale=0.015, seed=seed)
    return make_classification_data(x, y, seed=seed)


def _assert_models_equal(a: TimeDRL, b: TimeDRL) -> None:
    state_a, state_b = a.state_dict(), b.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


class TestSessionMatchesBareDrivers:
    def test_pretrain_is_bit_identical(self):
        data = _samples()
        config = PretrainConfig(epochs=2, batch_size=8, seed=0)
        facade = TrainSession(_model_config()).pretrain(
            data, options=TrainOptions(pretrain=config))
        bare = run_pretrain(_model_config(), data, config)
        assert bare.history == facade.history
        _assert_models_equal(bare.model, facade.model)

    def test_finetune_forecasting_is_bit_identical(self):
        data = _forecast_data()
        bare = run_finetune_forecasting(
            TimeDRL(_model_config()), data, epochs=1, batch_size=16, seed=0)
        session = TrainSession(_model_config(),
                               model=TimeDRL(_model_config()))
        facade = session.finetune(
            data, task="forecasting",
            options=TrainOptions(epochs=1, batch_size=16, seed=0))
        assert bare.mse == facade.mse
        assert bare.mae == facade.mae

    def test_finetune_classification_is_bit_identical(self):
        data = _class_data()
        config = _model_config(channel_independence=False)
        bare = run_finetune_classification(
            TimeDRL(config), data, epochs=1, batch_size=16, seed=0)
        facade = TrainSession(config, model=TimeDRL(config)).finetune(
            data, task="classification",
            options=TrainOptions(epochs=1, batch_size=16, seed=0))
        assert bare.accuracy == facade.accuracy
        assert bare.macro_f1 == facade.macro_f1
        assert bare.kappa == facade.kappa

    def test_transfer_is_bit_identical(self):
        source, target = _forecast_data(24, 0), _forecast_data(30, 1)
        config = _model_config()
        train_config = PretrainConfig(epochs=1, batch_size=16, seed=0)
        bare = run_transfer(source, target, config, train_config=train_config)
        facade = TrainSession(config).transfer(
            source, target, options=TrainOptions(pretrain=train_config))
        assert bare.transfer_mse == facade.transfer_mse
        assert bare.in_domain_mse == facade.in_domain_mse
        assert bare.random_mse == facade.random_mse


class TestTrainOptions:
    def test_no_overrides_returns_the_base_config_object(self):
        config = PretrainConfig(epochs=3)
        options = TrainOptions(pretrain=config)
        assert options.resolved_pretrain_config() is config

    def test_individual_fields_override_runtime(self):
        options = TrainOptions(
            pretrain=PretrainConfig(telemetry=False, verbose=True),
            telemetry=True)
        resolved = options.resolved_pretrain_config()
        assert resolved.telemetry is True     # override field wins
        assert resolved.verbose is True       # base config still applies

    def test_checkpoint_coercion(self):
        resolved = TrainOptions(pretrain=PretrainConfig(),
                                checkpoint=True).resolved_pretrain_config()
        assert isinstance(resolved.checkpoint, CheckpointConfig)
        resolved = TrainOptions(
            pretrain=PretrainConfig(),
            checkpoint={"directory": "x"}).resolved_pretrain_config()
        assert resolved.checkpoint.directory == "x"


class TestSessionLifecycle:
    def test_pretrain_then_finetune_reuses_the_model(self):
        session = TrainSession(_model_config())
        session.pretrain(_samples(), options=TrainOptions(
            pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0)))
        pretrained_model = session.model
        assert pretrained_model is not None
        session.finetune(_forecast_data(), options=TrainOptions(epochs=1))
        assert session.model is pretrained_model

    def test_finetune_without_pretrain_uses_fresh_model(self):
        session = TrainSession(_model_config())
        result = session.finetune(_forecast_data(),
                                  options=TrainOptions(epochs=1))
        assert session.model is not None
        assert result.mse > 0

    def test_task_inference(self):
        session = TrainSession(_model_config(channel_independence=False))
        result = session.finetune(_class_data(),
                                  options=TrainOptions(epochs=1))
        assert hasattr(result, "accuracy")
        with pytest.raises(ValueError, match="cannot infer"):
            session.finetune(np.zeros((4, 32, 2)))

    def test_from_checkpoint_rebuilds_the_model(self, tmp_path):
        result = TrainSession(_model_config()).pretrain(
            _samples(), options=TrainOptions(
                pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0),
                checkpoint={"directory": str(tmp_path / "ck")}))
        session = TrainSession.from_checkpoint(tmp_path / "ck")
        assert session.model_config == _model_config()
        _assert_models_equal(session.model, result.model)


class TestSessionMetrics:
    def test_last_loss_is_kept_per_phase(self):
        # Fine-tuning after pre-training must not overwrite pre-training's
        # train_last_loss: the gauge is labelled by phase.
        registry = obs_metrics.MetricsRegistry()
        obs_metrics.set_registry(registry)
        try:
            session = TrainSession(_model_config())
            pretrained = session.pretrain(_samples(), options=TrainOptions(
                pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0)))
            session.finetune(_forecast_data(), options=TrainOptions(epochs=1))
            gauge = registry.get("train_last_loss")
            assert gauge.labels(phase="pretrain").value == \
                pretrained.history[-1]["total"]
            finetuned = gauge.labels(phase="finetune_forecasting").value
            assert np.isfinite(finetuned)
            assert finetuned != pretrained.history[-1]["total"]
        finally:
            obs_metrics.disable()


class TestCheckpointDirPrecedence:
    def _events(self, run_dir):
        return Run.load(run_dir).events

    def test_explicit_directory_wins_and_is_recorded(self, tmp_path):
        TrainSession(_model_config()).pretrain(
            _samples(), options=TrainOptions(
                pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0,
                                        telemetry=True,
                                        run_root=str(tmp_path / "runs")),
                checkpoint={"directory": str(tmp_path / "explicit")}))
        run_dir, = glob.glob(str(tmp_path / "runs" / "*"))
        events = [e for e in self._events(run_dir)
                  if e["type"] == "checkpoint"
                  and e["action"] == "dir_resolved"]
        assert events and events[0]["source"] == "explicit_directory"
        assert events[0]["run_directory_ignored"] is True
        assert events[0]["directory"] == str(tmp_path / "explicit")

    def test_run_directory_used_when_no_explicit_dir(self, tmp_path):
        TrainSession(_model_config()).pretrain(
            _samples(), options=TrainOptions(
                pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0,
                                        telemetry=True,
                                        run_root=str(tmp_path / "runs")),
                checkpoint=True))
        run_dir, = glob.glob(str(tmp_path / "runs" / "*"))
        events = [e for e in self._events(run_dir)
                  if e["type"] == "checkpoint"
                  and e["action"] == "dir_resolved"]
        assert events and events[0]["source"] == "run_directory"
        assert events[0]["directory"].startswith(run_dir)


class TestFinetuneCheckpointDir:
    def test_pretrain_and_finetune_keep_their_own_checkpoints(self, tmp_path):
        # One options object checkpoints both phases into one directory;
        # fine-tuning must neither prune pre-training's checkpoints nor
        # try to resume from them.
        directory = tmp_path / "ck"
        options = TrainOptions(
            pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0),
            checkpoint={"directory": str(directory), "resume": True},
            epochs=1, batch_size=16)
        session = TrainSession(_model_config())
        session.pretrain(_samples(), options)
        pretrained = sorted(path.name for path in directory.glob("ckpt-*"))
        session.finetune(_forecast_data(), options=options)
        assert sorted(path.name for path in directory.glob("ckpt-*")) == \
            pretrained
        assert list((directory / "finetune_forecasting").glob("ckpt-*"))

    def test_run_root_places_both_phases(self, tmp_path, monkeypatch):
        # No explicit directory and telemetry off: both phases fall back
        # to <run_root>/checkpoints, fine-tuning in its own subdirectory,
        # and nothing is written under the working directory.
        monkeypatch.chdir(tmp_path)
        root = tmp_path / "root"
        options = TrainOptions(
            pretrain=PretrainConfig(epochs=1, batch_size=8, seed=0),
            run_root=str(root), checkpoint=True, epochs=1, batch_size=16)
        session = TrainSession(_model_config())
        session.pretrain(_samples(), options)
        session.finetune(_forecast_data(), options=options)
        assert list((root / "checkpoints").glob("ckpt-*"))
        assert list((root / "checkpoints" / "finetune_forecasting")
                    .glob("ckpt-*"))
        assert not (tmp_path / "results").exists()
