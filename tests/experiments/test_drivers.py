"""Tests for the table/figure experiment drivers (smoke-scale runs)."""

import pathlib

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.experiments import (
    SMOKE,
    augmentation_ablation,
    backbone_ablation,
    classification_table,
    forecasting_table,
    lambda_sensitivity,
    pooling_ablation,
    prepare_classification_data,
    prepare_forecasting_data,
    run_classification_method,
    run_forecasting_method,
    semi_supervised_classification,
    semi_supervised_forecasting,
    stop_gradient_ablation,
    timedrl_classification_config,
    timedrl_config_for,
    training_time_table,
)
from repro.telemetry import Run


class TestPreparation:
    def test_prepare_forecasting_data(self):
        prepared = prepare_forecasting_data("ETTh1", SMOKE)
        assert prepared["n_features"] == 7
        assert set(prepared["horizons"]) == set(SMOKE.horizons)

    def test_prepare_forecasting_univariate(self):
        prepared = prepare_forecasting_data("Exchange", SMOKE, univariate=True)
        assert prepared["n_features"] == 1
        data = next(iter(prepared["horizons"].values()))
        assert data.n_features == 1

    def test_prepare_classification_data(self):
        data = prepare_classification_data("PenDigits", SMOKE)
        assert data.n_classes == 10
        assert len(data.x_train) <= SMOKE.max_samples

    def test_timedrl_forecasting_config_uses_channel_independence(self):
        config = timedrl_config_for(7, SMOKE)
        assert config.channel_independence
        assert config.input_channels == 7

    def test_timedrl_classification_config_is_channel_mixing(self):
        config = timedrl_classification_config("HAR", SMOKE)
        assert not config.channel_independence
        assert config.seq_len == 128

    def test_classification_config_caps_patch_len(self):
        config = timedrl_classification_config("PenDigits", SMOKE)
        assert config.patch_len <= 8 // 4 + 1  # PenDigits length is 8


class TestRunMethods:
    def test_run_timedrl_forecasting(self):
        prepared = prepare_forecasting_data("ETTh1", SMOKE)
        results = run_forecasting_method("TimeDRL", prepared, SMOKE)
        assert set(results) == set(prepared["horizons"])
        for mse, mae in results.values():
            assert np.isfinite(mse) and np.isfinite(mae)

    def test_run_ssl_baseline(self):
        prepared = prepare_forecasting_data("ETTh1", SMOKE)
        results = run_forecasting_method("TS2Vec", prepared, SMOKE)
        assert all(np.isfinite(v[0]) for v in results.values())

    def test_run_end_to_end(self):
        prepared = prepare_forecasting_data("ETTh1", SMOKE)
        results = run_forecasting_method("TCN", prepared, SMOKE)
        assert all(np.isfinite(v[0]) for v in results.values())

    def test_unknown_method_raises(self):
        prepared = prepare_forecasting_data("ETTh1", SMOKE)
        with pytest.raises(KeyError):
            run_forecasting_method("MadeUp", prepared, SMOKE)

    def test_run_classification_method(self):
        data = prepare_classification_data("PenDigits", SMOKE)
        scores = run_classification_method("TimeDRL", "PenDigits", data, SMOKE)
        assert set(scores) == {"ACC", "MF1", "kappa"}

    def test_unknown_classification_method_raises(self):
        data = prepare_classification_data("PenDigits", SMOKE)
        with pytest.raises(KeyError):
            run_classification_method("MadeUp", "PenDigits", data, SMOKE)


class TestTableDrivers:
    def test_forecasting_table_structure(self):
        tables = forecasting_table(datasets=("ETTh1",),
                                   methods=("TimeDRL", "TS2Vec"), preset=SMOKE)
        assert set(tables) == {"MSE", "MAE"}
        assert tables["MSE"].columns == ["TimeDRL", "TS2Vec"]
        assert len(tables["MSE"].rows) == len(SMOKE.horizons)

    def test_classification_table_structure(self):
        tables = classification_table(datasets=("PenDigits",),
                                      methods=("TimeDRL", "T-Loss"), preset=SMOKE)
        assert set(tables) == {"ACC", "MF1", "kappa"}
        assert tables["ACC"].rows == ["PenDigits"]


class TestTableCheckpoints:
    def test_run_checkpoints_stay_out_of_the_working_directory(
            self, tmp_path, monkeypatch):
        # No checkpoint directory: each dataset's TimeDRL pre-training
        # checkpoints under the run's directory, one subdirectory per
        # dataset, and nothing lands under ./results.
        monkeypatch.chdir(tmp_path)
        run = Run.create(root=tmp_path / "runs", name="tables")
        with run:
            forecasting_table(datasets=("ETTh1",), methods=("TimeDRL",),
                              preset=SMOKE, run=run,
                              checkpoint=CheckpointConfig())
            classification_table(datasets=("PenDigits",),
                                 methods=("TimeDRL",), preset=SMOKE, run=run,
                                 checkpoint=CheckpointConfig())
        base = pathlib.Path(run.directory) / "checkpoints"
        assert list((base / "ETTh1").glob("ckpt-*"))
        assert list((base / "PenDigits").glob("ckpt-*"))
        assert not (tmp_path / "results").exists()


class TestAblationDrivers:
    def test_augmentation_ablation(self):
        table = augmentation_ablation(datasets=("ETTh1",),
                                      augmentations=("None", "jitter"),
                                      preset=SMOKE)
        assert table.rows == ["None", "jitter"]

    def test_pooling_ablation(self):
        table = pooling_ablation(datasets=("PenDigits",),
                                 poolings=("cls", "gap"), preset=SMOKE)
        assert table.rows == ["cls", "gap"]

    def test_backbone_ablation(self):
        table = backbone_ablation(datasets=("ETTh1",),
                                  backbones=("transformer", "lstm"), preset=SMOKE)
        assert table.rows == ["transformer", "lstm"]

    def test_stop_gradient_ablation(self):
        table = stop_gradient_ablation(datasets=("PenDigits",), preset=SMOKE)
        assert table.rows == ["w/ SG", "w/o SG"]

    def test_lambda_sensitivity(self):
        table = lambda_sensitivity(forecast_dataset="ETTh1",
                                   classification_dataset="PenDigits",
                                   lambdas=(0.1, 1.0), preset=SMOKE)
        assert len(table.rows) == 2
        assert len(table.columns) == 2


class TestFigureDrivers:
    def test_semi_supervised_forecasting(self):
        table = semi_supervised_forecasting(datasets=("ETTh1",), preset=SMOKE)
        assert table.columns == ["Supervised", "TimeDRL (FT)"]
        assert len(table.rows) == len(SMOKE.label_fractions)

    def test_semi_supervised_classification(self):
        table = semi_supervised_classification(datasets=("PenDigits",), preset=SMOKE)
        assert len(table.rows) == len(SMOKE.label_fractions)

    def test_training_time_table(self):
        table = training_time_table(datasets=("ETTh1",),
                                    methods=("TimeDRL", "SimTS"), preset=SMOKE)
        assert all(table.get(row, "ETTh1") > 0 for row in table.rows)
