"""Telemetry integration with the training loops and the ``repro runs`` CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import PretrainConfig, TimeDRLConfig
from repro.core import run_finetune_classification, run_pretrain
from repro.data.datasets import make_classification_data
from repro.experiments import SMOKE, forecasting_table
from repro.telemetry import Run, find_run, list_runs, loss_curve_svg

TINY = dict(seq_len=32, input_channels=2, patch_len=8, stride=8,
            d_model=16, num_heads=2, num_layers=1, seed=0)


def _samples(n=48, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 32, 2)).astype(np.float32)


def _pretrain_run(tmp_path, seed=0, **overrides):
    config = dict(epochs=3, batch_size=16, seed=seed, telemetry=True,
                  run_root=tmp_path)
    config.update(overrides)
    return run_pretrain(TimeDRLConfig(**TINY), _samples(seed=0),
                        PretrainConfig(**config))


class TestPretrainTelemetry:
    def test_run_directory_artifacts(self, tmp_path):
        result = _pretrain_run(tmp_path)
        assert result.run_id is not None
        loaded = Run.load(result.run_dir)
        assert loaded.status == "completed"
        assert len(loaded.epoch_metrics) == 3
        record = loaded.epoch_metrics[0]
        for key in ("total", "predictive", "contrastive", "epoch_seconds",
                    "throughput", "samples"):
            assert key in record, key
        # per-epoch means in the event log match the in-memory history
        assert [m["total"] for m in loaded.epoch_metrics] == pytest.approx(
            [h["total"] for h in result.history])
        assert loaded.manifest["summary"]["final_total"] == pytest.approx(
            result.final_loss)

    def test_step_events_carry_derived_metrics(self, tmp_path):
        result = _pretrain_run(tmp_path)
        loaded = Run.load(result.run_dir)
        steps = [e for e in loaded.events if e["type"] == "step"]
        assert steps, "expected per-step metric events"
        for event in steps:
            assert event["grad_norm"] > 0
            assert event["update_ratio"] > 0

    def test_log_every_zero_disables_step_events(self, tmp_path):
        result = _pretrain_run(tmp_path, log_every=0)
        loaded = Run.load(result.run_dir)
        assert [e for e in loaded.events if e["type"] == "step"] == []
        assert len(loaded.epoch_metrics) == 3

    def test_disabled_telemetry_touches_no_files(self, tmp_path):
        root = tmp_path / "runs"
        result = run_pretrain(TimeDRLConfig(**TINY), _samples(),
                              PretrainConfig(epochs=1, batch_size=16, seed=0,
                                             telemetry=False, run_root=root))
        assert result.run_id is None and result.run_dir is None
        assert not root.exists()

    def test_spans_recorded(self, tmp_path):
        result = _pretrain_run(tmp_path)
        loaded = Run.load(result.run_dir)
        starts = [e for e in loaded.events if e["type"] == "span_start"]
        assert [s["span"] for s in starts][:2] == ["pretrain", "epoch"]
        epoch_spans = [s for s in starts if s["span"] == "epoch"]
        assert [s["path"] for s in epoch_spans] == ["pretrain/epoch"] * 3

    def test_external_run_ownership(self, tmp_path):
        run = Run.create(root=tmp_path, name="owned")
        run_pretrain(TimeDRLConfig(**TINY), _samples(),
                     PretrainConfig(epochs=1, batch_size=16, seed=0), run=run)
        assert run.status == "running"  # caller still owns the lifecycle
        run.finish()
        assert Run.load(run.directory).status == "completed"

    def test_profile_plus_telemetry_records_alloc(self, tmp_path):
        result = _pretrain_run(tmp_path, profile=True)
        loaded = Run.load(result.run_dir)
        assert all(m["alloc_mb"] > 0 for m in loaded.epoch_metrics)


class TestFinetuneTelemetry:
    def test_classification_finetune_reports(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 32, 2)).astype(np.float32)
        y = rng.integers(0, 2, size=40)
        data = make_classification_data(x, y, seed=0)
        run = Run.create(root=tmp_path, name="ft")
        from repro.core.model import TimeDRL
        model = TimeDRL(TimeDRLConfig(**TINY))
        result = run_finetune_classification(model, data, epochs=2, batch_size=16,
                                             seed=0, run=run)
        run.finish()
        loaded = Run.load(run.directory)
        assert len(loaded.epoch_metrics) == 2
        assert all(m["task"] == "finetune_classification"
                   for m in loaded.epoch_metrics)
        assert loaded.manifest["summary"]["finetune_accuracy"] == pytest.approx(
            result.accuracy)


class TestDriverTelemetry:
    def test_forecasting_table_emits_metric_events(self):
        run = Run.in_memory()
        forecasting_table(datasets=("ETTh1",), methods=("TimeDRL",),
                          preset=SMOKE, seed=0, run=run)
        metric_events = run.memory.of_type("metric")
        assert metric_events
        assert all(e["method"] == "TimeDRL" for e in metric_events)
        assert all("mse" in e and "mae" in e for e in metric_events)
        spans = [e["span"] for e in run.memory.of_type("span_start")]
        assert "dataset" in spans and "method" in spans


class TestRunsCli:
    @pytest.fixture()
    def two_runs(self, tmp_path):
        a = _pretrain_run(tmp_path, seed=0)
        b = _pretrain_run(tmp_path, seed=1, learning_rate=2e-3)
        return tmp_path, a, b

    def test_list(self, two_runs, capsys):
        root, a, b = two_runs
        assert main(["runs", "list", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert a.run_id in out and b.run_id in out
        assert "completed" in out

    def test_show_renders_manifest_and_epochs(self, two_runs, capsys):
        root, a, __ = two_runs
        assert main(["runs", "show", a.run_id, "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert a.run_id in out
        assert "model_config" in out and "train_config" in out
        assert "total" in out and "throughput" in out
        assert "final_total" in out

    def test_show_exports_svg(self, two_runs, tmp_path, capsys):
        root, a, __ = two_runs
        svg_path = tmp_path / "curves.svg"
        assert main(["runs", "show", a.run_id, "--root", str(root),
                     "--svg", str(svg_path)]) == 0
        text = svg_path.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_diff_compares_final_losses(self, two_runs, capsys):
        root, a, b = two_runs
        assert main(["runs", "diff", a.run_id, b.run_id,
                     "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "final_total" in out and "delta=" in out
        assert "train_config.learning_rate" in out

    def test_tail_prints_json_events(self, two_runs, capsys):
        root, a, __ = two_runs
        assert main(["runs", "tail", a.run_id, "--root", str(root),
                     "-n", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert json.loads(lines[-1])["type"] == "run_end"

    def test_run_id_prefix_resolution(self, two_runs):
        root, a, __ = two_runs
        assert find_run(a.run_id[:-2], root=root).run_id == a.run_id

    def test_unknown_run_id_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_run("nope", root=tmp_path)


class TestCurves:
    def test_loss_curve_svg_needs_metrics(self, tmp_path):
        run = Run.create(root=tmp_path)
        run.finish()
        with pytest.raises(ValueError):
            loss_curve_svg(Run.load(run.directory), tmp_path / "x.svg")
