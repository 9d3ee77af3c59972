"""Each training epoch is timed once.

With telemetry and obs both on, an epoch's duration reaches three
consumers: ``epoch_seconds`` in the run's ``metrics.jsonl``, the epoch
span's ``span_end`` event, and the ``train_epoch_seconds`` histogram.
All three must carry the same float, read from the epoch span, for the
pre-training loop and the fine-tuning loop alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (PretrainConfig, TimeDRLConfig,
                        run_finetune_classification, run_pretrain)
from repro.data.datasets import make_classification_data
from repro.obs.metrics import _HistogramChild
from repro.telemetry import Run

TINY = dict(seq_len=32, input_channels=2, patch_len=8, stride=8,
            d_model=16, num_heads=2, num_layers=1, seed=0)


@pytest.fixture
def observed(monkeypatch):
    """Every histogram observation, as ``(child, value)`` pairs."""
    seen = []
    original = _HistogramChild.observe

    def spy(self, value):
        seen.append((self, value))
        original(self, value)

    monkeypatch.setattr(_HistogramChild, "observe", spy)
    return seen


def _three_clocks(run_dir, span, child, observed):
    loaded = Run.load(run_dir)
    logged = [record["epoch_seconds"] for record in loaded.epoch_metrics]
    spans = [event["seconds"] for event in loaded.events
             if event["type"] == "span_end" and event["span"] == span]
    histogram = [value for owner, value in observed if owner is child]
    return logged, spans, histogram


class TestOneEpochClock:
    def test_pretrain_epoch_is_timed_once(self, registry, tmp_path, observed):
        data = np.random.default_rng(11).standard_normal(
            (48, 32, 2)).astype(np.float32)
        result = run_pretrain(TimeDRLConfig(**TINY), data, PretrainConfig(
            epochs=3, batch_size=16, seed=0, telemetry=True,
            run_root=str(tmp_path)))
        child = registry.get("train_epoch_seconds").labels(phase="pretrain")
        logged, spans, histogram = _three_clocks(result.run_dir, "epoch",
                                                 child, observed)
        assert len(logged) == 3
        for epoch in range(3):
            assert logged[epoch] == spans[epoch] == histogram[epoch]

    def test_finetune_epoch_is_timed_once(self, registry, tmp_path, observed):
        rng = np.random.default_rng(5)
        windows = rng.standard_normal((40, 32, 2)).astype(np.float32)
        data = make_classification_data(windows, np.tile([0, 1], 20), seed=0)
        model = run_pretrain(TimeDRLConfig(**TINY), windows, PretrainConfig(
            epochs=1, batch_size=16, seed=0)).model
        run = Run.create(root=str(tmp_path), name="finetune")
        run_finetune_classification(model, data, epochs=2, batch_size=16,
                                    seed=0, run=run)
        run.finish()
        child = registry.get("train_epoch_seconds").labels(
            phase="finetune_classification")
        logged, spans, histogram = _three_clocks(run.directory, "epoch",
                                                 child, observed)
        assert len(logged) == 2
        for epoch in range(2):
            assert logged[epoch] == spans[epoch] == histogram[epoch]


class TestOnePhaseClock:
    """The pre-training phase is timed once too: the result's
    ``wall_clock_seconds``, the run summary's and the ``pretrain``
    span's ``span_end`` are one reading."""

    @staticmethod
    def _assert_one_reading(result):
        loaded = Run.load(result.run_dir)
        summary = loaded.manifest["summary"]["wall_clock_seconds"]
        spans = [event["seconds"] for event in loaded.events
                 if event["type"] == "span_end"
                 and event["span"] == "pretrain"]
        assert len(spans) == 1
        assert isinstance(result.wall_clock_seconds, float)
        assert result.wall_clock_seconds == summary == spans[0]

    def test_in_process(self, tmp_path):
        data = np.random.default_rng(11).standard_normal(
            (48, 32, 2)).astype(np.float32)
        self._assert_one_reading(run_pretrain(
            TimeDRLConfig(**TINY), data, PretrainConfig(
                epochs=2, batch_size=16, seed=0, telemetry=True,
                run_root=str(tmp_path))))

    def test_world_of_two(self, tmp_path):
        from repro.distributed import DistributedConfig, pretrain_data_parallel

        data = np.random.default_rng(11).standard_normal(
            (48, 32, 2)).astype(np.float32)
        self._assert_one_reading(pretrain_data_parallel(
            TimeDRLConfig(**TINY), data, train_config=PretrainConfig(
                epochs=2, batch_size=8, seed=0, telemetry=True,
                run_root=str(tmp_path)),
            distributed=DistributedConfig(world_size=2)))

    def test_baseline_fit(self, tmp_path):
        # Fig. 4 times the baselines with the same phase span as TimeDRL.
        from repro.baselines import TS2Vec

        data = np.random.default_rng(11).standard_normal(
            (48, 32, 2)).astype(np.float32)
        self._assert_one_reading(TS2Vec(in_channels=2, d_model=8).fit(
            data, PretrainConfig(epochs=2, batch_size=16, seed=0,
                                 telemetry=True, run_root=str(tmp_path))))

    def test_timed_with_telemetry_and_obs_off(self):
        data = np.random.default_rng(11).standard_normal(
            (48, 32, 2)).astype(np.float32)
        result = run_pretrain(TimeDRLConfig(**TINY), data, PretrainConfig(
            epochs=1, batch_size=16, seed=0))
        assert isinstance(result.wall_clock_seconds, float)
        assert result.wall_clock_seconds > 0
