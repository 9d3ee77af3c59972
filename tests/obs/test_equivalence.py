"""Observability must be a strict observer.

Two halves of the contract:

* **disabled is bit-identical** — running with obs off is the exact
  training loop that shipped before ``repro.obs`` existed, and enabling
  obs may not perturb a single RNG draw, op ordering, or accumulation;
* **enabled actually measures** — the training, prefetch, and checkpoint
  call sites publish their metrics when a registry is installed.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint import CheckpointConfig, CheckpointManager
from repro.core import (PretrainConfig, TimeDRLConfig,
                        run_finetune_classification, run_pretrain)
from repro.data import PrefetchLoader
from repro.data.datasets import make_classification_data
from repro.obs import metrics as obs_metrics

TINY = dict(seq_len=32, input_channels=2, patch_len=8, stride=8,
            d_model=16, num_heads=2, num_layers=1, seed=0)


def _fixed_seed_pretrain():
    data = np.random.default_rng(11).standard_normal(
        (48, 32, 2)).astype(np.float32)
    config = PretrainConfig(epochs=3, batch_size=16, seed=0)
    result = run_pretrain(TimeDRLConfig(**TINY), data, config)
    return result.history, result.model.state_dict()


class TestBitIdentity:
    def test_enabled_obs_is_bit_identical_to_disabled(self, registry):
        obs_metrics.disable()
        history_off, state_off = _fixed_seed_pretrain()
        obs_metrics.set_registry(registry)
        history_on, state_on = _fixed_seed_pretrain()
        # Exact float equality on the full loss history: metrics and spans
        # observe the loop, they may not participate in it.
        assert history_off == history_on
        assert state_off.keys() == state_on.keys()
        for key in state_off:
            assert np.array_equal(state_off[key], state_on[key]), key

    def test_disabled_run_touches_no_registry(self):
        obs_metrics.disable()
        _fixed_seed_pretrain()
        assert obs_metrics.get_registry() is obs_metrics.NULL_REGISTRY
        assert obs_metrics.get_registry().snapshot() == {}


class TestTrainingInstrumentation:
    def test_pretrain_publishes_train_metrics(self, registry):
        history, __ = _fixed_seed_pretrain()
        phase = registry.get("train_epochs_total").labels(phase="pretrain")
        assert phase.value == 3
        steps = registry.get("train_steps_total").labels(phase="pretrain")
        assert steps.value == 3 * 3  # 48 windows / batch 16 → 3 steps/epoch
        seconds = registry.get("train_epoch_seconds").labels(phase="pretrain")
        assert seconds.count == 3
        last_loss = registry.get("train_last_loss").labels(phase="pretrain")
        assert last_loss.value == history[-1]["total"]

    def test_finetune_publishes_per_task_metrics(self, registry):
        rng = np.random.default_rng(5)
        windows = rng.standard_normal((40, 32, 2)).astype(np.float32)
        labels = np.tile([0, 1], 20)
        data = make_classification_data(windows, labels, seed=0)
        model = run_pretrain(TimeDRLConfig(**TINY), windows,
                             PretrainConfig(epochs=1, batch_size=16,
                                            seed=0)).model
        run_finetune_classification(model, data, epochs=2, batch_size=16, seed=0)
        child = registry.get("train_epochs_total").labels(
            phase="finetune_classification")
        assert child.value == 2
        assert registry.get("train_steps_total").labels(
            phase="finetune_classification").value > 0


class TestPrefetchInstrumentation:
    def test_prefetch_counts_batches_and_wait(self, registry):
        batches = [np.zeros((2, 4)) for __ in range(5)]
        with PrefetchLoader(batches, depth=2) as loader:
            consumed = list(loader)
        assert len(consumed) == 5
        assert registry.get("prefetch_batches_total").value == 5
        assert registry.get("prefetch_wait_ms").count >= 5

    def test_disabled_prefetch_publishes_nothing(self):
        obs_metrics.disable()
        with PrefetchLoader([1, 2, 3], depth=2) as loader:
            assert list(loader) == [1, 2, 3]
        assert obs_metrics.get_registry().snapshot() == {}


class TestCheckpointInstrumentation:
    def test_save_and_load_metrics(self, registry, tmp_path):
        data = np.random.default_rng(11).standard_normal(
            (48, 32, 2)).astype(np.float32)
        run_pretrain(TimeDRLConfig(**TINY), data, PretrainConfig(
            epochs=2, batch_size=16, seed=0,
            checkpoint=CheckpointConfig(directory=str(tmp_path),
                                        every_n_epochs=1)))
        assert registry.get("checkpoint_saves_total").value >= 2
        assert registry.get("checkpoint_save_ms").count >= 2
        assert registry.get("checkpoint_last_size_bytes").value > 0

        CheckpointManager(tmp_path).load_latest()
        assert registry.get("checkpoint_loads_total").value == 1
        assert registry.get("checkpoint_load_ms").count == 1
