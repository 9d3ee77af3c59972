"""Out-of-core training is bit-identical to in-memory training.

The headline guarantee of the dataset ladder PR: pre-training from a
sharded on-disk store — with or without background prefetch — produces
*exactly* the same loss history and final parameters as training from
the equivalent in-memory array (``np.array_equal``, not ``allclose``),
and kill-and-resume through the checkpoint subsystem stays bit-identical
when the data source is out-of-core.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    CrashAt,
    SimulatedCrash,
)
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.data import build_store, materialize_data_spec, open_store, synthetic_windows_spec
from repro.telemetry.run import dataset_fingerprint
from tests.checkpoint.common import (
    assert_model_states_equal,
    assert_training_states_equal,
    tiny_model_config,
    tiny_train_config,
)

# Same layout the checkpoint harness assumes: 40 windows x batch 8 =
# 5 batches per epoch, 3 epochs — but generated through a store spec so
# the identical windows exist both in memory and on disk.
SPEC = synthetic_windows_spec(40, seq_len=16, channels=2, seed=1)


@pytest.fixture()
def corpus(tmp_path):
    """(in-memory windows, store path) for the same 40-window spec."""
    windows = materialize_data_spec(SPEC)
    store = build_store(SPEC, tmp_path / "store", shard_rows=12)  # 4 shards
    return windows, store


def _threads():
    return set(threading.enumerate())


class TestEquivalence:
    def test_store_and_prefetch_match_inmemory(self, corpus):
        """In-memory vs mmap store vs store+prefetch: one trajectory."""
        windows, store = corpus
        before = _threads()

        in_memory = run_pretrain(tiny_model_config(), windows, tiny_train_config())
        on_disk = run_pretrain(tiny_model_config(), str(store), tiny_train_config())
        prefetched = run_pretrain(tiny_model_config(), str(store),
                                  tiny_train_config(prefetch=True, prefetch_depth=3))

        assert in_memory.history == on_disk.history == prefetched.history
        assert_model_states_equal(in_memory.model.state_dict(),
                                  on_disk.model.state_dict())
        assert_model_states_equal(in_memory.model.state_dict(),
                                  prefetched.model.state_dict())
        assert _threads() == before  # prefetch workers all joined

    def test_manifest_path_and_open_dataset_accepted(self, corpus):
        """The driver takes a dir path, a manifest path, or an open dataset."""
        _, store = corpus
        by_dir = run_pretrain(tiny_model_config(), str(store), tiny_train_config())
        by_manifest = run_pretrain(tiny_model_config(), str(store / "manifest.json"),
                                   tiny_train_config())
        with open_store(store) as dataset:
            by_object = run_pretrain(tiny_model_config(), dataset, tiny_train_config())
        assert by_dir.history == by_manifest.history == by_object.history

    def test_telemetry_fingerprint_uses_manifest_not_bytes(self, corpus):
        """Telemetry fingerprints a store from its manifest checksums."""
        _, store = corpus
        with open_store(store) as dataset:
            fingerprint = dataset_fingerprint(dataset)
            assert fingerprint == dataset.dataset_fingerprint()
        assert fingerprint["container"] == "ShardedDataset"
        assert fingerprint["shape"] == [40, 16, 2]


class TestKillAndResumeOutOfCore:
    """tests/checkpoint/test_resume_exact.py, with the data on disk."""

    def _crash_and_resume(self, tmp_path, store, crash_step, **ckpt_overrides):
        baseline = run_pretrain(
            tiny_model_config(), str(store),
            tiny_train_config(checkpoint=CheckpointConfig(
                directory=str(tmp_path / "baseline"), **ckpt_overrides)))

        ckpt = CheckpointConfig(directory=str(tmp_path / "killed"),
                                **ckpt_overrides)
        with pytest.raises(SimulatedCrash):
            run_pretrain(tiny_model_config(), str(store),
                         tiny_train_config(checkpoint=ckpt, prefetch=True),
                         hooks=CrashAt(crash_step))
        resumed = run_pretrain(
            tiny_model_config(), str(store),
            tiny_train_config(checkpoint=dataclasses.replace(ckpt, resume=True),
                              prefetch=True))
        return baseline, resumed

    def _assert_identical(self, baseline, resumed, tmp_path):
        assert baseline.history == resumed.history
        assert_model_states_equal(baseline.model.state_dict(),
                                  resumed.model.state_dict())
        final_a, __ = CheckpointManager(tmp_path / "baseline").load_latest()
        final_b, __ = CheckpointManager(tmp_path / "killed").load_latest()
        assert_training_states_equal(final_a, final_b)

    def test_mid_epoch_crash_with_prefetch(self, tmp_path, corpus):
        """Killed at epoch 1 batch 2, prefetch on: resume is bit-exact."""
        _, store = corpus
        baseline, resumed = self._crash_and_resume(tmp_path, store,
                                                   crash_step=7,
                                                   every_n_batches=1)
        assert resumed.resumed_from_step == 8
        self._assert_identical(baseline, resumed, tmp_path)

    def test_epoch_boundary_replay(self, tmp_path, corpus):
        """Epoch-only checkpoints: the replayed epoch re-reads the store
        and still reproduces the exact trajectory."""
        _, store = corpus
        baseline, resumed = self._crash_and_resume(tmp_path, store,
                                                   crash_step=7,
                                                   every_n_epochs=1)
        assert resumed.resumed_from_step == 5
        self._assert_identical(baseline, resumed, tmp_path)

    def test_runs_resume_roundtrip_via_manifest_spec(self, tmp_path, corpus):
        """``repro runs resume`` path: the checkpoint's auto-filled
        ``data_spec`` (kind='store') re-opens the store and the rebuilt
        run finishes bit-identical to an uninterrupted one."""
        _, store = corpus
        baseline = run_pretrain(
            tiny_model_config(), str(store),
            tiny_train_config(checkpoint=CheckpointConfig(
                directory=str(tmp_path / "baseline"), every_n_batches=1)))

        killed_dir = tmp_path / "killed"
        with pytest.raises(SimulatedCrash):
            run_pretrain(tiny_model_config(), str(store),
                         tiny_train_config(checkpoint=CheckpointConfig(
                         directory=str(killed_dir), every_n_batches=1)),
                         hooks=CrashAt(7))

        # Rebuild everything from checkpoint metadata alone, exactly as
        # cli._runs_resume does — no reference to the original objects.
        state, meta = CheckpointManager(killed_dir).load_latest()
        data_spec = meta["data_spec"]
        assert data_spec["kind"] == "store"
        assert data_spec["path"] == str(store)
        assert data_spec["source_spec"] == SPEC

        train_dict = dict(meta["train_config"])
        ckpt_dict = dict(train_dict.get("checkpoint") or {})
        ckpt_dict.update(directory=str(killed_dir), resume=True)
        train_dict["checkpoint"] = ckpt_dict
        resumed = run_pretrain(TimeDRLConfig(**meta["model_config"]),
                               materialize_data_spec(data_spec),
                               PretrainConfig(**train_dict))

        assert resumed.resumed_from_step == 8
        assert baseline.history == resumed.history
        assert_model_states_equal(baseline.model.state_dict(),
                                  resumed.model.state_dict())

    def test_explicit_data_spec_not_overridden(self, tmp_path, corpus):
        """A user-provided CheckpointConfig.data_spec wins over auto-fill."""
        _, store = corpus
        explicit = {"kind": "store", "path": str(store)}
        run_pretrain(tiny_model_config(), str(store),
                     tiny_train_config(epochs=1, checkpoint=CheckpointConfig(
                         directory=str(tmp_path / "ckpt"),
                         data_spec=explicit)))
        __, meta = CheckpointManager(tmp_path / "ckpt").load_latest()
        assert meta["data_spec"] == explicit
