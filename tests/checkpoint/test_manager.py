"""Checkpoint files on disk: atomicity, checksums, retention, inventory."""

import json
import os

import numpy as np
import pytest

from repro import nn
from repro.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointManager,
    CheckpointVersionError,
    capture_state,
)
from repro.checkpoint.manager import FORMAT_VERSION, INDEX_NAME
from repro.nn import Module, Parameter

from ..helpers import set_checkpoint_format_version


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc = nn.Linear(4, 3, rng=rng)
        self.scale = Parameter(np.ones(2))
        self.rng = np.random.default_rng(seed + 1)

    def forward(self, x):
        return self.fc(x) * self.scale


def _state(step=1, seed=0, train=False):
    net = TinyNet(seed)
    optimizer = nn.AdamW(net.parameters(), lr=1e-3)
    if train:
        rng = np.random.default_rng(step)
        for __ in range(3):
            for param in net.parameters():
                param.grad = rng.normal(size=param.data.shape)
            optimizer.step()
    return capture_state(net, optimizer, global_step=step, epoch=step // 2,
                         history=[{"total": 1.0 / step}])


def _manager(tmp_path, **kwargs):
    return CheckpointManager(tmp_path / "ckpts", **kwargs)


class TestRoundTrip:
    def test_save_load_is_exact(self, tmp_path):
        manager = _manager(tmp_path)
        state = _state(step=3, train=True)
        info = manager.save(state, metrics={"total": 0.5},
                            extra_meta={"note": "hello"})
        loaded, meta = manager.load(info.path)
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["note"] == "hello"
        assert loaded.global_step == 3 and loaded.epoch == 1
        assert loaded.history == state.history
        for name in state.model_state:
            assert np.array_equal(loaded.model_state[name],
                                  state.model_state[name])
        for slot in ("m", "v"):
            for left, right in zip(loaded.optimizer_state["slots"][slot],
                                   state.optimizer_state["slots"][slot]):
                assert np.array_equal(left, right)
        assert loaded.optimizer_state["step_count"] == 3
        assert loaded.model_rngs == state.model_rngs

    def test_load_latest_returns_newest(self, tmp_path):
        manager = _manager(tmp_path)
        for step in (1, 2, 3):
            manager.save(_state(step))
        state, __ = manager.load_latest()
        assert state.global_step == 3

    def test_load_latest_empty_directory(self, tmp_path):
        assert _manager(tmp_path).load_latest() is None


class TestAtomicity:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A crash between temp-write and rename must leave neither a torn
        checkpoint nor a stray temp file."""
        manager = _manager(tmp_path)
        manager.save(_state(step=1))
        real_replace = os.replace

        def exploding_replace(src, dst):
            if "ckpt-" in str(dst):
                raise OSError("simulated crash mid-write")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            manager.save(_state(step=2))
        monkeypatch.undo()
        names = sorted(p.name for p in (tmp_path / "ckpts").iterdir())
        assert names == ["ckpt-00000001.npz", INDEX_NAME]
        # The survivor is the intact previous checkpoint.
        state, __ = manager.load_latest()
        assert state.global_step == 1


class TestCorruption:
    def test_torn_file_is_rejected(self, tmp_path):
        manager = _manager(tmp_path)
        info = manager.save(_state(step=1))
        payload = info.path.read_bytes()
        info.path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointError):
            manager.load(info.path)

    def test_stale_checksum_is_rejected(self, tmp_path):
        """Tampered array bytes under an intact zip must still be caught —
        by the embedded content_sha256, not the container format."""
        manager = _manager(tmp_path)
        info = manager.save(_state(step=1))
        with np.load(info.path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        name = next(key for key in arrays if key.startswith("model/"))
        arrays[name] = arrays[name] + 1.0
        np.savez(info.path, **arrays)
        with pytest.raises(CheckpointError, match="checksum"):
            manager.load(info.path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        manager = _manager(tmp_path)
        info = manager.save(_state(step=1))
        with np.load(info.path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__meta__"].tobytes()).decode())
        meta["format_version"] = FORMAT_VERSION + 99
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        np.savez(info.path, **arrays)
        with pytest.raises(CheckpointError, match="version"):
            manager.load(info.path)

    def test_load_latest_refuses_another_format_version(self, tmp_path):
        """A readable archive of another format version is a refusal
        naming the version and the file, never a skipped corrupt file
        with a fall-back to an older archive."""
        manager = _manager(tmp_path)
        manager.save(_state(step=1))
        newest = manager.save(_state(step=2))
        set_checkpoint_format_version(newest.path, 1)
        warnings = []
        with pytest.raises(CheckpointVersionError,
                           match="format version 1") as caught:
            manager.load_latest(warn=warnings.append)
        assert caught.value.version == 1
        assert "ckpt-00000002.npz" in str(caught.value)
        assert warnings == []

    def test_load_latest_skips_corrupt_with_warning(self, tmp_path):
        manager = _manager(tmp_path)
        manager.save(_state(step=1))
        newest = manager.save(_state(step=2))
        newest.path.write_bytes(b"garbage")
        warnings = []
        state, __ = manager.load_latest(warn=warnings.append)
        assert state.global_step == 1
        assert len(warnings) == 1
        assert "ckpt-00000002.npz" in warnings[0]


class TestRetention:
    def test_keep_last_plus_best(self, tmp_path):
        manager = _manager(tmp_path, keep_last=2, best_metric="total")
        totals = {1: 5.0, 2: 1.0, 3: 4.0, 4: 3.0, 5: 2.0}
        for step, total in totals.items():
            manager.save(_state(step), metrics={"total": total})
        inventory = manager.inventory()
        # Newest two survive, plus the best (step 2, total 1.0).
        assert [e.step for e in inventory] == [2, 4, 5]
        assert [e.step for e in inventory if e.is_best] == [2]
        on_disk = sorted(p.name for p in (tmp_path / "ckpts").glob("ckpt-*"))
        assert on_disk == [e.path.name for e in inventory]

    def test_non_finite_metric_never_marked_best(self, tmp_path):
        manager = _manager(tmp_path, keep_last=2)
        manager.save(_state(step=1), metrics={"total": 2.0})
        manager.save(_state(step=2), metrics={"total": float("nan")})
        best = [e.step for e in manager.inventory() if e.is_best]
        assert best == [1]


class TestInventory:
    def test_index_fallback_scans_directory(self, tmp_path):
        """Losing index.json must not lose the checkpoints."""
        manager = _manager(tmp_path)
        for step in (1, 2):
            manager.save(_state(step))
        (tmp_path / "ckpts" / INDEX_NAME).unlink()
        assert [e.step for e in manager.inventory()] == [1, 2]
        state, __ = manager.load_latest()
        assert state.global_step == 2

    def test_scan_skips_unreadable_files(self, tmp_path):
        manager = _manager(tmp_path)
        manager.save(_state(step=1))
        (tmp_path / "ckpts" / "ckpt-00000009.npz").write_bytes(b"junk")
        (tmp_path / "ckpts" / INDEX_NAME).unlink()
        assert [e.step for e in manager.inventory()] == [1]

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep_last=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, best_mode="median")
        with pytest.raises(ValueError):
            CheckpointConfig(on_nan="panic")
