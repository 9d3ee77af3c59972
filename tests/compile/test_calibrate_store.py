"""``compile_checkpoint(calibrate=<window-store dir>)``.

The store's first N windows calibrate the compile exactly as the same
windows do in memory: same activation ranges, same int8 decisions, same
artifact fingerprint.
"""

from __future__ import annotations

import pytest

from repro.compile import CompileOptions, compile_checkpoint
from repro.compile.errors import CompileError
from repro.data.specs import synthetic_windows_spec
from repro.data.store import build_store

from .conftest import CHANNELS, SEQ_LEN

WINDOWS, SEED = 96, 5


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    spec = synthetic_windows_spec(WINDOWS, seq_len=SEQ_LEN,
                                  channels=CHANNELS, seed=SEED)
    # Several shards, so the first N windows cross a shard boundary.
    return build_store(spec, tmp_path_factory.mktemp("calib") / "store",
                       shard_rows=32)


def _compile(checkpoint_dir, tmp_path, calibrate, windows):
    __, compiled, report = compile_checkpoint(
        checkpoint_dir, CompileOptions("int8"), calibrate=calibrate,
        calibration_windows=windows, output=tmp_path / "model.npz")
    return compiled, report


class TestStoreCalibration:
    def test_matches_same_windows_in_memory(self, checkpoint_dir, store_dir,
                                            tmp_path):
        from_store, store_report = _compile(
            checkpoint_dir, tmp_path / "a", str(store_dir), 40)
        in_memory, __ = _compile(
            checkpoint_dir, tmp_path / "b", f"synthetic:{WINDOWS}:{SEED}", 40)
        assert store_report["calibration_spec"]["kind"] == "store"
        assert store_report["calibration_windows"] == 40
        ranges = from_store.meta["activation_ranges"]
        assert ranges and ranges == in_memory.meta["activation_ranges"]
        assert from_store.meta["quantization"] == in_memory.meta["quantization"]
        assert from_store.fingerprint == in_memory.fingerprint

    def test_small_store_calibrates_on_all_of_it(self, checkpoint_dir,
                                                 store_dir, tmp_path):
        __, report = _compile(checkpoint_dir, tmp_path, str(store_dir), 500)
        assert report["calibration_windows"] == WINDOWS

    def test_directory_without_store_is_compile_error(self, checkpoint_dir,
                                                      tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CompileError, match="manifest"):
            _compile(checkpoint_dir, tmp_path, str(empty), 8)
