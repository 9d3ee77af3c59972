"""ModelRegistry: checkpoint resolution, rebuild fidelity, validation."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.checkpoint.manager import CheckpointManager
from repro.core import TimeDRLConfig
from repro.core.model import TimeDRL
from repro.serve import LoadedModel, ModelRegistry, RegistryError, ShapeMismatch
from repro.telemetry import Run

from ..helpers import set_checkpoint_format_version
from .conftest import CHANNELS, SEQ_LEN


_LAYER_PARTS = {"q": "attention.q_proj", "k": "attention.k_proj",
                "v": "attention.v_proj", "out": "attention.out_proj"}


def _state_key(name: str) -> str:
    """The ``TimeDRL.state_dict`` key of one packed array name."""
    if name == "cls_token":
        return "encoder.cls_token"
    if name == "pos":
        return "encoder.positional_encoding.weight"
    head, __, rest = name.partition(".")
    if head == "token":
        return f"encoder.token_encoding.{rest}"
    if head == "head":
        return f"predictive_head.proj.{rest}"
    index, part, leaf = rest.split(".")
    return (f"encoder.backbone.layers.item{index}."
            f"{_LAYER_PARTS.get(part, part)}.{leaf}")


class TestLoad:
    def test_load_directory_picks_latest(self, checkpoint_dir, windows):
        registry = ModelRegistry()
        loaded = registry.load(checkpoint_dir, alias="m")
        assert isinstance(loaded, LoadedModel)
        assert loaded.config.seq_len == SEQ_LEN
        assert loaded.config.input_channels == CHANNELS
        assert loaded.fingerprint and loaded.fingerprint != "unfingerprinted"
        # embeddings are usable immediately (model in eval mode)
        z_t, z_i = loaded.model.encode(windows[:2])
        assert z_t.ndim == 3 and z_i.ndim == 2

    def test_load_explicit_file(self, checkpoint_dir):
        archive = sorted(checkpoint_dir.glob("ckpt-*.npz"))[-1]
        loaded = ModelRegistry().load(archive)
        assert loaded.source == str(archive)

    def test_rebuilt_model_matches_source_weights(self, checkpoint_dir, windows):
        """Every packed array is the checkpoint's ``model_state`` entry,
        and together they are all of it but the pre-training-only
        contrastive head."""
        loaded = ModelRegistry().load(checkpoint_dir)
        state, meta = CheckpointManager(checkpoint_dir).load_latest()
        packed = loaded.model.arrays
        assert {_state_key(name) for name in packed} == {
            key for key in state.model_state
            if not key.startswith("contrastive_head.")}
        for name, array in packed.items():
            raw = state.model_state[_state_key(name)]
            assert array.dtype == raw.dtype and array.flags.c_contiguous
            np.testing.assert_array_equal(array, raw)
        direct = TimeDRL(TimeDRLConfig(**meta["model_config"]))
        direct.load_state_dict(state.model_state, strict=True)
        direct.eval()
        np.testing.assert_array_equal(loaded.model.encode(windows[:4])[1],
                                      direct.encode(windows[:4])[1])

    def test_fingerprint_is_archive_checksum(self, checkpoint_dir):
        loaded = ModelRegistry().load(checkpoint_dir)
        _, meta = CheckpointManager(checkpoint_dir).load_latest()
        assert loaded.fingerprint == meta["content_sha256"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="no valid checkpoint"):
            ModelRegistry().load(tmp_path)

    def test_other_format_version_named(self, checkpoint_dir, tmp_path):
        directory = tmp_path / "old"
        shutil.copytree(checkpoint_dir, directory)
        for archive in directory.glob("ckpt-*.npz"):
            set_checkpoint_format_version(archive, 1)
        with pytest.raises(RegistryError, match="format version 1"):
            ModelRegistry().load(directory)

    def test_unresolvable_source_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="cannot resolve"):
            ModelRegistry().load("no-such-run", run_root=str(tmp_path))

    def test_telemetry_message_on_load(self, checkpoint_dir):
        run = Run.in_memory()
        ModelRegistry(run=run).load(checkpoint_dir)
        texts = [e.get("text", "") for e in run.memory.of_type("message")]
        assert any("serve: loaded" in t for t in texts)


class TestPool:
    def test_warm_pool_round_trip(self, checkpoint_dir):
        registry = ModelRegistry()
        loaded = registry.load(checkpoint_dir, alias="prod")
        assert "prod" in registry
        assert registry.get("prod") is loaded
        assert len(registry) == 1

    def test_unknown_alias_lists_known(self, checkpoint_dir):
        registry = ModelRegistry()
        registry.load(checkpoint_dir, alias="prod")
        with pytest.raises(RegistryError, match="prod"):
            registry.get("staging")

    def test_register_adopts_in_memory_model(self):
        config = TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS,
                               patch_len=8, stride=8, d_model=16,
                               num_heads=2, num_layers=1, seed=0)
        model = TimeDRL(config)
        model.train()
        loaded = ModelRegistry().register("mem", model, fingerprint="abc")
        assert loaded.fingerprint == "abc"
        assert not model.training  # register forces eval mode


class TestValidateInput:
    def test_accepts_and_coerces(self, checkpoint_dir):
        loaded = ModelRegistry().load(checkpoint_dir)
        x = np.zeros((2, SEQ_LEN, CHANNELS), dtype=np.float64)
        out = loaded.validate_input(x)
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_wrong_seq_len(self, checkpoint_dir):
        loaded = ModelRegistry().load(checkpoint_dir)
        with pytest.raises(ShapeMismatch, match="does not match"):
            loaded.validate_input(np.zeros((2, SEQ_LEN + 1, CHANNELS)))

    def test_rejects_wrong_channels(self, checkpoint_dir):
        loaded = ModelRegistry().load(checkpoint_dir)
        with pytest.raises(ShapeMismatch):
            loaded.validate_input(np.zeros((2, SEQ_LEN, CHANNELS + 2)))

    def test_rejects_non_batched(self, checkpoint_dir):
        loaded = ModelRegistry().load(checkpoint_dir)
        with pytest.raises(ShapeMismatch, match=r"\(B, T, C\)"):
            loaded.validate_input(np.zeros((SEQ_LEN, CHANNELS)))

    def test_rejects_inconsistent_data_spec(self, checkpoint_dir):
        loaded = ModelRegistry().load(checkpoint_dir)
        loaded.meta = dict(loaded.meta, data_spec={"seq_len": SEQ_LEN * 2})
        with pytest.raises(ShapeMismatch, match="inconsistent"):
            loaded.validate_input(np.zeros((1, SEQ_LEN, CHANNELS)))


class TestBuildErrors:
    def test_missing_model_config_rejected(self, checkpoint_dir):
        state, meta = CheckpointManager(checkpoint_dir).load_latest()
        meta = dict(meta)
        meta.pop("model_config")
        with pytest.raises(RegistryError, match="model_config"):
            ModelRegistry()._build(state, meta, "synthetic")

    def test_invalid_model_config_rejected(self, checkpoint_dir):
        state, meta = CheckpointManager(checkpoint_dir).load_latest()
        meta = dict(meta, model_config={"not_a_field": 1})
        with pytest.raises(RegistryError, match="invalid model_config"):
            ModelRegistry()._build(state, meta, "synthetic")
