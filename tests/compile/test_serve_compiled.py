"""Compiled artifacts behind the serving stack: registry, gateway, swap.

Acceptance from ISSUE 10: a compiled artifact registers as a serve
alias (fingerprinted, shape-validated), serves through the gateway, and
survives ``repro swap`` shadow-validation — the fp32-exact artifact
passes a strict bit-compare against the fp checkpoint, while int8 is
honestly rolled back at zero tolerance and promoted within its declared
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import CompileOptions, compile_checkpoint
from repro.evaluation.classification import linear_probe_classification
from repro.data.datasets import make_classification_data
from repro.serve import (
    GatewayConfig,
    ModelRegistry,
    RegistryError,
    ServingGateway,
    SwapConfig,
)

from .conftest import CHANNELS, SEQ_LEN


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, checkpoint_dir):
    """fp32 and int8 artifacts compiled from the session checkpoint."""
    root = tmp_path_factory.mktemp("compiled")
    paths = {}
    for precision in ("fp32", "int8"):
        paths[precision], __, __ = compile_checkpoint(
            checkpoint_dir, CompileOptions(precision),
            output=root / f"model-{precision}.npz")
    return paths


class TestRegistry:
    def test_load_serves_compiled_fingerprint(self, artifacts, windows):
        registry = ModelRegistry()
        loaded = registry.load(artifacts["int8"], alias="compiled")
        assert loaded.fingerprint == loaded.model.fingerprint
        assert loaded.config.seq_len == SEQ_LEN
        assert "compiled" in registry
        z_t, z_i = loaded.model.encode(loaded.validate_input(windows[:4]))
        assert z_t.shape[0] == 4 and z_i.shape[0] == 4

    def test_shape_validation_still_applies(self, artifacts, windows):
        registry = ModelRegistry()
        loaded = registry.load(artifacts["int8"])
        with pytest.raises(RegistryError, match="window shape"):
            loaded.validate_input(windows[:, :, :1])

    def test_corrupt_artifact_rejected(self, artifacts, tmp_path):
        blob = bytearray(artifacts["int8"].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.npz"
        bad.write_bytes(bytes(blob))
        registry = ModelRegistry()
        with pytest.raises(RegistryError):
            registry.load(bad)

    def test_checkpoint_serves_the_fp32_artifact_forward(self, artifacts,
                                                          checkpoint_dir,
                                                          windows):
        """A checkpoint and its fp32 artifact serve the same packed
        forward, bit for bit, under different fingerprints."""
        from_checkpoint = ModelRegistry().load(checkpoint_dir)
        from_artifact = ModelRegistry().load(artifacts["fp32"])
        assert from_checkpoint.model.kind == from_artifact.model.kind == "fp32"
        assert from_checkpoint.fingerprint != from_artifact.fingerprint
        x = windows[:5]
        for got, want in zip(from_checkpoint.model.encode(x),
                             from_artifact.model.encode(x)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(from_checkpoint.model.predict(x),
                                      from_artifact.model.predict(x))


class TestGatewaySwap:
    def _swap(self, checkpoint_dir, candidate, config):
        registry = ModelRegistry()
        registry.load(checkpoint_dir, alias="serving")
        with ServingGateway(registry, "serving", GatewayConfig()) as gateway:
            before = gateway.fingerprint
            handle = gateway.begin_swap(candidate, config)
            rng = np.random.default_rng(11)
            for __ in range(config.shadow_requests + 2):
                gateway.encode(rng.standard_normal(
                    (2, SEQ_LEN, CHANNELS)).astype(np.float32))
                if handle.done():
                    break
            report = handle.wait(60.0)
            return before, gateway.fingerprint, report

    def test_fp32_artifact_promotes_on_bit_compare(self, checkpoint_dir,
                                                   artifacts):
        before, after, report = self._swap(
            checkpoint_dir, artifacts["fp32"], SwapConfig(shadow_requests=3))
        assert report["outcome"] == "promoted"
        assert after == report["candidate_fingerprint"] != before
        assert report["shadow"]["max_abs_diff"] == 0.0

    def test_int8_rolled_back_at_zero_tolerance(self, checkpoint_dir,
                                                artifacts):
        before, after, report = self._swap(
            checkpoint_dir, artifacts["int8"], SwapConfig(shadow_requests=3))
        assert report["outcome"] == "rolled_back"
        assert after == before

    def test_int8_promotes_within_declared_tolerance(self, checkpoint_dir,
                                                     artifacts):
        before, after, report = self._swap(
            checkpoint_dir, artifacts["int8"],
            SwapConfig(shadow_requests=3, max_abs_diff=0.5))
        assert report["outcome"] == "promoted"
        assert after != before


class TestLinearProbeTolerance:
    def test_int8_probe_accuracy_within_tolerance(self, checkpoint_dir,
                                                  artifacts):
        """The ISSUE's downstream gate: quantization may not cost more
        than 10 accuracy points on a linear probe over the embeddings."""
        from repro.compile import load_compiled

        teacher = ModelRegistry().load(checkpoint_dir).model
        rng = np.random.default_rng(0)
        n_per_class = 30
        x, y = [], []
        for label in range(2):   # separable two-class synthetic windows
            base = rng.standard_normal(
                (n_per_class, SEQ_LEN, CHANNELS)).astype(np.float32)
            shift = np.sin(np.linspace(0, 6.28, SEQ_LEN, dtype=np.float32))
            x.append(base + label * 2.0 * shift[None, :, None])
            y.append(np.full(n_per_class, label))
        data = make_classification_data(np.concatenate(x),
                                        np.concatenate(y), seed=0)
        compiled = load_compiled(artifacts["int8"])

        def probe(fn):
            return linear_probe_classification(
                lambda b: fn(b.astype(np.float32))[1], data,
                epochs=40, seed=0).accuracy

        fp_acc = probe(teacher.encode)
        int8_acc = probe(compiled.encode)
        assert int8_acc >= fp_acc - 10.0
