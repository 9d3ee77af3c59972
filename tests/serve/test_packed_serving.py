"""A served checkpoint answers exactly what its rebuilt ``TimeDRL`` does.

The registry serves every transformer checkpoint on the in-memory fp32
exact packed forward (:func:`repro.compile.exact_fp32_model`) and every
other backbone as the rebuilt :class:`TimeDRL`.  These tests pin the
contract a user sees through the gateway: for deferred and threaded
serving, request sizes 1/4/7, ``encode`` and ``predict``, every served
array equals ``TimeDRL`` rebuilt from the same checkpoint, bit for bit,
across channel independence, every pooling and both compilable
backbones.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager, capture_state
from repro.compile import COMPILABLE_BACKBONES, CompiledModel
from repro.core import TimeDRLConfig
from repro.core.model import TimeDRL
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.serve import GatewayConfig, ModelRegistry, ServingGateway

SEQ_LEN, CHANNELS, WINDOWS = 32, 3, 14
REQUEST_SIZES = (1, 4, 7)


def _write_checkpoint(directory, **overrides) -> None:
    """One checkpoint of a seeded model whose every parameter is
    perturbed, so norms and biases are not at their initial values."""
    config = TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS,
                           patch_len=8, stride=8, d_model=16, num_heads=2,
                           num_layers=2, seed=5, **overrides)
    model = TimeDRL(config)
    rng = np.random.default_rng(17)
    for param in model.parameters():
        param.data += rng.normal(0.0, 0.05, param.data.shape).astype(
            param.data.dtype)
    CheckpointManager(directory).save(
        capture_state(model),
        extra_meta={"model_config": dataclasses.asdict(config)})


def _rebuilt(directory) -> TimeDRL:
    state, meta = CheckpointManager(directory).load_latest()
    model = TimeDRL(TimeDRLConfig(**meta["model_config"]))
    model.load_state_dict(state.model_state, strict=True)
    return model.eval()


def _windows() -> np.ndarray:
    rng = np.random.default_rng(23)
    return rng.standard_normal((WINDOWS, SEQ_LEN, CHANNELS)).astype(np.float32)


def _assert_bitwise(served, direct) -> None:
    served = served if isinstance(served, tuple) else (served,)
    direct = direct if isinstance(direct, tuple) else (direct,)
    assert len(served) == len(direct)
    for got, want in zip(served, direct):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def _assert_served_equals_rebuilt(directory, threaded: bool) -> None:
    registry = ModelRegistry()
    registry.load(directory, alias="serving")
    rebuilt = _rebuilt(directory)
    windows = _windows()
    gateway = ServingGateway(registry, "serving", GatewayConfig())
    if threaded:
        gateway.start()
    with gateway:
        for size, kind in itertools.product(REQUEST_SIZES,
                                            ("encode", "predict")):
            chunks = [windows[start:start + size]
                      for start in range(0, WINDOWS, size)]
            requests = [gateway.submit(chunk, kind) for chunk in chunks]
            if not threaded:
                gateway.flush()
            for chunk, request in zip(chunks, requests):
                direct = getattr(rebuilt, kind)(chunk)
                _assert_bitwise(request.result(), direct)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """One checkpoint per (backbone, channel independence, pooling)."""
    root = tmp_path_factory.mktemp("packed-serving")
    paths = {}
    for backbone, ci, pooling in itertools.product(
            COMPILABLE_BACKBONES, (False, True), ("cls", "last", "gap", "all")):
        directory = root / f"{backbone}-{int(ci)}-{pooling}"
        _write_checkpoint(directory, backbone=backbone,
                          channel_independence=ci, pooling=pooling)
        paths[backbone, ci, pooling] = directory
    return paths


@pytest.mark.parametrize("threaded", [False, True],
                         ids=["deferred", "threaded"])
@pytest.mark.parametrize("pooling", ["cls", "last", "gap", "all"])
@pytest.mark.parametrize("ci", [False, True], ids=["mixed", "ci"])
@pytest.mark.parametrize("backbone", COMPILABLE_BACKBONES)
def test_served_equals_rebuilt_timedrl(checkpoints, backbone, ci, pooling,
                                       threaded):
    directory = checkpoints[backbone, ci, pooling]
    assert isinstance(ModelRegistry().load(directory).model, CompiledModel)
    _assert_served_equals_rebuilt(directory, threaded)


def test_packed_model_keeps_checkpoint_provenance(checkpoints):
    directory = checkpoints["transformer", False, "cls"]
    loaded = ModelRegistry().load(directory)
    __, meta = CheckpointManager(directory).load_latest()
    model = loaded.model
    assert isinstance(model, CompiledModel)
    assert model.precision == "fp32" and model.exact_gelu
    assert not model.meta.get("fuse_qkv")
    assert loaded.fingerprint == meta["content_sha256"] == model.fingerprint
    assert loaded.meta == meta


def test_serving_load_publishes_no_compile_metrics(checkpoints):
    registry = MetricsRegistry()
    obs_metrics.set_registry(registry)
    try:
        ModelRegistry().load(checkpoints["transformer", True, "gap"])
    finally:
        obs_metrics.set_registry(None)
    names = registry.names()
    assert "serve_model_loads_total" in names
    assert not [name for name in names if name.startswith("compile_")]


@pytest.mark.parametrize("threaded", [False, True],
                         ids=["deferred", "threaded"])
def test_lstm_checkpoint_served_as_timedrl(tmp_path, threaded):
    _write_checkpoint(tmp_path, backbone="lstm")
    loaded = ModelRegistry().load(tmp_path)
    assert type(loaded.model) is TimeDRL
    _assert_served_equals_rebuilt(tmp_path, threaded)
