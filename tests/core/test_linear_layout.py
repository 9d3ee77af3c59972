"""One ``Linear`` weight layout: ``(in, out)``, C-contiguous, everywhere.

``nn.Linear`` stores its weight as the operand ``x @ W`` takes, so no
product transposes or copies it (docs/autograd.md "GEMM shapes").  These
tests pin that layout through initialisation, optimizer steps and a
checkpoint round trip, and pin that a state dict saved in the old
``(out, in)`` layout is refused instead of loaded.
"""

import numpy as np
import pytest

from repro import nn
from repro.checkpoint import CheckpointManager, capture_state, restore_state
from repro.core import TimeDRL, TimeDRLConfig
from repro.nn import init


def _config():
    return TimeDRLConfig(seq_len=32, input_channels=3, patch_len=8, stride=8,
                         d_model=16, num_heads=2, num_layers=1, seed=0)


def _batch():
    return np.random.default_rng(1).standard_normal((8, 32, 3)).astype(np.float32)


def _linear_weights(model):
    """``weight name -> Linear`` for every ``Linear`` in ``model``."""
    owners = {id(m.weight): m for m in model.modules() if isinstance(m, nn.Linear)}
    return {name: owners[id(param)] for name, param in model.named_parameters()
            if id(param) in owners}


def _assert_layout(model):
    linears = _linear_weights(model)
    assert len(linears) >= 8
    for name, layer in linears.items():
        weight = layer.weight.data
        assert weight.shape == (layer.in_features, layer.out_features), name
        assert weight.flags.c_contiguous, name


def test_layout_holds_through_steps_and_restore(tmp_path):
    model = TimeDRL(_config())
    _assert_layout(model)

    optimizer = nn.AdamW(model.parameters(), lr=1e-3)
    for __ in range(3):
        optimizer.zero_grad()
        model.pretraining_losses(_batch())["total"].backward()
        optimizer.step()
    _assert_layout(model)

    manager = CheckpointManager(tmp_path / "ckpts")
    info = manager.save(capture_state(model, optimizer))
    state, __ = manager.load(info.path)
    fresh = TimeDRL(_config())
    restore_state(state, fresh, nn.AdamW(fresh.parameters(), lr=1e-3))
    _assert_layout(fresh)
    for name, layer in _linear_weights(fresh).items():
        np.testing.assert_array_equal(layer.weight.data,
                                      model.state_dict()[name])


def test_initial_weights_are_the_transposed_kaiming_draw():
    shapes = {(layer.in_features, layer.out_features)
              for layer in _linear_weights(TimeDRL(_config())).values()}
    for fan_in, fan_out in sorted(shapes):
        layer = nn.Linear(fan_in, fan_out, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        expected = init.kaiming_uniform((fan_out, fan_in), rng).T
        np.testing.assert_array_equal(layer.weight.data, expected)
        bound = 1.0 / np.sqrt(fan_in)
        np.testing.assert_array_equal(
            layer.bias.data,
            rng.uniform(-bound, bound, size=fan_out).astype(np.float32))


def test_out_in_state_dict_is_refused(tmp_path):
    """A ``Module.save`` archive in the ``(out, in)`` layout cannot load:
    the token, ``ff1``, ``ff2`` and head weights are not square."""
    model = TimeDRL(_config())
    linear_names = set(_linear_weights(model))
    old = {name: (value.T.copy() if name in linear_names else value)
           for name, value in model.state_dict().items()}
    path = tmp_path / "old_layout.npz"
    np.savez(path, **old)
    with pytest.raises(ValueError, match="shape mismatches") as error:
        TimeDRL(_config()).load(str(path))
    for name in ("token_encoding.weight", "ff1.weight", "ff2.weight"):
        assert name in str(error.value)
