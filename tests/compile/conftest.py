"""Shared compile fixtures: a tiny trained model + its checkpoint.

Geometry mirrors ``tests/serve/conftest.py`` (seq 32, 3 channels, d_model
32) so compiled artifacts plug straight into the serving fixtures'
expectations while keeping every test sub-second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain

SEQ_LEN, CHANNELS = 32, 3


def small_config(**overrides) -> TimeDRLConfig:
    base = dict(seq_len=SEQ_LEN, input_channels=CHANNELS, patch_len=8,
                stride=8, d_model=32, num_heads=2, num_layers=1, seed=3)
    base.update(overrides)
    return TimeDRLConfig(**base)


@pytest.fixture(scope="session")
def windows() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((48, SEQ_LEN, CHANNELS)).astype(np.float32)


@pytest.fixture(scope="session")
def model(windows):
    """A briefly-trained (non-random) model, in eval mode."""
    result = run_pretrain(small_config(), windows,
                          PretrainConfig(epochs=1, batch_size=16, seed=3))
    return result.model.eval()


@pytest.fixture(scope="session")
def checkpoint_dir(tmp_path_factory, windows):
    directory = tmp_path_factory.mktemp("compile-ckpt")
    run_pretrain(small_config(), windows, PretrainConfig(
        epochs=1, batch_size=16, seed=3,
        checkpoint=CheckpointConfig(directory=str(directory),
                                    every_n_epochs=1)))
    return directory
