"""Shared serving fixtures: one tiny pre-trained checkpoint per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain

SEQ_LEN, CHANNELS = 32, 3


@pytest.fixture(scope="session")
def windows() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((48, SEQ_LEN, CHANNELS)).astype(np.float32)


@pytest.fixture(scope="session")
def checkpoint_dir(tmp_path_factory, windows):
    """A real checkpoint directory written by a short pre-training run."""
    directory = tmp_path_factory.mktemp("serve-ckpt")
    config = TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS,
                           patch_len=8, stride=8, d_model=32,
                           num_heads=2, num_layers=1, seed=3)
    run_pretrain(config, windows, PretrainConfig(
        epochs=1, batch_size=16, seed=3,
        checkpoint=CheckpointConfig(directory=str(directory),
                                    every_n_epochs=1)))
    return directory
