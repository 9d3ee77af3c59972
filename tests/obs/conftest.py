"""Shared observability fixtures.

Every test that touches the process-wide obs state goes through the
``registry`` fixture: it installs a *fresh* :class:`MetricsRegistry`,
clears the trace log, and — crucially — disables obs again on teardown,
so the rest of the tier-1 suite keeps running on the null (disabled)
path exactly as it did before this package existed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry

SEQ_LEN, CHANNELS = 32, 2


@pytest.fixture
def registry() -> MetricsRegistry:
    """A fresh registry installed as the process one; disabled after."""
    fresh = MetricsRegistry()
    obs_metrics.set_registry(fresh)
    obs_trace.trace_log().clear()
    yield fresh
    obs_metrics.disable()
    obs_trace.trace_log().clear()


@pytest.fixture(autouse=True)
def _obs_disabled_after(request):
    """Belt and braces: no obs test may leak an enabled registry."""
    yield
    obs_metrics.disable()
    obs_trace.trace_log().clear()


@pytest.fixture(scope="session")
def windows() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.standard_normal((48, SEQ_LEN, CHANNELS)).astype(np.float32)


@pytest.fixture(scope="session")
def checkpoint_dir(tmp_path_factory, windows):
    """A real checkpoint written by a short pre-training run (obs off)."""
    directory = tmp_path_factory.mktemp("obs-ckpt")
    config = TimeDRLConfig(seq_len=SEQ_LEN, input_channels=CHANNELS,
                           patch_len=8, stride=8, d_model=32,
                           num_heads=2, num_layers=1, seed=3)
    run_pretrain(config, windows, PretrainConfig(
        epochs=1, batch_size=16, seed=3,
        checkpoint=CheckpointConfig(directory=str(directory),
                                    every_n_epochs=1)))
    return directory
