"""What a data-parallel run records, and what it rejects up front.

Every rank runs the in-process pre-training loop, so a world of two
records what the in-process loop records: per-step telemetry, recovery
and checkpoint events, and the ``train_*`` obs families.  Rank 0's
records reach the caller's run through the coordinator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig, PoisonLossAt
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.distributed import DistributedConfig, pretrain_data_parallel
from repro.distributed.blas import find_openblas, usable_cpus
from repro.obs import metrics as obs_metrics
from repro.telemetry import Run


def _model_config() -> TimeDRLConfig:
    return TimeDRLConfig(seq_len=16, patch_len=4, stride=4, d_model=8,
                         num_heads=2, num_layers=1, input_channels=2, seed=0)


def _data(n: int = 40) -> np.ndarray:
    return np.random.default_rng(1).normal(size=(n, 16, 2)).astype(np.float32)


def _events(loaded, kind, **match):
    return [event for event in loaded.events if event["type"] == kind
            and all(event.get(key) == value for key, value in match.items())]


@pytest.fixture
def obs_registry():
    registry = obs_metrics.enable()
    registry.clear()
    try:
        yield registry
    finally:
        obs_metrics.disable()


class TestWorldOfTwoRecords:
    def test_records_match_the_in_process_loop(self, tmp_path, obs_registry):
        # 2 epochs x 5 batches with the step-2 loss poisoned and skipped:
        # 9 optimizer steps.
        config = PretrainConfig(
            epochs=2, batch_size=8, seed=0, telemetry=True,
            run_root=str(tmp_path / "runs"),
            checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpt"),
                                        every_n_batches=1,
                                        on_nan="skip_batch"))
        result = pretrain_data_parallel(
            _model_config(), _data(), train_config=config,
            distributed=DistributedConfig(world_size=2),
            hooks=PoisonLossAt(2))
        loaded = Run.load(result.run_dir)

        steps = _events(loaded, "step")
        assert [event["step"] for event in steps] == [
            0, 1, 3, 4, 5, 6, 7, 8, 9]
        recoveries = _events(loaded, "recovery")
        assert [(event["action"], event["step"]) for event in recoveries] == [
            ("skip_batch", 2)]
        saves = _events(loaded, "checkpoint", action="saved")
        assert len(saves) == 9 + 2  # every batch, plus each epoch's end
        assert len(_events(loaded, "epoch")) == 2
        pretrain_steps = obs_registry.get("train_steps_total").labels(
            phase="pretrain")
        assert pretrain_steps.value == len(steps)
        assert obs_registry.get("train_epochs_total").labels(
            phase="pretrain").value == 2
        assert obs_registry.get("dist_allreduce_seconds") is not None

    def test_rank_epochs_are_timed_by_their_span(self, tmp_path,
                                                 obs_registry):
        config = PretrainConfig(epochs=2, batch_size=8, seed=0,
                                telemetry=True,
                                run_root=str(tmp_path / "runs"))
        result = pretrain_data_parallel(
            _model_config(), _data(), train_config=config,
            distributed=DistributedConfig(world_size=2))
        logged = [event["epoch_seconds"] for event in
                  _events(Run.load(result.run_dir), "epoch")]
        # Rank 0's epoch span is the one reading behind both the run's
        # epoch records and the replayed train_epoch_seconds samples.
        observed = obs_registry.get("train_epoch_seconds").labels(
            phase="pretrain")
        assert observed.count == len(logged) == 2
        assert observed.sum == logged[0] + logged[1]
        assert observed._min == min(logged) and observed._max == max(logged)
        throughput = obs_registry.get("dist_worker_throughput")
        for rank in ("0", "1"):
            assert throughput.labels(rank=rank).value > 0

    def test_every_rank_reports_its_blas_pool(self, tmp_path):
        config = PretrainConfig(epochs=1, batch_size=8, seed=0,
                                telemetry=True,
                                run_root=str(tmp_path / "runs"))
        result = pretrain_data_parallel(
            _model_config(), _data(), train_config=config,
            distributed=DistributedConfig(world_size=2))
        pools = sorted(_events(Run.load(result.run_dir), "worker",
                               action="blas"), key=lambda e: e["rank"])
        assert [pool["rank"] for pool in pools] == [0, 1]
        library = find_openblas()
        for pool in pools:
            if library is None:
                assert pool["threads_after"] is None
                continue
            assert pool["library"] == library.path
            assert pool["threads_before"] == library.get_threads()
            assert pool["threads_after"] == min(
                pool["threads_before"], max(1, usable_cpus() // 2))


class TestEmptyData:
    def test_zero_windows_rejected_before_forking(self):
        with pytest.raises(ValueError, match="yielded no batches"):
            pretrain_data_parallel(
                _model_config(), np.zeros((0, 16, 2), dtype=np.float32),
                train_config=PretrainConfig(epochs=1, batch_size=8),
                distributed=DistributedConfig(world_size=2))

    def test_same_error_as_in_process(self):
        with pytest.raises(ValueError, match="yielded no batches"):
            run_pretrain(_model_config(),
                         np.zeros((0, 16, 2), dtype=np.float32),
                         PretrainConfig(epochs=1, batch_size=8))
