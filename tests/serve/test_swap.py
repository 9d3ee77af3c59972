"""Rolling model swap: shadow validation, atomic flip, automatic rollback.

The acceptance properties from the issue:

* zero downtime — requests keep resolving before, during, and after the
  flip (and in-flight work finishes on the old weights);
* safety — a candidate that fails bit-compare or the latency budget is
  rolled back automatically and the serving fingerprint never changes;
* correctness — after a passing swap, served results are bit-identical
  to direct encodes with the *new* checkpoint, and the alias reports the
  new fingerprint.
"""

from __future__ import annotations

import shutil
import threading

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.serve import (GatewayConfig, ModelRegistry, ServingGateway,
                         SwapConfig, SwapFailed)

SEQ_LEN, CHANNELS = 32, 3


def _train(directory, epochs=1, seq_len=SEQ_LEN, channels=CHANNELS, seed=3):
    rng = np.random.default_rng(7)
    windows = rng.standard_normal((48, seq_len, channels)).astype(np.float32)
    config = TimeDRLConfig(seq_len=seq_len, input_channels=channels,
                           patch_len=8, stride=8, d_model=32,
                           num_heads=2, num_layers=1, seed=seed)
    run_pretrain(config, windows, PretrainConfig(
        epochs=epochs, batch_size=16, seed=seed,
        checkpoint=CheckpointConfig(directory=str(directory),
                                    every_n_epochs=epochs)))
    return directory


@pytest.fixture(scope="module")
def candidate_dir(tmp_path_factory):
    """Different weights (2 epochs) than the session checkpoint (1)."""
    return _train(tmp_path_factory.mktemp("swap-candidate"), epochs=2)


@pytest.fixture(scope="module")
def twin_dir(tmp_path_factory, checkpoint_dir):
    """Bit-identical copy of the session checkpoint."""
    target = tmp_path_factory.mktemp("swap-twin") / "ckpt"
    shutil.copytree(checkpoint_dir, target)
    return target


@pytest.fixture
def gateway(checkpoint_dir):
    registry = ModelRegistry()
    registry.load(checkpoint_dir, alias="serving")
    gateway = ServingGateway(registry, "serving", GatewayConfig())
    yield gateway
    gateway.close()


def drive(gateway, windows, count):
    rng = np.random.default_rng(11)
    outs = []
    for _ in range(count):
        outs.append(gateway.encode(
            rng.standard_normal((2, SEQ_LEN, CHANNELS)).astype(np.float32)))
    return outs


class TestPromotion:
    def test_bitwise_twin_promotes_with_continuous_serving(self, gateway,
                                                           twin_dir):
        handle = gateway.begin_swap(twin_dir, SwapConfig(shadow_requests=3))
        served = drive(gateway, None, 5)   # traffic during shadowing
        assert all(ts.shape[0] > 0 for ts, _ in served)   # zero downtime
        report = handle.wait(10)
        assert report["outcome"] == "promoted"
        shadow = report["shadow"]
        assert shadow["passed"] >= 3 and shadow["failed"] == 0
        assert all(v["bitwise_equal"] for v in shadow["verdicts"])
        # Serving continues on the promoted engine.
        post = drive(gateway, None, 1)
        assert post[0][0].shape[0] > 0
        # The staging alias was cleaned up; only the serving alias remains.
        assert gateway.registry.aliases() == ["serving"]

    def test_tolerant_swap_flips_fingerprint_and_serves_new_weights(
            self, gateway, candidate_dir):
        old_fingerprint = gateway.fingerprint
        handle = gateway.begin_swap(
            candidate_dir, SwapConfig(shadow_requests=2, max_abs_diff=1e12))
        drive(gateway, None, 4)
        report = handle.wait(10)
        assert report["outcome"] == "promoted"
        assert gateway.fingerprint == report["candidate_fingerprint"]
        assert gateway.fingerprint != old_fingerprint
        # Bit-identical to a direct encode with the new checkpoint.
        candidate = ModelRegistry().load(candidate_dir, alias="direct")
        x = np.random.default_rng(5).standard_normal(
            (4, SEQ_LEN, CHANNELS)).astype(np.float32)
        direct_ts, direct_inst = candidate.model.encode(x)
        ts, inst = gateway.encode(x)
        np.testing.assert_array_equal(ts, direct_ts)
        np.testing.assert_array_equal(inst, direct_inst)

    def test_swap_events_emitted(self, gateway, twin_dir):
        events = []

        class SpyRun:
            enabled = True

            def emit(self, type, **payload):
                events.append({"type": type, **payload})

        gateway.run = SpyRun()
        handle = gateway.begin_swap(twin_dir, SwapConfig(shadow_requests=2))
        drive(gateway, None, 3)
        handle.wait(10)
        types = [event["type"] for event in events]
        assert types.count("swap_shadow") >= 2
        assert types[0] == "swap" and events[0]["phase"] == "shadow"
        assert types[-1] == "swap" and events[-1]["phase"] == "final"
        assert events[-1]["outcome"] == "promoted"


class TestRollback:
    def test_bit_compare_failure_rolls_back(self, gateway, candidate_dir):
        fingerprint = gateway.fingerprint
        handle = gateway.begin_swap(candidate_dir,
                                    SwapConfig(shadow_requests=5))
        drive(gateway, None, 5)
        report = handle.wait(10)
        assert report["outcome"] == "rolled_back"
        # First failing verdict decides: no need for all 5 mirrors.
        assert report["shadow"]["failed"] >= 1
        assert gateway.fingerprint == fingerprint      # alias untouched
        assert gateway.registry.aliases() == ["serving"]
        # Serving never stopped.
        assert drive(gateway, None, 1)[0][0].shape[0] > 0

    def test_latency_budget_violation_rolls_back(self, gateway, twin_dir):
        fingerprint = gateway.fingerprint
        handle = gateway.begin_swap(
            twin_dir, SwapConfig(shadow_requests=3, latency_budget_ms=1e-9))
        drive(gateway, None, 3)
        report = handle.wait(10)
        assert report["outcome"] == "rolled_back"
        verdicts = report["shadow"]["verdicts"]
        assert any(not v["within_budget"] for v in verdicts)
        assert all(v["outputs_ok"] for v in verdicts)  # outputs were fine
        assert gateway.fingerprint == fingerprint

    def test_abort_swap_rolls_back(self, gateway, twin_dir):
        fingerprint = gateway.fingerprint
        handle = gateway.begin_swap(twin_dir, SwapConfig(shadow_requests=100))
        drive(gateway, None, 2)            # not enough mirrors to finalize
        report = gateway.abort_swap()
        assert report["outcome"] == "rolled_back"
        assert handle.done()
        assert gateway.fingerprint == fingerprint


class TestGuards:
    def test_geometry_mismatch_refused_before_mirroring(self, gateway,
                                                        tmp_path):
        wrong = _train(tmp_path / "wrong", seq_len=16)
        with pytest.raises(SwapFailed, match="geometry"):
            gateway.begin_swap(wrong)
        assert gateway.registry.aliases() == ["serving"]

    def test_second_swap_while_one_in_flight_refused(self, gateway,
                                                     twin_dir):
        gateway.begin_swap(twin_dir, SwapConfig(shadow_requests=100))
        with pytest.raises(SwapFailed, match="already in flight"):
            gateway.begin_swap(twin_dir)
        gateway.abort_swap()

    def test_swap_after_finalize_is_allowed(self, gateway, twin_dir):
        handle = gateway.begin_swap(twin_dir, SwapConfig(shadow_requests=1))
        drive(gateway, None, 1)
        assert handle.wait(10)["outcome"] == "promoted"
        second = gateway.begin_swap(twin_dir, SwapConfig(shadow_requests=1))
        drive(gateway, None, 1)
        assert second.wait(10)["outcome"] == "promoted"


class TestThreadedSwap:
    def test_promote_under_concurrent_live_traffic(self, checkpoint_dir,
                                                   twin_dir):
        registry = ModelRegistry()
        registry.load(checkpoint_dir, alias="serving")
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            max_queue_windows=4096)).start()
        stop = threading.Event()
        failures = []

        def client():
            rng = np.random.default_rng(17)
            while not stop.is_set():
                x = rng.standard_normal(
                    (2, SEQ_LEN, CHANNELS)).astype(np.float32)
                try:
                    gateway.submit(x, "encode").result(10.0)
                except Exception as error:
                    failures.append(error)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            handle = gateway.begin_swap(twin_dir,
                                        SwapConfig(shadow_requests=4))
            report = handle.wait(30)
        finally:
            stop.set()
            for t in threads:
                t.join()
            gateway.close()
        assert report["outcome"] == "promoted"
        assert not failures             # zero downtime: no request failed
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("serve-")]
        assert not leaked
