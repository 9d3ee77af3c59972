"""The gateway as the one serving front door: batch mode, the serving
report, and the ``repro serve`` CLI smoke tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.serve import (BatchingConfig, GatewayConfig, GatewayError,
                         ModelRegistry, ServingGateway, TenantConfig)
from repro.telemetry import Run

from .conftest import CHANNELS, SEQ_LEN


def _gateway(checkpoint_dir, run=None, **config) -> ServingGateway:
    registry = ModelRegistry(run=run)
    registry.load(checkpoint_dir, alias="serving")
    return ServingGateway(registry, "serving", GatewayConfig(**config),
                          run=run)


@pytest.fixture()
def service(checkpoint_dir):
    return _gateway(checkpoint_dir, cache_size=64,
                    batching=BatchingConfig(max_batch_size=16))


class TestServeWindows:
    def test_encode_equivalence_any_request_size(self, service, windows):
        direct_ts, direct_inst = service.loaded.model.encode(windows)
        for request_size in (1, 5, 48):
            ts, inst = service.serve_windows(windows,
                                             request_size=request_size)
            np.testing.assert_array_equal(ts, direct_ts)
            np.testing.assert_array_equal(inst, direct_inst)

    def test_predict_mode(self, service, windows):
        direct = service.loaded.model.predict(windows)
        served = service.serve_windows(windows, mode="predict",
                                       request_size=7)
        np.testing.assert_array_equal(served, direct)

    def test_repeated_workload_hits_cache(self, service, windows):
        service.serve_windows(windows[:16], request_size=1)
        service.serve_windows(windows[:16], request_size=1)
        stats = service.cache.stats()
        assert stats.hits == 16 and stats.misses == 16
        assert stats.hit_rate == 0.5

    def test_request_size_validation(self, service, windows):
        with pytest.raises(ValueError, match="request_size"):
            service.serve_windows(windows, request_size=0)

    def test_request_size_above_budget_rejected(self, checkpoint_dir,
                                                windows):
        # No request larger than the in-flight budget can ever be
        # admitted, so the workload is refused before anything is served.
        service = _gateway(checkpoint_dir, max_queue_windows=4)
        with pytest.raises(ValueError, match="in-flight budget"):
            service.serve_windows(windows[:10], request_size=5)
        assert service.report()["throughput"]["windows"] == 0

    @pytest.mark.parametrize("config", [
        # Two windows of quota that never refill within the test: the
        # third request is refused at the door twice.
        {"tenants": (TenantConfig(rate=1e-6, burst=2),)},
        # A deadline that has passed by the time the backlog is flushed.
        {"default_deadline_ms": 1e-6},
    ], ids=["quota", "deadline"])
    def test_unanswered_request_fails_the_workload(self, checkpoint_dir,
                                                   windows, config):
        # A shorter stack would no longer line up row for row with the
        # input, so batch mode raises instead of returning one.
        service = _gateway(checkpoint_dir, **config)
        with pytest.raises(GatewayError, match="went unanswered"):
            service.serve_windows(windows[:6], request_size=1)
        assert sum(service.report()["shed"].values()) >= 1

    def test_cache_can_be_disabled(self, checkpoint_dir, windows):
        service = _gateway(checkpoint_dir, cache_size=0)
        assert service.cache is None
        ts, inst = service.serve_windows(windows[:4])
        np.testing.assert_array_equal(
            inst, service.loaded.model.encode(windows[:4])[1])

    def test_tenants_round_robin(self, checkpoint_dir, windows):
        service = _gateway(checkpoint_dir, tenants=(
            TenantConfig(name="a"), TenantConfig(name="b")))
        service.serve_windows(windows[:6], request_size=1,
                              tenants=("a", "b"))
        assert service.report()["admission"]["admitted"] == {"a": 3, "b": 3}

    def test_shed_request_retried_after_backlog_drains(self, checkpoint_dir,
                                                       windows):
        # A 4-window budget admits two 2-window requests; the third is
        # shed, then admitted once the backlog is flushed.
        service = _gateway(checkpoint_dir, max_queue_windows=4)
        ts, inst = service.serve_windows(windows[:12], request_size=2)
        np.testing.assert_array_equal(
            inst, service.loaded.model.encode(windows[:12])[1])
        assert service.report()["shed"]["overload"] >= 1


class TestReport:
    def test_report_structure(self, service, windows):
        service.serve_windows(windows[:8], request_size=2)
        report = service.report()
        assert report["throughput"]["windows"] == 8
        assert report["throughput"]["windows_per_s"] > 0
        encode = report["latency"]["encode"]
        assert encode["count"] == 4
        assert encode["p50_ms"] <= encode["p95_ms"] <= encode["max_ms"]
        assert report["cache"]["capacity"] == 64
        assert report["fingerprint"] == service.loaded.fingerprint
        assert report["engine"]["batches_run"] >= 1
        assert report["admission"]["admitted"] == {"default": 4}
        json.dumps(report)  # must be JSON-serializable as emitted by the CLI

    def test_report_emits_telemetry_metric(self, checkpoint_dir, windows):
        run = Run.in_memory()
        service = _gateway(checkpoint_dir, run=run, cache_size=32)
        service.serve_windows(windows[:8], request_size=1)
        service.serve_windows(windows[:8], request_size=1)
        service.report()
        metrics = [e for e in run.memory.of_type("metric")
                   if e.get("metric") == "serve_report"]
        assert len(metrics) == 1
        assert metrics[0]["windows_per_s"] > 0
        assert metrics[0]["cache_hit_rate"] == 0.5
        spans = [e for e in run.memory.of_type("span_start")
                 if e.get("span") == "serve_windows"]
        assert len(spans) == 2


class TestCLI:
    def test_serve_synthetic_smoke(self, checkpoint_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        output_path = tmp_path / "emb.npz"
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--synthetic", "12", "--repeats", "2",
                     "--batch-size", "8",
                     "--report", str(report_path),
                     "--output", str(output_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["throughput"]["windows"] == 24
        assert report["cache"]["hit_rate"] == 0.5  # second repeat all hits
        payload = np.load(output_path)
        assert payload["timestamp"].ndim == 3
        assert payload["instance"].ndim == 2
        out = capsys.readouterr().out
        assert "windows/s" in out and "hit rate" in out

    def test_serve_predict_mode(self, checkpoint_dir, tmp_path):
        output_path = tmp_path / "pred.npz"
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--mode", "predict", "--synthetic", "6",
                     "--output", str(output_path)])
        assert code == 0
        assert np.load(output_path)["prediction"].shape[0] == 6

    def test_serve_npz_input(self, checkpoint_dir, tmp_path, windows):
        input_path = tmp_path / "input.npz"
        np.savez(input_path, windows=windows[:5])
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--input", str(input_path)])
        assert code == 0

    def test_serve_missing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        code = main(["serve", "--checkpoint", str(tmp_path / "nowhere"),
                     "--synthetic", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_shape_mismatch_fails_cleanly(self, checkpoint_dir,
                                                tmp_path, capsys):
        input_path = tmp_path / "bad.npz"
        np.savez(input_path, windows=np.zeros(
            (3, SEQ_LEN + 4, CHANNELS), dtype=np.float32))
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--input", str(input_path)])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_serve_telemetry_run_recorded(self, checkpoint_dir, tmp_path):
        run_root = tmp_path / "runs"
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--synthetic", "4", "--telemetry",
                     "--run-root", str(run_root)])
        assert code == 0
        manifests = list(run_root.glob("*/manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["status"] == "completed"

    def test_serve_gateway_flags(self, checkpoint_dir, tmp_path):
        report_path = tmp_path / "gateway.json"
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--synthetic", "16", "--tenant", "heavy:3:500:100",
                     "--tenant", "light:1", "--deadline-ms", "500",
                     "--queue-windows", "8", "--report", str(report_path)])
        assert code == 0
        admitted = json.loads(report_path.read_text())["admission"]["admitted"]
        assert admitted["heavy"] > 0 and admitted["light"] > 0

    def test_serve_unanswered_request_exits_without_output(
            self, checkpoint_dir, tmp_path, capsys):
        output_path = tmp_path / "emb.npz"
        code = main(["serve", "--checkpoint", str(checkpoint_dir),
                     "--synthetic", "6", "--tenant", "default:1:1e-6:2",
                     "--output", str(output_path)])
        assert code == 1
        assert not output_path.exists()
        assert "went unanswered" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["serve", "--checkpoint", "unused", "--queue-windows", "8"],
        ["swap", "--checkpoint", "unused", "--candidate", "unused"],
        ["obs", "export", "--checkpoint", "unused"],
    ], ids=["serve", "swap", "obs"])
    def test_request_size_above_budget_rejected_at_parsing(self, command,
                                                           capsys):
        size = "9" if "--queue-windows" in command else str(
            GatewayConfig.max_queue_windows + 1)
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--request-size", size])
        assert excinfo.value.code == 2
        assert "in-flight budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["serve", "--checkpoint", "unused", "--synthetic", "2"],
        ["swap", "--checkpoint", "unused", "--candidate", "unused"],
        ["obs", "export", "--checkpoint", "unused"],
    ], ids=["serve", "swap", "obs"])
    def test_request_size_below_one_rejected_at_parsing(self, command,
                                                        capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--request-size", "0"])
        assert excinfo.value.code == 2
        assert "--request-size" in capsys.readouterr().err

    def test_max_wait_flag_is_gone(self, capsys):
        # Batching is work-conserving: there is no wait to configure.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--checkpoint", "unused", "--synthetic", "2",
                  "--max-wait-ms", "2"])
        assert excinfo.value.code == 2
        assert "--max-wait-ms" in capsys.readouterr().err
