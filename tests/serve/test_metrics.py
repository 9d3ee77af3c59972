"""Request-latency accounting: bounded memory, summary contract, merge/reset.

The engine records each request's latency in milliseconds into one
fixed-bucket ``repro.obs`` histogram child per request kind
(``BatchingEngine.latency``), and the gateway report summarises each
child.  These tests pin the report-facing contract (summary keys, units,
percentile ordering), the O(buckets) memory bound, and that the report
and the flattened ``serve_request_ms`` SLO namespace read the same
percentiles from the same samples.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.export import flatten_snapshot
from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry,
                               _HistogramChild)
from repro.serve.gateway import _latency_summary


def _latency() -> _HistogramChild:
    """The histogram child the engine keeps per request kind."""
    return _HistogramChild(DEFAULT_LATENCY_BUCKETS_MS)


class TestSummaryContract:
    def test_empty_summary_shape(self):
        summary = _latency_summary(_latency())
        assert summary == {"count": 0, "mean_ms": None, "p50_ms": None,
                           "p95_ms": None, "max_ms": None}

    def test_summary_keys_and_units(self):
        hist = _latency()
        for ms in (1.0, 2.0, 4.0, 10.0):
            hist.observe(ms)
        summary = _latency_summary(hist)
        assert set(summary) == {"count", "mean_ms", "p50_ms", "p95_ms",
                                "max_ms"}
        assert summary["count"] == 4
        assert summary["mean_ms"] == pytest.approx(4.25)  # exact, not binned
        assert summary["max_ms"] == pytest.approx(10.0)

    def test_percentile_invariants(self):
        hist = _latency()
        for ms in (0.3, 0.9, 1.7, 3.2, 4.8, 9.1, 22.0):
            hist.observe(ms)
        summary = _latency_summary(hist)
        assert 0.3 <= summary["p50_ms"] <= summary["p95_ms"] <= summary["max_ms"]
        assert hist.percentile(50) == summary["p50_ms"]

    def test_percentile_empty_is_nan(self):
        assert math.isnan(_latency().percentile(95))


class TestBoundedMemory:
    def test_storage_is_o_buckets_not_o_samples(self):
        hist = _latency()
        bucket_slots = len(hist._counts)
        for i in range(50_000):
            hist.observe(float(i % 100))
        assert hist.count == 50_000
        assert len(hist._counts) == bucket_slots  # no per-sample state


class TestMergeReset:
    def test_merge_combines_distributions(self):
        a, b = _latency(), _latency()
        a.observe(1.0)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 2
        assert _latency_summary(a)["max_ms"] == pytest.approx(100.0)

    def test_reset_empties(self):
        hist = _latency()
        hist.observe(5.0)
        hist.reset()
        assert hist.count == 0
        assert _latency_summary(hist)["mean_ms"] is None


class TestThreadSafety:
    def test_concurrent_records_are_exact(self):
        hist = _latency()

        def work():
            for i in range(5_000):
                hist.observe(float(i % 50))

        threads = [threading.Thread(target=work) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 40_000


class TestOnePercentile:
    def test_report_and_flat_namespace_agree_on_one_sample_set(self):
        # A fast mode and a slow tail that spans several buckets: the
        # flattened SLO entries once interpolated from each bucket's
        # lower bound and read 0.3875 / 2.988 ms against the report's
        # 0.410 / 2.720 ms for these samples.
        rng = np.random.default_rng(0)
        samples = np.concatenate([rng.uniform(0.30, 0.35, 1000),
                                  rng.uniform(2.6, 3.0, 100)])
        registry = MetricsRegistry()
        family = registry.histogram("serve_request_ms", labels=("kind",))
        engine_latency = _latency()
        for ms in samples:
            family.labels(kind="encode").observe(ms)
            engine_latency.observe(ms)
        flat = flatten_snapshot(registry.snapshot())
        summary = _latency_summary(engine_latency)
        assert flat["serve_request_ms_p50"] == summary["p50_ms"]
        assert flat["serve_request_ms_p95"] == summary["p95_ms"]

    def test_served_requests_feed_both_paths_alike(self, checkpoint_dir,
                                                   windows):
        from repro.serve import GatewayConfig, ModelRegistry, ServingGateway

        registry = MetricsRegistry()
        obs_metrics.set_registry(registry)
        try:
            models = ModelRegistry()
            models.load(checkpoint_dir, alias="serving")
            gateway = ServingGateway(models, "serving",
                                     GatewayConfig(cache_size=0))
            gateway.serve_windows(windows[:16], request_size=2)
            latency = gateway.report()["latency"]["encode"]
        finally:
            obs_metrics.disable()
        flat = flatten_snapshot(registry.snapshot())
        assert flat["serve_request_ms_count"] == latency["count"] == 8
        assert flat["serve_request_ms_p50"] == latency["p50_ms"]
        assert flat["serve_request_ms_p95"] == latency["p95_ms"]
        assert flat["serve_request_ms_max"] == latency["max_ms"]


class TestLatencyReport:
    def test_report_shape(self, checkpoint_dir, windows):
        # The serving report's throughput, latency and cache sections are
        # built from the engine's latency histograms by the gateway.
        from repro.serve import GatewayConfig, ModelRegistry, ServingGateway

        registry = ModelRegistry()
        registry.load(checkpoint_dir, alias="serving")
        gateway = ServingGateway(registry, "serving",
                                 GatewayConfig(cache_size=8))
        gateway.serve_windows(windows[:4], request_size=4)
        gateway.serve_windows(windows[:4], request_size=4)
        report = gateway.report()
        throughput = report["throughput"]
        assert throughput["windows"] == 8
        assert throughput["windows_per_s"] == pytest.approx(
            throughput["windows"] / throughput["elapsed_s"])
        # Every answered request is timed, cache hits included.
        assert report["latency"]["encode"]["count"] == 2
        assert report["cache"]["hits"] == 1
        assert report["cache"]["misses"] == 1
