"""LatencyHistogram: bounded memory, summary contract, merge/reset.

The histogram used to keep every raw sample in a list — unbounded growth
under sustained traffic.  It is now backed by the fixed-bucket streaming
histogram from ``repro.obs.metrics``; these tests pin the report-facing
contract (``summary()`` keys, units, percentile ordering) across that
swap and lock the O(buckets) memory bound.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.serve.metrics import LatencyHistogram


class TestSummaryContract:
    def test_empty_summary_shape(self):
        summary = LatencyHistogram().summary()
        assert summary == {"count": 0, "mean_ms": None, "p50_ms": None,
                           "p95_ms": None, "max_ms": None}

    def test_summary_keys_and_units(self):
        hist = LatencyHistogram("encode")
        for seconds in (0.001, 0.002, 0.004, 0.010):
            hist.record(seconds)
        summary = hist.summary()
        assert set(summary) == {"count", "mean_ms", "p50_ms", "p95_ms",
                                "max_ms"}
        assert summary["count"] == 4
        assert summary["mean_ms"] == pytest.approx(4.25)  # exact, not binned
        assert summary["max_ms"] == pytest.approx(10.0)

    def test_percentile_invariants(self):
        hist = LatencyHistogram()
        for ms in (0.3, 0.9, 1.7, 3.2, 4.8, 9.1, 22.0):
            hist.record(ms / 1e3)
        summary = hist.summary()
        assert 0.3 <= summary["p50_ms"] <= summary["p95_ms"] <= summary["max_ms"]
        assert hist.percentile(50) == summary["p50_ms"]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LatencyHistogram().record(-0.001)

    def test_percentile_empty_is_nan(self):
        assert math.isnan(LatencyHistogram().percentile(95))


class TestBoundedMemory:
    def test_storage_is_o_buckets_not_o_samples(self):
        hist = LatencyHistogram()
        bucket_slots = len(hist._hist._counts)
        for i in range(50_000):
            hist.record((i % 100) / 1e3)
        assert hist.count == 50_000
        assert len(hist._hist._counts) == bucket_slots  # no per-sample state
        assert not hasattr(hist, "_samples")


class TestMergeReset:
    def test_merge_combines_distributions(self):
        a, b = LatencyHistogram("a"), LatencyHistogram("b")
        a.record(0.001)
        b.record(0.100)
        a.merge(b)
        assert a.count == 2
        assert a.summary()["max_ms"] == pytest.approx(100.0)

    def test_reset_empties(self):
        hist = LatencyHistogram()
        hist.record(0.005)
        hist.reset()
        assert hist.count == 0
        assert hist.summary()["mean_ms"] is None


class TestThreadSafety:
    def test_concurrent_records_are_exact(self):
        hist = LatencyHistogram()

        def work():
            for i in range(5_000):
                hist.record((i % 50) / 1e3)

        threads = [threading.Thread(target=work) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 40_000


class TestLatencyReport:
    def test_report_shape(self, checkpoint_dir, windows):
        # The serving report's throughput, latency and cache sections are
        # built from the engine's LatencyHistograms by the gateway.
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
