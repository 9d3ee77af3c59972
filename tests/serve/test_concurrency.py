"""Thread-safety of the serving counters.

The cache's hit/miss/eviction counters and the engine's
``batches_run``/``windows_served`` totals are written from the worker
thread and read from foreground threads; these tests hammer them from
many threads and require *exact* totals — a lost increment is a failure,
not noise.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import (BatchingConfig, BatchingEngine, EmbeddingCache,
                         ModelRegistry)


@pytest.fixture(scope="module")
def loaded(checkpoint_dir):
    return ModelRegistry().load(checkpoint_dir, alias="concurrency-tests")


class TestCacheCounters:
    def test_counters_exact_under_contention(self):
        cache = EmbeddingCache(capacity=10_000)
        threads_n, ops = 8, 400

        def work(worker):
            for i in range(ops):
                digest = f"{worker}-{i}"
                assert cache.get("fp", digest) is None      # miss
                cache.put("fp", digest, np.zeros(4))
                assert cache.get("fp", digest) is not None  # hit

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.misses == threads_n * ops
        assert stats.hits == threads_n * ops
        assert stats.size == threads_n * ops
        assert stats.evictions == 0

    def test_eviction_count_exact_when_full(self):
        cache = EmbeddingCache(capacity=16)
        threads_n, ops = 4, 200

        def work(worker):
            for i in range(ops):
                cache.put("fp", f"{worker}-{i}", np.zeros(2))

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        # Every insertion beyond capacity evicts exactly one entry.
        assert stats.evictions == threads_n * ops - 16
        assert stats.size == 16
        assert len(cache) == 16


class TestEngineStats:
    def test_windows_served_exact_with_threaded_submitters(self, loaded,
                                                           windows):
        with BatchingEngine(loaded, BatchingConfig(
                max_batch_size=8)) as engine:
            def client(offset):
                for start in range(0, 12, 2):
                    engine.submit(windows[start:start + 2],
                                  "encode").result(timeout=30.0)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = engine.stats()
        assert stats["windows_served"] == 4 * 6 * 2  # 4 clients × 6 reqs × 2
        assert stats["batches_run"] >= 6  # 48 windows / max batch 8
        # The instance attributes agree with the locked snapshot.
        assert engine.windows_served == stats["windows_served"]

    def test_stats_snapshot_is_consistent(self, loaded, windows):
        engine = BatchingEngine(loaded)
        engine.submit(windows[:4], "encode")
        engine.flush()
        assert engine.stats() == {"batches_run": 1, "windows_served": 4}
