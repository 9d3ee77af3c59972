"""BatchingEngine: coalescing equivalence, cache wiring, threaded mode.

The acceptance property for the whole serving subsystem lives here:
embeddings served through the engine — under *any* split of the workload
into requests and any micro-batch geometry — must be bit-identical to a
direct single-batch ``model.encode()`` call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (BatchingConfig, BatchingEngine, EmbeddingCache,
                         ModelRegistry)


@pytest.fixture(scope="module")
def loaded(checkpoint_dir):
    return ModelRegistry().load(checkpoint_dir, alias="engine-tests")


def _split(windows, sizes):
    chunks, start = [], 0
    for size in sizes:
        chunks.append(windows[start:start + size])
        start += size
    assert start == len(windows)
    return chunks


class TestBitIdenticalCoalescing:
    """Served results == direct single-batch encode, bit for bit."""

    @pytest.mark.parametrize("request_sizes", [
        [48],                          # one request, one batch
        [1] * 48,                      # one window per request
        [7, 11, 3, 13, 5, 9],          # ragged requests
        [24, 24],
    ])
    @pytest.mark.parametrize("max_batch_size", [4, 16, 64])
    def test_encode_any_split(self, loaded, windows, request_sizes,
                              max_batch_size):
        direct_ts, direct_inst = loaded.model.encode(windows)
        engine = BatchingEngine(
            loaded, BatchingConfig(max_batch_size=max_batch_size))
        requests = [engine.submit(chunk, "encode")
                    for chunk in _split(windows, request_sizes)]
        engine.flush()
        served_ts = np.concatenate([r.result()[0] for r in requests])
        served_inst = np.concatenate([r.result()[1] for r in requests])
        np.testing.assert_array_equal(served_ts, direct_ts)
        np.testing.assert_array_equal(served_inst, direct_inst)

    def test_predict_any_split(self, loaded, windows):
        direct = loaded.model.predict(windows)
        engine = BatchingEngine(loaded, BatchingConfig(max_batch_size=8))
        requests = [engine.submit(chunk, "predict")
                    for chunk in _split(windows, [5, 16, 2, 25])]
        engine.flush()
        served = np.concatenate([r.result() for r in requests])
        np.testing.assert_array_equal(served, direct)


class TestCacheWiring:
    def test_hit_returns_identical_contents(self, loaded, windows):
        cache = EmbeddingCache(capacity=64)
        engine = BatchingEngine(loaded, cache=cache)
        first = engine.encode(windows[:4])
        second = engine.encode(windows[:4].copy())  # same bytes, new buffer
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_hits_skip_forward_pass(self, loaded, windows):
        cache = EmbeddingCache(capacity=64)
        engine = BatchingEngine(loaded, cache=cache)
        engine.encode(windows[:4])
        batches_before = engine.batches_run
        calls = {"n": 0}
        original = loaded.model.encode

        def counting(x):
            calls["n"] += 1
            return original(x)

        loaded.model.encode = counting
        try:
            engine.encode(windows[:4])
        finally:
            del loaded.model.encode
        assert calls["n"] == 0
        assert engine.batches_run == batches_before + 1  # batch ran, no forward

    def test_partial_hits_only_compute_misses(self, loaded, windows):
        cache = EmbeddingCache(capacity=64)
        engine = BatchingEngine(loaded, cache=cache)
        warm = engine.encode(windows[:4])
        # one cached request + one cold request coalesced into one batch
        cached_req = engine.submit(windows[:4], "encode")
        cold_req = engine.submit(windows[4:8], "encode")
        engine.flush()
        for a, b in zip(cached_req.result(), warm):
            np.testing.assert_array_equal(a, b)
        direct = loaded.model.encode(windows[4:8])
        for a, b in zip(cold_req.result(), direct):
            np.testing.assert_array_equal(a, b)

    def test_cache_results_bit_identical_to_direct(self, loaded, windows):
        cache = EmbeddingCache(capacity=64)
        engine = BatchingEngine(loaded, cache=cache)
        engine.encode(windows[:6])
        hit_ts, hit_inst = engine.encode(windows[:6])
        direct_ts, direct_inst = loaded.model.encode(windows[:6])
        np.testing.assert_array_equal(hit_ts, direct_ts)
        np.testing.assert_array_equal(hit_inst, direct_inst)

    def test_predict_and_encode_cached_separately(self, loaded, windows):
        cache = EmbeddingCache(capacity=64)
        engine = BatchingEngine(loaded, cache=cache)
        engine.encode(windows[:4])
        engine.predict(windows[:4])
        assert cache.stats().hits == 0  # same input, different kind


class TestBatchGeometry:
    def test_kind_boundary_closes_batch(self, loaded, windows):
        engine = BatchingEngine(loaded, BatchingConfig(max_batch_size=64))
        engine.submit(windows[:4], "encode")
        engine.submit(windows[4:8], "predict")
        engine.submit(windows[8:12], "encode")
        engine.flush()
        assert engine.batches_run == 3  # kinds never mixed in one forward

    def test_same_kind_requests_coalesce(self, loaded, windows):
        engine = BatchingEngine(loaded, BatchingConfig(max_batch_size=64))
        for start in range(0, 24, 4):
            engine.submit(windows[start:start + 4], "encode")
        engine.flush()
        assert engine.batches_run == 1
        assert engine.windows_served == 24

    def test_max_batch_size_respected(self, loaded, windows):
        engine = BatchingEngine(loaded, BatchingConfig(max_batch_size=8))
        for start in range(0, 24, 4):
            engine.submit(windows[start:start + 4], "encode")
        engine.flush()
        assert engine.batches_run == 3

    def test_oversize_request_admitted_alone(self, loaded, windows):
        engine = BatchingEngine(loaded, BatchingConfig(max_batch_size=4))
        request = engine.submit(windows[:16], "encode")
        engine.flush()
        assert request.result()[1].shape[0] >= 16
        assert engine.batches_run == 1

    def test_latency_recorded_per_request(self, loaded, windows):
        engine = BatchingEngine(loaded)
        engine.encode(windows[:4])
        engine.predict(windows[:4])
        assert engine.latency["encode"].count == 1
        assert engine.latency["predict"].count == 1


class TestValidationAndErrors:
    def test_bad_kind_rejected(self, loaded, windows):
        engine = BatchingEngine(loaded)
        with pytest.raises(ValueError, match="kind"):
            engine.submit(windows[:2], "transmogrify")

    def test_bad_shape_rejected_at_submit(self, loaded):
        engine = BatchingEngine(loaded)
        with pytest.raises(Exception, match="does not match"):
            engine.submit(np.zeros((2, 7, 3), dtype=np.float32))

    def test_forward_error_scattered_to_all_waiters(self, loaded, windows):
        engine = BatchingEngine(loaded)
        requests = [engine.submit(windows[:2], "encode"),
                    engine.submit(windows[2:4], "encode")]

        def boom(x):
            raise RuntimeError("kernel exploded")

        loaded.model.encode = boom
        try:
            engine.flush()
        finally:
            del loaded.model.encode
        for request in requests:
            assert request.done()
            with pytest.raises(RuntimeError, match="kernel exploded"):
                request.result()


class _RecordingCondition:
    """Wraps an engine's condition: every ``wait`` records the queue
    length it saw and the timeout it asked for."""

    def __init__(self, engine):
        self._engine = engine
        self._condition = engine._wakeup
        self.waits: list[tuple[int, float | None]] = []

    def __enter__(self):
        return self._condition.__enter__()

    def __exit__(self, *exc):
        return self._condition.__exit__(*exc)

    def wait(self, timeout=None):
        self.waits.append((len(self._engine._queue), timeout))
        return self._condition.wait(timeout)

    def notify(self, n=1):
        self._condition.notify(n)

    def notify_all(self):
        self._condition.notify_all()


class _BlockedForward:
    """Holds the engine's first forward pass until ``release`` is set and
    records, per forward, which submitted inputs it ran on."""

    def __init__(self, engine, monkeypatch):
        import threading
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls: list[list[np.ndarray]] = []
        original = engine._forward

        def forward(kind, inputs):
            self.calls.append(list(inputs))
            if len(self.calls) == 1:
                self.entered.set()
                assert self.release.wait(10.0)
            return original(kind, inputs)

        monkeypatch.setattr(engine, "_forward", forward)

    def batches(self, requests):
        """Each forward's inputs as indices into ``requests``."""
        return [[next(i for i, r in enumerate(requests) if r.x is x)
                 for x in inputs] for inputs in self.calls]


class TestThreadedMode:
    def test_threaded_results_match_direct(self, loaded, windows):
        direct_ts, direct_inst = loaded.model.encode(windows)
        config = BatchingConfig(max_batch_size=16)
        with BatchingEngine(loaded, config) as engine:
            requests = [engine.submit(chunk, "encode")
                        for chunk in _split(windows, [5, 16, 2, 25])]
            results = [r.result(timeout=30.0) for r in requests]
        np.testing.assert_array_equal(
            np.concatenate([r[0] for r in results]), direct_ts)
        np.testing.assert_array_equal(
            np.concatenate([r[1] for r in results]), direct_inst)

    def test_stop_drains_queue(self, loaded, windows):
        engine = BatchingEngine(loaded, BatchingConfig())
        engine.start()
        request = engine.submit(windows[:2], "encode")
        engine.stop()
        assert request.done()
        assert engine.windows_served >= 2

    def test_no_timed_wait_with_work_queued(self, loaded, windows):
        import time
        engine = BatchingEngine(loaded)
        recorder = engine._wakeup = _RecordingCondition(engine)
        engine.start()
        try:
            deadline = time.monotonic() + 10.0
            while not recorder.waits and time.monotonic() < deadline:
                time.sleep(0.001)  # the worker blocks on the empty queue
            engine.submit(windows[:1], "encode").result(10.0)
        finally:
            engine.close()
        assert recorder.waits
        assert all(depth == 0 for depth, _ in recorder.waits), recorder.waits
        assert all(timeout is None for _, timeout in recorder.waits)

    def test_free_batcher_takes_everything_queued(self, loaded, windows,
                                                  monkeypatch):
        engine = BatchingEngine(loaded, BatchingConfig(max_batch_size=3))
        blocked = _BlockedForward(engine, monkeypatch)
        engine.start()
        try:
            requests = [engine.submit(windows[:1], "encode")]
            assert blocked.entered.wait(10.0)
            requests += [engine.submit(windows[i:i + 1], "encode")
                         for i in range(1, 5)]
            blocked.release.set()
            for request in requests:
                request.result(10.0)
        finally:
            blocked.release.set()
            engine.close()
        # The three queued behind the forward go as one FIFO batch, the
        # fourth is cut off by max_batch_size.
        assert blocked.batches(requests) == [[0], [1, 2, 3], [4]]

    def test_deadline_passes_behind_a_running_forward(self, loaded, windows,
                                                      monkeypatch):
        import time
        from repro.serve import DeadlineExceeded
        engine = BatchingEngine(loaded)
        blocked = _BlockedForward(engine, monkeypatch)
        engine.start()
        try:
            first = engine.submit(windows[:1], "encode")
            assert blocked.entered.wait(10.0)
            doomed = engine.submit(windows[1:2], "encode",
                                   deadline_s=time.perf_counter() + 0.1)
            time.sleep(0.2)
            blocked.release.set()
            first.result(10.0)
            with pytest.raises(DeadlineExceeded) as caught:
                doomed.result(10.0)
        finally:
            blocked.release.set()
            engine.close()
        assert caught.value.waited_ms >= 100.0
        assert blocked.batches([first, doomed]) == [[0]]

    def test_start_is_idempotent(self, loaded, windows):
        engine = BatchingEngine(loaded)
        engine.start()
        worker = engine._worker
        engine.start()
        assert engine._worker is worker
        engine.stop()


class TestCloseSemantics:
    """close() resolves everything; the engine refuses work afterwards."""

    def test_close_drains_queued_requests(self, loaded, windows):
        engine = BatchingEngine(loaded)
        requests = [engine.submit(windows[i:i + 2], "encode")
                    for i in (0, 2, 4)]
        engine.close(drain=True)
        for request in requests:
            assert request.result(1.0)[0].shape[0] > 0

    def test_close_without_drain_fails_queued_typed(self, loaded, windows):
        from repro.serve import EngineClosed
        engine = BatchingEngine(loaded)
        requests = [engine.submit(windows[i:i + 2], "encode")
                    for i in (0, 2, 4)]
        engine.close(drain=False)
        for request in requests:
            assert request.done()           # resolved, not hung
            with pytest.raises(EngineClosed):
                request.result(0.0)

    def test_submit_after_close_raises_typed(self, loaded, windows):
        from repro.serve import EngineClosed
        engine = BatchingEngine(loaded)
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(windows[:2], "encode")

    def test_close_is_idempotent_and_start_refused(self, loaded):
        from repro.serve import EngineClosed
        engine = BatchingEngine(loaded)
        engine.close()
        engine.close()
        with pytest.raises(EngineClosed):
            engine.start()

    def test_threaded_close_joins_worker(self, loaded, windows):
        import threading
        engine = BatchingEngine(loaded).start()
        engine.submit(windows[:2], "encode").result(10.0)
        engine.close()
        leaked = [t for t in threading.enumerate()
                  if t.name == "serve-batcher"]
        assert not leaked

    def test_worker_crash_fails_only_that_batch(self, loaded, windows,
                                                monkeypatch):
        from repro.checkpoint.faults import SimulatedCrash
        engine = BatchingEngine(
            loaded, BatchingConfig(max_batch_size=2))
        engine.start()
        original = engine._process
        tripped = []

        def crash_once(batch):
            if not tripped:
                tripped.append(True)
                raise SimulatedCrash("kill -9 mid-batch")
            return original(batch)

        monkeypatch.setattr(engine, "_process", crash_once)
        try:
            doomed = engine.submit(windows[:2], "encode")
            with pytest.raises(SimulatedCrash):
                doomed.result(10.0)
            healthy = engine.submit(windows[2:4], "encode")
            assert healthy.result(10.0)[0].shape[0] > 0  # engine survived
        finally:
            engine.close()


class TestDeadlines:
    """Deadline propagation: expired work never reaches a forward pass."""

    def test_past_deadline_rejected_at_submit(self, loaded, windows):
        from repro.serve import DeadlineExceeded
        import time
        engine = BatchingEngine(loaded)
        with pytest.raises(DeadlineExceeded):
            engine.submit(windows[:2], "encode",
                          deadline_s=time.perf_counter() - 1.0)

    def test_queued_request_expires_with_waited_ms(self, loaded, windows):
        from repro.serve import DeadlineExceeded
        import time
        engine = BatchingEngine(loaded)
        request = engine.submit(windows[:2], "encode",
                                deadline_s=time.perf_counter() + 0.005)
        fresh = engine.submit(windows[2:4], "encode")
        time.sleep(0.02)
        engine.flush()
        with pytest.raises(DeadlineExceeded) as excinfo:
            request.result(0.0)
        assert excinfo.value.waited_ms >= 5.0
        assert fresh.result(0.0)[0].shape[0] > 0   # unexpired one served

    def test_on_done_fires_for_result_and_error(self, loaded, windows):
        from repro.serve import DeadlineExceeded
        import time
        engine = BatchingEngine(loaded)
        seen = []
        ok = engine.submit(windows[:2], "encode",
                           on_done=lambda r: seen.append(("ok", r._error)))
        dead = engine.submit(
            windows[2:4], "encode",
            deadline_s=time.perf_counter() + 0.001,
            on_done=lambda r: seen.append(("dead", r._error)))
        time.sleep(0.01)
        engine.flush()
        assert ("ok", None) in seen
        errors = dict(seen)
        assert isinstance(errors["dead"], DeadlineExceeded)

    def test_crashing_on_done_does_not_poison_the_batch(self, loaded,
                                                        windows):
        engine = BatchingEngine(loaded)

        def bomb(request):
            raise RuntimeError("observer bug")

        victim = engine.submit(windows[:2], "encode", on_done=bomb)
        neighbour = engine.submit(windows[2:4], "encode")
        engine.flush()
        assert victim.result(0.0)[0].shape[0] > 0
        assert neighbour.result(0.0)[0].shape[0] > 0
