"""Chaos suite: every request resolves — result or typed error, never a hang.

Faults injected here reuse :class:`repro.checkpoint.faults.SimulatedCrash`
(a ``BaseException``, so surviving it proves the engine's containment
does not lean on ``except Exception``):

* worker killed mid-batch — only that batch fails, the engine stays
  serviceable;
* poisoned forward — typed errors propagate, the breaker opens, degraded
  serving takes over, and the breaker re-closes once the fault clears;
* deadline storm — a slow model plus tight deadlines resolves every
  request to a result or :class:`DeadlineExceeded`;
* close under load — shutdown resolves everything that was admitted.

An autouse guard asserts no serving thread leaks out of any test.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.checkpoint.faults import SimulatedCrash
from repro.serve import (BatchingConfig, BreakerConfig, CircuitOpen,
                         DeadlineExceeded, EngineClosed, GatewayConfig,
                         ModelRegistry, Overloaded, QuotaExceeded,
                         RetryableError, ServingGateway)
from repro.utils import BackoffPolicy

TYPED = (DeadlineExceeded, EngineClosed, CircuitOpen, Overloaded,
         QuotaExceeded, SimulatedCrash)


def _serve_threads():
    return [t for t in threading.enumerate() if t.name.startswith("serve-")]


@pytest.fixture(autouse=True)
def no_serving_thread_leaks():
    assert not _serve_threads()
    yield
    deadline = time.monotonic() + 5.0
    while _serve_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    leaked = _serve_threads()
    assert not leaked, f"leaked serving threads: {leaked}"


@pytest.fixture
def registry(checkpoint_dir):
    registry = ModelRegistry()
    registry.load(checkpoint_dir, alias="serving")
    return registry


def fast_breaker():
    return BreakerConfig(window=8, min_requests=3, failure_ratio=0.5,
                         probe_successes=1,
                         backoff=BackoffPolicy(initial=0.01, multiplier=2.0,
                                               jitter=0.0, max_delay=0.1))


class TestWorkerCrash:
    def test_crash_mid_batch_fails_only_that_batch(self, registry, windows,
                                                   monkeypatch):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=None,
            batching=BatchingConfig(max_batch_size=4)))
        gateway.start()
        engine = gateway._engine
        original = engine._process
        crashed = threading.Event()

        def crash_once(batch):
            if not crashed.is_set():
                crashed.set()
                raise SimulatedCrash("worker killed mid-batch")
            return original(batch)

        monkeypatch.setattr(engine, "_process", crash_once)
        try:
            first = gateway.submit(windows[:2], "encode")
            with pytest.raises(SimulatedCrash):
                first.result(10.0)             # the sacrificed batch
            # The worker survived a BaseException: later batches serve.
            second = gateway.submit(windows[:2], "encode")
            ts, inst = second.result(10.0)
            assert ts.shape[0] > 0 and inst.shape[0] > 0
        finally:
            gateway.close()

    def test_repeated_crashes_trip_breaker_then_recover(self, registry,
                                                        windows,
                                                        monkeypatch):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker(),
            batching=BatchingConfig(max_batch_size=2)))
        gateway.start()
        engine = gateway._engine
        original = engine._process
        faulty = threading.Event()
        faulty.set()

        def flaky(batch):
            if faulty.is_set():
                raise SimulatedCrash("fault window")
            return original(batch)

        monkeypatch.setattr(engine, "_process", flaky)
        try:
            resolved = 0
            for _ in range(6):
                try:
                    gateway.submit(windows[:1], "encode").result(10.0)
                    resolved += 1
                except (SimulatedCrash, CircuitOpen):
                    resolved += 1
            assert resolved == 6                # nothing hung
            assert gateway.breaker.state == "open"
            faulty.clear()                      # fault stops
            deadline = time.monotonic() + 10.0
            while (gateway.breaker.state != "closed"
                   and time.monotonic() < deadline):
                try:
                    gateway.submit(windows[:1], "encode").result(10.0)
                except (CircuitOpen, SimulatedCrash):
                    time.sleep(0.02)            # wait out the backoff
            assert gateway.breaker.state == "closed"   # breaker re-closed
        finally:
            gateway.close()


class TestPoisonedForward:
    def test_poisoned_encode_degrades_then_recovers(self, registry, windows,
                                                    monkeypatch):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker(),
            batching=BatchingConfig(max_batch_size=8)))
        loaded = registry.get("serving")
        # Warm the cache with a healthy answer first.
        live = gateway.encode(windows[:4])
        original = loaded.model.encode
        poisoned = threading.Event()
        poisoned.set()

        def poison(x):
            if poisoned.is_set():
                raise ValueError("NaN in attention weights")
            return original(x)

        monkeypatch.setattr(loaded.model, "encode", poison)
        try:
            # Poisoned forwards propagate as the typed original error.
            failures = 0
            for _ in range(4):
                try:
                    gateway.encode(windows[8:10])
                except ValueError:
                    failures += 1
                except CircuitOpen:
                    break
            # The warm-up success is in the window, so the 50% ratio
            # trips after the second failure at the earliest.
            assert failures >= 2
            assert gateway.breaker.state == "open"
            # Degraded serving: the warmed window still answers.
            request = gateway.submit(windows[:4])
            assert request.degraded == "cache"
            np.testing.assert_array_equal(request.result(1.0)[0], live[0])
            # Unknown windows shed with a typed, retryable error.
            with pytest.raises(CircuitOpen):
                gateway.submit(windows[12:14])
            poisoned.clear()
            deadline = time.monotonic() + 10.0
            while (gateway.breaker.state != "closed"
                   and time.monotonic() < deadline):
                try:
                    gateway.encode(windows[8:10])
                except (CircuitOpen, ValueError):
                    time.sleep(0.02)
            assert gateway.breaker.state == "closed"
            ts, _ = gateway.encode(windows[12:14])   # full service restored
            assert ts.shape[0] > 0
        finally:
            gateway.close()


class TestDeadlineStorm:
    def test_slow_model_tight_deadlines_all_resolve(self, registry, windows,
                                                    monkeypatch):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=None, max_queue_windows=4096,
            batching=BatchingConfig(max_batch_size=2)))
        loaded = registry.get("serving")
        original = loaded.model.encode

        def slow(x):
            time.sleep(0.025)
            return original(x)

        monkeypatch.setattr(loaded.model, "encode", slow)
        gateway.start()
        outcomes = {"served": 0, "deadline": 0}
        lock = threading.Lock()

        def client():
            for _ in range(10):
                try:
                    request = gateway.submit(windows[:1], "encode",
                                             deadline_ms=20.0)
                    request.result(30.0)        # a hang fails the test here
                    key = "served"
                except DeadlineExceeded:
                    key = "deadline"
                with lock:
                    outcomes[key] += 1

        threads = [threading.Thread(target=client) for _ in range(6)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            gateway.close()
        assert outcomes["served"] + outcomes["deadline"] == 60  # 100% resolve
        assert outcomes["deadline"] > 0         # the storm actually stormed
        assert outcomes["served"] > 0           # but service never collapsed


class TestCloseUnderLoad:
    def test_every_admitted_request_resolves_on_abrupt_close(self, registry,
                                                             windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=None, max_queue_windows=4096,
            batching=BatchingConfig(max_batch_size=4)))
        gateway.start()
        admitted = []
        lock = threading.Lock()
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    request = gateway.submit(windows[:1], "encode")
                except EngineClosed:
                    return
                except RetryableError as error:
                    # Over the in-flight budget: back off as told and keep
                    # loading, so every client stays alive until close.
                    time.sleep(error.retry_after_s)
                    continue
                with lock:
                    admitted.append(request)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        gateway.close(drain=False)              # abrupt shutdown under load
        stop.set()
        for t in threads:
            t.join()
        assert admitted
        for request in admitted:
            assert request._done.wait(5.0), "request left unresolved"
            try:
                request.result(0.0)
            except TYPED:
                pass                             # typed failure: acceptable

    def test_drain_close_serves_everything_queued(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=None, max_queue_windows=4096))
        requests = [gateway.submit(windows[i:i + 1]) for i in range(16)]
        gateway.close(drain=True)
        for request in requests:
            ts, inst = request.result(1.0)       # all served, none failed
            assert ts.shape[0] > 0 and inst.shape[0] > 0
