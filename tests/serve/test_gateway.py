"""ServingGateway: typed rejections, degraded serving, fair multiplexing.

The hard property everywhere: an admitted request *always resolves* —
to a result, a degraded answer, or a typed error — and rejected requests
carry machine-usable retry hints.  Equivalence (gateway == direct
encode, bit for bit) anchors everything else.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import (BatchingConfig, BreakerConfig, CircuitOpen,
                         DeadlineExceeded, EngineClosed, GatewayConfig,
                         ModelRegistry, Overloaded, QuotaExceeded,
                         ServingGateway, ShapeMismatch, TenantConfig)
from repro.serve.cache import input_digest
from repro.utils import BackoffPolicy


@pytest.fixture(scope="module")
def registry(checkpoint_dir):
    registry = ModelRegistry()
    registry.load(checkpoint_dir, alias="serving")
    return registry


@pytest.fixture
def gateway(registry):
    gateway = ServingGateway(registry, "serving", GatewayConfig())
    yield gateway
    gateway.close()


def fast_breaker(**overrides):
    defaults = dict(window=8, min_requests=4, failure_ratio=0.5,
                    probe_successes=1,
                    backoff=BackoffPolicy(initial=0.01, multiplier=2.0,
                                          jitter=0.0, max_delay=0.5))
    defaults.update(overrides)
    return BreakerConfig(**defaults)


class TestEquivalence:
    def test_gateway_results_bit_identical_to_direct(self, registry, gateway,
                                                     windows):
        direct_ts, direct_inst = registry.get("serving").model.encode(windows)
        requests = [gateway.submit(windows[i:i + 6], "encode")
                    for i in range(0, 48, 6)]
        gateway.flush()
        served_ts = np.concatenate([r.result()[0] for r in requests])
        served_inst = np.concatenate([r.result()[1] for r in requests])
        np.testing.assert_array_equal(served_ts, direct_ts)
        np.testing.assert_array_equal(served_inst, direct_inst)

    def test_predict_round_trip(self, registry, gateway, windows):
        direct = registry.get("serving").model.predict(windows[:8])
        np.testing.assert_array_equal(gateway.predict(windows[:8]), direct)

    def test_bad_shape_rejected_at_the_door(self, gateway):
        with pytest.raises(ShapeMismatch):
            gateway.submit(np.zeros((2, 5, 1), dtype=np.float32))


class TestAdmission:
    def test_quota_exceeded_is_typed_and_retryable(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            tenants=(TenantConfig("small", rate=1.0, burst=4.0),)))
        with gateway:
            gateway.submit(windows[:4], tenant="small")
            with pytest.raises(QuotaExceeded) as excinfo:
                gateway.submit(windows[:4], tenant="small")
            assert excinfo.value.retry_after_s > 0
            gateway.flush()
        assert gateway.report()["shed"]["quota"] == 1

    def test_overload_shed_at_the_door(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            max_queue_windows=8))
        with gateway:
            gateway.submit(windows[:8])
            with pytest.raises(Overloaded) as excinfo:
                gateway.submit(windows[:8])
            assert excinfo.value.retry_after_s > 0
            gateway.flush()
            # Resolved requests free the budget.
            gateway.submit(windows[:8])
            gateway.flush()

    def test_weighted_tenants_share_dispatch_fairly(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            tenants=(TenantConfig("heavy", weight=3.0),
                     TenantConfig("light", weight=1.0)),
            max_queue_windows=4096))
        with gateway:
            for i in range(24):
                gateway.submit(windows[:1], tenant="heavy")
                gateway.submit(windows[:1], tenant="light")
            gateway.flush()
            dispatched = gateway.report()["dispatched_windows"]
        assert dispatched == {"heavy": 24, "light": 24}  # all served
        # Fair *order* is covered in test_admission; here the integration
        # point is that both tenants' work flowed through one engine.


class TestDeadlines:
    def test_already_dead_deadline_resolves_typed(self, gateway, windows):
        request = gateway.submit(windows[:2], deadline_ms=1e-6)
        gateway.flush()
        with pytest.raises(DeadlineExceeded):
            request.result(1.0)

    def test_deadline_expires_in_queue(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig())
        request = gateway.submit(windows[:2], deadline_ms=5.0)
        time.sleep(0.02)              # deadline passes while queued
        gateway.flush()
        with pytest.raises(DeadlineExceeded) as excinfo:
            request.result(1.0)
        assert excinfo.value.waited_ms >= 5.0
        assert gateway.report()["shed"]["deadline"] >= 1
        gateway.close()

    def test_default_deadline_from_config(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            default_deadline_ms=5.0))
        request = gateway.submit(windows[:2])
        time.sleep(0.02)
        gateway.flush()
        with pytest.raises(DeadlineExceeded):
            request.result(1.0)
        gateway.close()

    def test_deadline_that_fits_is_served(self, gateway, windows):
        request = gateway.submit(windows[:2], deadline_ms=30_000)
        gateway.flush()
        ts, inst = request.result(1.0)
        assert ts.shape[0] > 0 and inst.shape[0] > 0


class TestBreakerIntegration:
    def _open_breaker(self, gateway):
        for _ in range(4):
            gateway.breaker.record(False)
        assert gateway.breaker.state == "open"

    def test_open_breaker_serves_cache_hits(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker()))
        with gateway:
            live = gateway.encode(windows[:4])
            self._open_breaker(gateway)
            request = gateway.submit(windows[:4])
            assert request.degraded == "cache"
            np.testing.assert_array_equal(request.result(1.0)[0], live[0])
            assert gateway.report()["degraded"]["cache"] == 1

    def test_open_breaker_without_cache_answer_sheds(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker()))
        with gateway:
            self._open_breaker(gateway)
            with pytest.raises(CircuitOpen) as excinfo:
                gateway.submit(windows[:4])
            assert excinfo.value.retry_after_s > 0
            assert gateway.report()["shed"]["circuit"] == 1

    def test_stale_ok_serves_previous_fingerprint(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker(), stale_ok=True))
        with gateway:
            x = gateway.loaded.validate_input(windows[:4])
            stale_value = (np.ones((4, 2)), np.ones((4, 2)))
            gateway.cache.put("retired-fingerprint", input_digest(x),
                              stale_value, "encode")
            self._open_breaker(gateway)
            request = gateway.submit(windows[:4])
            assert request.degraded == "stale"
            np.testing.assert_array_equal(request.result(1.0)[0],
                                          stale_value[0])
            assert gateway.report()["degraded"]["stale"] == 1

    def test_without_stale_ok_previous_fingerprint_is_refused(self, registry,
                                                              windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker(), stale_ok=False))
        with gateway:
            x = gateway.loaded.validate_input(windows[:4])
            gateway.cache.put("retired-fingerprint", input_digest(x),
                              (np.ones(1), np.ones(1)), "encode")
            self._open_breaker(gateway)
            with pytest.raises(CircuitOpen):
                gateway.submit(windows[:4])

    def test_breaker_recovers_after_successes(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker()))
        with gateway:
            self._open_breaker(gateway)
            time.sleep(0.02)          # backoff initial=10ms
            out = gateway.encode(windows[:2])   # the successful probe
            assert out[0].shape[0] > 0
            assert gateway.breaker.state == "closed"

    def test_no_breaker_configured_disables_degradation(self, registry,
                                                        windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=None))
        with gateway:
            assert gateway.breaker is None
            assert gateway.report()["breaker"] is None
            gateway.encode(windows[:2])


class TestThreadedMode:
    def test_concurrent_submitters_all_resolve(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            max_queue_windows=4096,
            batching=BatchingConfig(max_batch_size=16)))
        gateway.start()
        results, errors = [], []
        lock = threading.Lock()

        def client(worker):
            for i in range(10):
                try:
                    request = gateway.submit(windows[:2], "encode")
                    value = request.result(10.0)
                    with lock:
                        results.append(value)
                except Exception as error:   # typed errors only
                    with lock:
                        errors.append(error)

        threads = [threading.Thread(target=client, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        gateway.close()
        assert len(results) + len(errors) == 80
        assert not errors               # capacity was ample: all served
        direct = registry.get("serving").model.encode(windows[:2])
        for ts, inst in results:
            np.testing.assert_array_equal(ts, direct[0])

    def test_threaded_close_is_clean(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig())
        gateway.start()
        request = gateway.submit(windows[:2])
        request.result(10.0)
        gateway.close()
        gateway.close()               # idempotent
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("serve-")]
        assert not leaked


class TestClose:
    def test_submit_after_close_raises_typed(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig())
        gateway.close()
        with pytest.raises(EngineClosed):
            gateway.submit(windows[:2])

    def test_close_drains_queued_requests(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig())
        requests = [gateway.submit(windows[i:i + 2]) for i in (0, 2, 4)]
        gateway.close(drain=True)
        for request in requests:
            assert request.result(1.0)[0].shape[0] > 0

    def test_close_without_drain_fails_queued_typed(self, registry, windows):
        gateway = ServingGateway(registry, "serving", GatewayConfig())
        requests = [gateway.submit(windows[i:i + 2]) for i in (0, 2, 4)]
        gateway.close(drain=False)
        for request in requests:
            with pytest.raises(EngineClosed):
                request.result(1.0)
        assert gateway.report()["shed"]["closed"] == 3


class TestReport:
    def test_report_shape(self, registry, gateway, windows):
        gateway.encode(windows[:2])
        report = gateway.report()
        assert report["alias"] == "serving"
        assert report["fingerprint"] == registry.get("serving").fingerprint
        assert report["admission"]["admitted"]["default"] == 1
        assert report["engine"]["windows_served"] == 2
        assert "encode" in report["latency"]
        assert report["cache"]["capacity"] == 1024
        assert report["swap"] is None


class TestOneHandle:
    """An admitted request has one handle, one Event and one validation."""

    def test_engine_queues_the_gateway_handle(self, registry, gateway,
                                              windows, monkeypatch):
        from repro.serve import BatchingEngine, InferenceRequest

        queued = []
        submit = BatchingEngine.submit

        def spy(engine, x, kind="encode", deadline_s=None, on_done=None,
                request=None):
            returned = submit(engine, x, kind, deadline_s, on_done, request)
            queued.append((request, returned))
            return returned

        monkeypatch.setattr(BatchingEngine, "submit", spy)
        handle = gateway.submit(windows[:2])
        gateway.flush()
        assert isinstance(handle, InferenceRequest)
        assert queued == [(handle, handle)]
        handle.result(0.0)

    def test_one_event_and_one_validation_per_request(self, registry,
                                                      gateway, windows,
                                                      monkeypatch):
        from repro.serve import LoadedModel

        events, validations = [], []

        class CountingEvent(threading.Event):
            def __init__(self):
                events.append(self)
                super().__init__()

        validate = LoadedModel.validate_input

        def counting_validate(loaded, x):
            validations.append(x)
            return validate(loaded, x)

        monkeypatch.setattr(threading, "Event", CountingEvent)
        monkeypatch.setattr(LoadedModel, "validate_input", counting_validate)
        requests = [gateway.submit(windows[i:i + 2]) for i in range(0, 8, 2)]
        gateway.flush()
        for request in requests:
            request.result(0.0)
        assert len(events) == len(requests)
        assert len(validations) == len(requests)

    def test_woken_caller_sees_admission_released_and_breaker_recorded(
            self, registry, windows, monkeypatch):
        gateway = ServingGateway(registry, "serving", GatewayConfig(
            breaker=fast_breaker(window=64, min_requests=64))).start()
        release = gateway.admission.release

        def slow_release(windows):
            # Widen the window in which a caller woken too early would
            # still see its windows in flight.
            time.sleep(0.002)
            release(windows)

        monkeypatch.setattr(gateway.admission, "release", slow_release)
        try:
            for i in range(12):
                request = gateway.submit(windows[i:i + 1])
                request.result(5.0)
                assert gateway.admission.in_flight == 0
                assert gateway.breaker.snapshot()["window"] == i + 1
        finally:
            gateway.close()
