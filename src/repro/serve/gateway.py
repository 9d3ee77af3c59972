"""The serving front door: a resilient gateway in front of the batching engine.

Every caller — ``repro serve``, ``repro obs --checkpoint``, library code
— reaches the engine through :class:`ServingGateway`.  With the default
:class:`GatewayConfig` it is one ``default`` tenant with no quota.  Each
request has one :class:`~repro.serve.batching.InferenceRequest` handle
from the door to its result, and passes four stages, each with a typed
failure mode instead of a hang —

1. **Admission** (:class:`~repro.serve.admission.AdmissionController`):
   per-tenant token-bucket quotas (:class:`QuotaExceeded`) and a
   gateway-wide in-flight window budget (:class:`Overloaded`).  Shedding
   at the door is what keeps accepted-request latency bounded under
   overload — see ``BENCH_serve.json``'s overload rows for the
   alternative.
2. **Breaker** (:class:`~repro.serve.breaker.CircuitBreaker`): when the
   live model keeps failing or timing out, the breaker opens and the
   gateway degrades to cache hits — and, with ``stale_ok``, to entries
   computed by *previous* weights — instead of queueing doomed work.
   No degraded answer available means :class:`CircuitOpen` with a
   ``retry_after_s`` hint.
3. **Fair dispatch** (:class:`~repro.serve.admission.FairScheduler`):
   admitted requests drain to the engine in start-time-fair order, so a
   flooding tenant cannot starve a light one.
4. **Deadlines**: each request's ``deadline_ms`` rides into the engine,
   which refuses to start forwards on expired work
   (:class:`DeadlineExceeded`).

Like the engine, the gateway has a deterministic **deferred** mode
(``submit`` + ``flush``; tests, CLI batch scoring via
:meth:`~ServingGateway.serve_windows`) and a **threaded** mode
(``start``; a dispatcher thread drains the fair queue continuously
while the engine's own worker batches).  :meth:`~ServingGateway.report`
is the serving report: throughput, latency, cache, admission and shed
counters.

Rolling swaps (:meth:`begin_swap`) shadow-validate a candidate on
mirrored live traffic and flip the alias atomically — see
:mod:`repro.serve.swap` for the protocol.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import NULL_METRIC, get_registry
from ..telemetry import NULL_RUN
from .admission import (AdmissionController, DEFAULT_TENANT, FairScheduler,
                        TenantConfig)
from .batching import BatchingConfig, BatchingEngine, InferenceRequest
from .breaker import BreakerConfig, CircuitBreaker
from .cache import EmbeddingCache, input_digest
from .errors import (CircuitOpen, DeadlineExceeded, EngineClosed,
                     GatewayError, Overloaded, QuotaExceeded,
                     RetryableError, SwapFailed)
from .registry import LoadedModel, ModelRegistry
from .swap import ShadowValidator, SwapConfig, SwapHandle

__all__ = ["ServingGateway", "GatewayConfig"]

_SHED_REASONS = ("quota", "overload", "deadline", "circuit", "closed")


def _latency_summary(hist) -> dict:
    """``{count, mean_ms, p50_ms, p95_ms, max_ms}`` of one engine latency
    histogram (milliseconds) for the report.  ``count``, ``mean_ms`` and
    ``max_ms`` are exact; the percentiles are bucket-interpolated and
    clamped to the observed range, so ``p50 <= p95 <= max``."""
    snap = hist._snapshot()
    if not snap["count"]:
        return {"count": 0, "mean_ms": None, "p50_ms": None,
                "p95_ms": None, "max_ms": None}
    return {"count": int(snap["count"]),
            "mean_ms": float(snap["sum"] / snap["count"]),
            "p50_ms": float(hist.percentile(50)),
            "p95_ms": float(hist.percentile(95)),
            "max_ms": float(snap["max"])}


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway policy: tenants, budgets, degradation, engine geometry."""

    tenants: tuple = (TenantConfig(),)
    max_queue_windows: int = 1024
    default_deadline_ms: float | None = None
    shed_retry_after_s: float = 0.05
    stale_ok: bool = False
    breaker: BreakerConfig | None = field(default_factory=BreakerConfig)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    cache_size: int = 1024   # 0 disables the cache (and degraded serving)

    def __post_init__(self):
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0 (or None)")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")


class ServingGateway:
    """Multi-tenant front door over one engine + one registry alias."""

    def __init__(self, registry: ModelRegistry, alias: str = "serving",
                 config: GatewayConfig | None = None, run=None):
        self.registry = registry
        self.alias = alias
        self.config = config or GatewayConfig()
        self.run = run if run is not None else NULL_RUN
        loaded = registry.get(alias)   # RegistryError early if absent
        self.cache = (EmbeddingCache(self.config.cache_size)
                      if self.config.cache_size else None)
        self.admission = AdmissionController(
            self.config.tenants, max_queue_windows=self.config.max_queue_windows)
        self.scheduler = FairScheduler()
        self.breaker = (CircuitBreaker(self.config.breaker,
                                       on_transition=self._on_breaker)
                        if self.config.breaker is not None else None)
        # _state guards the engine flip of a swap, the dispatcher/closed
        # flags and the fair-queue wakeup; _counts the served, degraded
        # and shed counters.  The engine reference itself is read without
        # a lock: one attribute load sees the old engine or the new.
        self._state = threading.Condition()
        self._counts = threading.Lock()
        self._engine = BatchingEngine(loaded, self.config.batching,
                                      cache=self.cache)
        self._dispatcher: threading.Thread | None = None
        self._threaded = False
        self._closed = False
        self._windows_served = 0
        self._degraded_counts = {"cache": 0, "stale": 0}
        self._shed_counts = {reason: 0 for reason in _SHED_REASONS}
        self._started = time.perf_counter()
        # Swap machinery: one rolling swap at a time.
        self._swap_lock = threading.Lock()
        self._swap_handle: SwapHandle | None = None
        self._swap_alias: str | None = None
        self._obs = None

    # -- observability -----------------------------------------------------
    def _obs_handles(self):
        """Gateway metric families, memoized per registry generation.

        Families are resolved lazily (first gateway event), never by the
        canonical training workload — the golden exported-name set in
        tests/obs must not grow families that only exist when a gateway
        is serving.
        """
        memo = self._obs
        registry = get_registry()
        if memo is None or memo[0] is not registry:
            memo = (registry, {
                "requests": registry.counter(
                    "gateway_requests_total",
                    "Requests admitted through the gateway",
                    labels=("tenant",)),
                "shed": registry.counter(
                    "gateway_shed_total",
                    "Requests shed at the gateway door", labels=("reason",)),
                "degraded": registry.counter(
                    "gateway_degraded_total",
                    "Requests answered from cache while the breaker was open",
                    labels=("mode",)),
                "request_ms": registry.histogram(
                    "gateway_request_ms",
                    "Door-to-resolution latency", labels=("tenant",)),
                "queue_windows": registry.gauge(
                    "gateway_queue_windows",
                    "Windows admitted but not yet resolved").labels(),
                "breaker_state": registry.gauge(
                    "gateway_breaker_state",
                    "Circuit breaker state (0 closed, 1 half-open, 2 open)"
                ).labels(),
                "breaker_transitions": registry.counter(
                    "gateway_breaker_transitions_total",
                    "Circuit breaker state changes", labels=("to",)),
                "swap_verdicts": registry.counter(
                    "gateway_swap_verdicts_total",
                    "Shadow-validation verdicts", labels=("verdict",)),
                "swaps": registry.counter(
                    "gateway_swaps_total",
                    "Rolling swaps finalized", labels=("outcome",)),
                "tenants": {},
            })
            self._obs = memo
        return memo[1]

    @staticmethod
    def _tenant_metrics(handles, tenant: str):
        """``(requests, request_ms)`` children of one tenant, resolved
        once: they are touched on every request."""
        children = handles["tenants"].get(tenant)
        if children is None:
            children = handles["tenants"][tenant] = (
                handles["requests"].labels(tenant=tenant),
                handles["request_ms"].labels(tenant=tenant))
        return children

    # -- properties --------------------------------------------------------
    @property
    def loaded(self) -> LoadedModel:
        return self._engine.loaded

    @property
    def fingerprint(self) -> str:
        return self.loaded.fingerprint

    @property
    def closed(self) -> bool:
        return self._closed

    # -- submission --------------------------------------------------------
    def submit(self, x: np.ndarray, kind: str = "encode",
               tenant: str = DEFAULT_TENANT,
               deadline_ms: float | None = None) -> InferenceRequest:
        """Admit one request or raise a typed rejection at the door.

        Raises :class:`QuotaExceeded` / :class:`Overloaded` (both carry
        ``retry_after_s``), :class:`CircuitOpen` when the breaker is open
        and no degraded answer exists, :class:`DeadlineExceeded` for an
        already-dead deadline, :class:`EngineClosed` after ``close()``,
        and :class:`~repro.serve.ShapeMismatch` for bad geometry.
        Successful admission returns a handle that always resolves.
        """
        if self._closed:
            raise EngineClosed("gateway is closed; no new requests accepted")
        handles = self._obs_handles()
        loaded = self.loaded
        x = loaded.validate_input(x)
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline_s = (time.perf_counter() + deadline_ms / 1e3
                      if deadline_ms is not None else None)
        request = InferenceRequest(kind, x, deadline_s, on_done=self._settle,
                                   tenant=tenant)
        windows = request.windows
        try:
            tenant_config = self.admission.admit(
                tenant, windows, retry_after_s=self.config.shed_retry_after_s)
        except (QuotaExceeded, Overloaded) as error:
            reason = "quota" if isinstance(error, QuotaExceeded) else "overload"
            self._count_shed(reason, handles)
            raise
        self._tenant_metrics(handles, tenant)[0].inc()
        if self.breaker is not None and not self.breaker.allow():
            # Open breaker: the request never queues.  Serve from cache
            # (same-fingerprint hit, or any-fingerprint entry under
            # stale_ok) or shed with a retry hint.
            value, mode = self._degraded_lookup(loaded, x, kind)
            if mode is None:
                self.admission.release(windows)
                self._count_shed("circuit", handles)
                retry = self.breaker.retry_after_s() or self.config.shed_retry_after_s
                raise CircuitOpen(
                    f"circuit breaker open for alias {self.alias!r} and no "
                    f"cached answer for this input; retry in {retry:.3f}s",
                    retry_after_s=retry)
            request.degraded = mode
            with self._counts:
                self._degraded_counts[mode] += 1
            handles["degraded"].labels(mode=mode).inc()
            request._fulfil(value)
            return request
        with self._state:
            if self._closed:
                self.admission.release(windows)
                raise EngineClosed("gateway is closed; no new requests accepted")
            self.scheduler.enqueue(tenant, tenant_config.weight, windows,
                                   request)
            if self._threaded:
                self._state.notify_all()
        if handles["queue_windows"] is not NULL_METRIC:
            handles["queue_windows"].set(self.admission.in_flight)
        return request

    def encode(self, x: np.ndarray, tenant: str = DEFAULT_TENANT,
               deadline_ms: float | None = None):
        """Synchronous convenience: submit + (flush when deferred) + result."""
        request = self.submit(x, "encode", tenant=tenant,
                              deadline_ms=deadline_ms)
        if not self._threaded:
            self.flush()
        return request.result()

    def predict(self, x: np.ndarray, tenant: str = DEFAULT_TENANT,
                deadline_ms: float | None = None):
        request = self.submit(x, "predict", tenant=tenant,
                              deadline_ms=deadline_ms)
        if not self._threaded:
            self.flush()
        return request.result()

    def serve_windows(self, windows: np.ndarray, mode: str = "encode",
                      request_size: int = 1,
                      tenants: tuple = (DEFAULT_TENANT,)):
        """Batch mode: serve a whole ``(N, T, C)`` workload in order.

        The workload is split into one request per ``request_size``
        windows (the cache granularity), tenants taken round robin; the
        engine coalesces them back into micro-batches.  A request shed
        at the door is retried once, after the admitted backlog drains
        (deferred mode) or after its ``retry_after_s`` (threaded mode).
        Answers come back stacked in submission order, one row per input
        window: ``(timestamp, instance)`` for ``mode="encode"``, the
        predictions for ``"predict"``.  A workload with any request
        still refused or expired raises :class:`GatewayError` rather
        than return a stack that no longer lines up with the input
        (``report()`` counts the shed requests).
        """
        if request_size < 1:
            raise ValueError("request_size must be >= 1")
        if request_size > self.config.max_queue_windows:
            raise ValueError(
                f"request_size {request_size} exceeds the gateway's "
                f"in-flight budget of {self.config.max_queue_windows} "
                f"windows; no request of that size can be admitted")
        windows = np.asarray(windows)
        pending = []
        failures = []
        # One root trace per workload: every request below derives its
        # context from this span, so the whole pass shares one trace_id
        # through gateway, engine, worker thread, and cache.
        with self.run.span("serve_windows", mode=mode,
                           windows=int(windows.shape[0])):
            for index, start in enumerate(
                    range(0, windows.shape[0], request_size)):
                x = windows[start:start + request_size]
                tenant = tenants[index % len(tenants)]
                for attempt in range(2):
                    try:
                        pending.append(self.submit(x, mode, tenant=tenant))
                        break
                    except RetryableError as error:
                        if attempt:
                            failures.append(error)
                            break
                        if self._threaded:
                            time.sleep(error.retry_after_s)
                        else:
                            self.flush()
            if not self._threaded:
                self.flush()
            answers = []
            for request in pending:
                try:
                    answers.append(request.result())
                except (RetryableError, DeadlineExceeded) as error:
                    failures.append(error)
        if failures:
            raise GatewayError(
                f"{len(failures)} of {len(failures) + len(answers)} requests "
                f"went unanswered (first: {failures[0]}); no partial "
                f"result is returned") from failures[0]
        if not answers:
            return None
        if mode == "encode":
            return (np.concatenate([a[0] for a in answers]),
                    np.concatenate([a[1] for a in answers]))
        return np.concatenate(answers)

    # -- dispatch ----------------------------------------------------------
    def _pump(self) -> int:
        """Drain the fair queue into the engine; returns requests moved."""
        moved = 0
        while True:
            popped = self.scheduler.pop()
            if popped is None:
                return moved
            _, __, request = popped
            now = time.perf_counter()
            if request.expired(now):
                # Expired while waiting in the *gateway* fair queue — the
                # engine never sees it, and waited_ms reflects the full
                # door-to-expiry wait.
                waited_ms = (now - request.submitted) * 1e3
                request._fulfil(None, DeadlineExceeded(
                    f"deadline expired after {waited_ms:.1f}ms in the "
                    "gateway queue, before dispatch", waited_ms=waited_ms))
                continue
            try:
                self._engine.submit(request.x, request.kind, request=request)
                moved += 1
            except BaseException as error:
                request._fulfil(None, error)

    def flush(self) -> int:
        """Deferred mode: fair-dispatch and run everything queued.

        Returns the number of requests the engine fulfilled.  A rolling
        swap may flip the engine mid-flush (a promote finalizing inside
        an ``on_done`` callback); the loop re-reads the engine reference
        so post-flip requests run on the new model.
        """
        fulfilled = 0
        while True:
            self._pump()
            drained = self._engine.flush()
            fulfilled += drained
            if drained == 0 and len(self.scheduler) == 0:
                return fulfilled

    def start(self) -> "ServingGateway":
        """Threaded mode: engine worker + gateway dispatcher (idempotent)."""
        if self._closed:
            raise EngineClosed("gateway is closed; cannot start")
        with self._state:
            self._threaded = True
            self._engine.start()
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name="serve-gateway",
                    daemon=True)
                self._dispatcher.start()
        return self

    def _dispatch_loop(self) -> None:
        while True:
            with self._state:
                while len(self.scheduler) == 0 and not self._closed:
                    self._state.wait()
                if self._closed and len(self.scheduler) == 0:
                    return
            self._pump()

    def _settle(self, request: InferenceRequest) -> None:
        """Accounting for a resolved request, run by the handle before its
        caller wakes: admission release, breaker record, latency, then
        mirroring of live answers to an in-flight swap."""
        handles = self._obs_handles()
        error = request.error
        if isinstance(error, DeadlineExceeded):
            self._count_shed("deadline", handles)
        elif error is None:
            with self._counts:
                self._windows_served += request.windows
        self.admission.release(request.windows)
        if (self.breaker is not None and request.degraded is None
                and not isinstance(error, EngineClosed)):
            # DeadlineExceeded counts as a failure on purpose: a model
            # (or host) too slow to answer inside the deadline is as
            # unavailable as one that raises.
            self.breaker.record(error is None)
        self._tenant_metrics(handles, request.tenant)[1].observe(
            (time.perf_counter() - request.submitted) * 1e3)
        if handles["queue_windows"] is not NULL_METRIC:
            handles["queue_windows"].set(self.admission.in_flight)
        if error is None and request.degraded is None:
            self._mirror(request.x, request.kind, request._value)
        request.x = None

    def _count_shed(self, reason: str, handles) -> None:
        with self._counts:
            self._shed_counts[reason] += 1
        handles["shed"].labels(reason=reason).inc()

    def _degraded_lookup(self, loaded: LoadedModel, x: np.ndarray,
                         kind: str):
        if self.cache is None:
            return None, None
        digest = input_digest(x)
        hit = self.cache.get(loaded.fingerprint, digest, kind)
        if hit is not None:
            return hit, "cache"
        if self.config.stale_ok:
            stale = self.cache.get_stale(digest, kind)
            if stale is not None:
                return stale, "stale"
        return None, None

    def _on_breaker(self, old: str, new: str) -> None:
        handles = self._obs_handles()
        handles["breaker_transitions"].labels(to=new).inc()
        handles["breaker_state"].set(
            {"closed": 0, "half_open": 1, "open": 2}[new])
        if getattr(self.run, "enabled", False):
            self.run.emit("breaker", alias=self.alias, old=old, new=new)

    # -- rolling swap ------------------------------------------------------
    def begin_swap(self, source, config: SwapConfig | None = None,
                   run_root="results/runs") -> SwapHandle:
        """Start a rolling swap to the checkpoint at ``source``.

        Loads and geometry-checks the candidate, then mirrors fulfilled
        live traffic through it (see :mod:`repro.serve.swap`).  The
        returned handle resolves — promote or rollback — once enough
        mirrors are scored; live serving never pauses.  Only one swap
        may be in flight (:class:`SwapFailed` otherwise).
        """
        config = config or SwapConfig()
        staging = config.candidate_alias or f"{self.alias}-candidate"
        with self._swap_lock:
            if self._swap_handle is not None and not self._swap_handle.done():
                raise SwapFailed(
                    f"a swap to {self._swap_alias!r} is already in flight")
            candidate = self.registry.load(source, alias=staging,
                                           run_root=run_root)
            active = self.loaded
            expected = (active.config.seq_len, active.config.input_channels)
            got = (candidate.config.seq_len, candidate.config.input_channels)
            if got != expected:
                self.registry.unload(staging)
                raise SwapFailed(
                    f"candidate geometry (seq_len, channels)={got} does not "
                    f"match the serving alias {expected}; refusing to swap")
            validator = ShadowValidator(
                candidate, config, threaded=self._threaded,
                on_verdict=self._on_verdict, on_complete=self._finalize_swap)
            handle = SwapHandle(candidate, validator)
            self._swap_handle = handle
            self._swap_alias = staging
            if getattr(self.run, "enabled", False):
                self.run.emit("swap", phase="shadow", alias=self.alias,
                              candidate=candidate.fingerprint,
                              source=str(source),
                              shadow_requests=config.shadow_requests)
            return handle

    def _mirror(self, x: np.ndarray, kind: str, value) -> None:
        handle = self._swap_handle
        if handle is None or handle.done():
            return
        handle.validator.observe(x, kind, value)

    def _on_verdict(self, verdict) -> None:
        outcome = "pass" if verdict.passed else "fail"
        self._obs_handles()["swap_verdicts"].labels(verdict=outcome).inc()
        if getattr(self.run, "enabled", False):
            self.run.emit("swap_shadow", alias=self.alias,
                          **verdict.as_dict())

    def _finalize_swap(self, validator: ShadowValidator,
                       force_rollback: bool = False) -> None:
        """Promote or roll back once shadow validation completes.

        Runs on whichever thread scored the deciding verdict (the shadow
        worker when threaded, the flushing thread when deferred); holds
        no gateway locks while draining the old engine, so in-flight
        requests resolve normally throughout the flip.
        """
        with self._swap_lock:
            handle = self._swap_handle
            staging = self._swap_alias
        if handle is None or handle.validator is not validator:
            return
        promoted = not validator.failed and not force_rollback
        candidate = handle.candidate
        previous = self.loaded
        if promoted:
            new_engine = BatchingEngine(candidate, self.config.batching,
                                        cache=self.cache)
            with self._state:
                old_engine = self._engine
                self._engine = new_engine
                if self._threaded:
                    new_engine.start()
            # In-flight requests finish on the old weights; the drain
            # happens off every gateway lock so nothing stalls.
            old_engine.close(drain=True)
            self.registry.promote(self.alias, candidate)
        self.registry.unload(staging)
        validator.close()
        outcome = "promoted" if promoted else "rolled_back"
        report = {"outcome": outcome, "alias": self.alias,
                  "previous_fingerprint": previous.fingerprint,
                  "candidate_fingerprint": candidate.fingerprint,
                  "serving_fingerprint": self.fingerprint,
                  "shadow": validator.summary()}
        handles = self._obs_handles()
        handles["swaps"].labels(outcome=outcome).inc()
        if getattr(self.run, "enabled", False):
            self.run.emit("swap", phase="final", **{
                key: value for key, value in report.items() if key != "shadow"},
                mirrored=report["shadow"]["mirrored"],
                failed=report["shadow"]["failed"])
        handle._finish(report)

    def abort_swap(self) -> dict | None:
        """Cancel an in-flight swap (rollback); returns its report."""
        with self._swap_lock:
            handle = self._swap_handle
        if handle is None or handle.done():
            return None
        validator = handle.validator
        with validator._lock:
            validator._complete = True   # no further verdicts score
        self._finalize_swap(validator, force_rollback=True)
        return handle.report

    # -- shutdown ----------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Shut the gateway down; every admitted request resolves.

        ``drain=True`` serves queued work first; ``drain=False`` fails it
        with :class:`EngineClosed`.  An in-flight swap is aborted (rolled
        back).  Idempotent; submissions after close raise
        :class:`EngineClosed`.
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
            self._state.notify_all()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join()
            self._dispatcher = None
        handles = self._obs_handles()
        if drain:
            self._pump()
        else:
            error = EngineClosed("gateway closed before the request ran")
            for _, __, request in self.scheduler.drain():
                self._count_shed("closed", handles)
                request._fulfil(None, error)
        self.abort_swap()
        engine = self._engine
        engine.close(drain=drain)
        if drain:
            # Anything the dispatcher left between its exit and the
            # engine close (submit raced the shutdown) still resolves.
            self._pump()
            engine.flush()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting ---------------------------------------------------------
    def report(self) -> dict:
        """One consistent status snapshot (CLI, telemetry, tests).

        ``throughput`` counts the windows answered since construction.
        With an enabled telemetry run, the headline numbers also land
        there as a ``metric`` event (``serve_report``).
        """
        elapsed = time.perf_counter() - self._started
        engine = self._engine
        with self._counts:
            windows = self._windows_served
            degraded = dict(self._degraded_counts)
            shed = dict(self._shed_counts)
        swap_handle = self._swap_handle
        latency = {kind: _latency_summary(hist)
                   for kind, hist in engine.latency.items()}
        cache = self.cache.stats().as_dict() if self.cache else None
        report = {
            "alias": self.alias,
            "fingerprint": engine.loaded.fingerprint,
            "closed": self._closed,
            "threaded": self._threaded,
            "throughput": {
                "windows": windows,
                "elapsed_s": elapsed,
                "windows_per_s": windows / elapsed if elapsed > 0 else None,
            },
            "admission": self.admission.counters(),
            "dispatched_windows": dict(self.scheduler.dispatched),
            "queued_requests": len(self.scheduler),
            "shed": shed,
            "degraded": degraded,
            "breaker": self.breaker.snapshot() if self.breaker else None,
            "engine": engine.stats(),
            "latency": latency,
            "cache": cache,
            "swap": (swap_handle.report or
                     {"outcome": "shadowing",
                      "shadow": swap_handle.validator.summary()})
                    if swap_handle is not None else None,
        }
        if getattr(self.run, "enabled", False):
            payload = {"windows_per_s": report["throughput"]["windows_per_s"],
                       "batches_run": report["engine"]["batches_run"]}
            for kind, summary in latency.items():
                if summary["count"]:
                    payload[f"{kind}_p50_ms"] = summary["p50_ms"]
                    payload[f"{kind}_p95_ms"] = summary["p95_ms"]
            if cache is not None:
                payload["cache_hit_rate"] = cache["hit_rate"]
            self.run.emit("metric", metric="serve_report", **payload)
        return report
