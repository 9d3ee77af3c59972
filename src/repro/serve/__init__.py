"""Checkpoint-backed inference serving (``repro serve``).

Components:

* :mod:`~repro.serve.api` — the :class:`InferenceAPI` protocol
  (``encode`` / ``predict``) every servable model implements.
* :mod:`~repro.serve.registry` — :class:`ModelRegistry`: load models
  from :class:`~repro.checkpoint.CheckpointManager` archives into a
  warm pool, validate request shapes against the checkpoint's data spec.
* :mod:`~repro.serve.cache` — :class:`EmbeddingCache`: LRU cache of
  embeddings keyed by (model fingerprint, input digest).
* :mod:`~repro.serve.batching` — :class:`BatchingEngine`: coalesces
  queued requests into dynamic micro-batches under eval + no-grad and
  records each request's latency into one ``repro.obs`` histogram child
  per request kind; :class:`InferenceRequest` is the one handle each
  request has.
* :mod:`~repro.serve.errors` — the typed gateway error taxonomy
  (:class:`Overloaded`, :class:`QuotaExceeded`, :class:`DeadlineExceeded`,
  :class:`CircuitOpen`, :class:`EngineClosed`, :class:`SwapFailed`).
* :mod:`~repro.serve.admission` — per-tenant token-bucket quotas and
  start-time fair queuing (:class:`AdmissionController`,
  :class:`FairScheduler`).
* :mod:`~repro.serve.breaker` — :class:`CircuitBreaker` with jittered
  half-open probing.
* :mod:`~repro.serve.gateway` — :class:`ServingGateway`: the one front
  door (admission, deadlines, breaker, rolling swap, batch mode and the
  serving report); one ``default`` tenant with no quota unless
  configured otherwise.
* :mod:`~repro.serve.swap` — shadow validation and the zero-downtime
  swap protocol.

Everything beyond :mod:`api` is imported lazily (PEP 562): ``core`` and
``baselines`` import :mod:`repro.serve.api` for the protocol types, and
the heavy serving modules import ``core`` back — laziness breaks the
cycle.
"""

from __future__ import annotations

import importlib

from .api import InferenceAPI, InferenceUnsupported

__all__ = [
    "InferenceAPI",
    "InferenceUnsupported",
    "ModelRegistry",
    "LoadedModel",
    "RegistryError",
    "ShapeMismatch",
    "EmbeddingCache",
    "CacheStats",
    "BatchingEngine",
    "BatchingConfig",
    "InferenceRequest",
    "GatewayError",
    "RetryableError",
    "Overloaded",
    "QuotaExceeded",
    "DeadlineExceeded",
    "CircuitOpen",
    "EngineClosed",
    "SwapFailed",
    "TenantConfig",
    "TokenBucket",
    "AdmissionController",
    "FairScheduler",
    "DEFAULT_TENANT",
    "CircuitBreaker",
    "BreakerConfig",
    "ServingGateway",
    "GatewayConfig",
    "SwapConfig",
    "ShadowValidator",
    "ShadowVerdict",
    "SwapHandle",
]

_LAZY = {
    "ModelRegistry": ".registry",
    "LoadedModel": ".registry",
    "RegistryError": ".registry",
    "ShapeMismatch": ".registry",
    "EmbeddingCache": ".cache",
    "CacheStats": ".cache",
    "BatchingEngine": ".batching",
    "BatchingConfig": ".batching",
    "InferenceRequest": ".batching",
    "GatewayError": ".errors",
    "RetryableError": ".errors",
    "Overloaded": ".errors",
    "QuotaExceeded": ".errors",
    "DeadlineExceeded": ".errors",
    "CircuitOpen": ".errors",
    "EngineClosed": ".errors",
    "SwapFailed": ".errors",
    "TenantConfig": ".admission",
    "TokenBucket": ".admission",
    "AdmissionController": ".admission",
    "FairScheduler": ".admission",
    "DEFAULT_TENANT": ".admission",
    "CircuitBreaker": ".breaker",
    "BreakerConfig": ".breaker",
    "ServingGateway": ".gateway",
    "GatewayConfig": ".gateway",
    "SwapConfig": ".swap",
    "ShadowValidator": ".swap",
    "ShadowVerdict": ".swap",
    "SwapHandle": ".swap",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
