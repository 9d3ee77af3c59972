"""Request-latency accounting for the serving engine.

A :class:`LatencyHistogram` is a streaming recorder of per-request
latencies; the engine keeps one per request kind, and
:meth:`repro.serve.ServingGateway.report` summarises them in the report
``repro serve`` emits (format in ``docs/serving.md``).

Storage is a fixed-bucket streaming histogram
(:class:`repro.obs.metrics._HistogramChild`): memory stays O(buckets)
no matter how long the engine runs, instead of the raw-sample list that
previously grew without bound under sustained traffic.  ``count``,
``mean_ms``, and ``max_ms`` stay exact; ``p50_ms``/``p95_ms`` become
bucket-interpolated (clamped to the observed min/max, so the
``p50 <= p95 <= max`` report invariant holds).
"""

from __future__ import annotations

from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, _HistogramChild

__all__ = ["LatencyHistogram"]

# The engine records seconds; buckets (and the report) are milliseconds.
_BUCKETS_MS = DEFAULT_LATENCY_BUCKETS_MS


class LatencyHistogram:
    """Streaming per-request latency recorder with percentile summaries.

    Records samples in seconds and summarises them as milliseconds —
    serving latencies at this scale are single-digit milliseconds, and
    the report format keeps one unit throughout.  Thread-safe: the
    engine's worker thread and caller threads may record concurrently.
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self._hist = _HistogramChild(tuple(_BUCKETS_MS))

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency must be non-negative")
        self._hist.observe(float(seconds) * 1e3)

    @property
    def count(self) -> int:
        return self._hist.count

    def percentile(self, q: float) -> float:
        """q-th percentile in milliseconds (NaN when empty)."""
        return self._hist.percentile(q)

    def summary(self) -> dict:
        """``{count, mean_ms, p50_ms, p95_ms, max_ms}`` for the report."""
        snap = self._hist._snapshot()
        if not snap["count"]:
            return {"count": 0, "mean_ms": None, "p50_ms": None,
                    "p95_ms": None, "max_ms": None}
        return {"count": int(snap["count"]),
                "mean_ms": float(snap["sum"] / snap["count"]),
                "p50_ms": float(self._hist.percentile(50)),
                "p95_ms": float(self._hist.percentile(95)),
                "max_ms": float(snap["max"])}

    def merge(self, other: "LatencyHistogram") -> None:
        self._hist.merge(other._hist)

    def reset(self) -> None:
        self._hist.reset()
