"""Labeled metric primitives and the process-wide :class:`MetricsRegistry`.

Three metric kinds, deliberately Prometheus-shaped so the exposition
exporter (:mod:`repro.obs.export`) is a straight serialization:

* :class:`Counter` — monotonically increasing totals (requests served,
  batches run, cache hits);
* :class:`Gauge` — point-in-time values that go both ways (queue depth,
  resident memory, hit rate);
* :class:`Histogram` — **fixed-bucket streaming** distributions: each
  observation lands in one of a constant set of buckets, so memory is
  O(buckets) no matter how many samples arrive, and percentiles come
  from bucket interpolation (exact ``count``/``sum``/``min``/``max``,
  approximate ``p50``/``p95``).

Every metric is a *family*: ``family.labels(kind="encode")`` returns the
child time-series for one label combination; calling ``inc``/``set``/
``observe`` on the family itself addresses the label-less child.  All
mutation is thread-safe (one lock per family — serving's worker thread
and caller threads hit the same counters).

The process-wide registry is off by default.  :func:`get_registry`
returns the shared :data:`NULL_REGISTRY` until :func:`enable` is called
(or the ``REPRO_OBS`` environment variable is set), and every null
primitive is a shared no-op singleton — the disabled path allocates
nothing and does no locking, mirroring the telemetry ``NullRun`` and
profiler disabled-is-free contracts.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_REGISTRY", "NullMetric", "NullRegistry",
    "enable", "disable", "enabled", "get_registry", "set_registry",
    "DEFAULT_LATENCY_BUCKETS_MS", "DEFAULT_SECONDS_BUCKETS",
]

# Upper bucket bounds for millisecond-scale latencies (serving requests)
# and second-scale durations (epochs, checkpoint writes).  A final +Inf
# bucket is implicit in every histogram.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0)
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0)

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Family:
    """Shared machinery: one named metric with labeled children."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "", label_names: tuple = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels):
        """The child time-series for one label combination (created lazily).

        Existing children resolve with a lock-free dict read (safe under
        the GIL: ``_children`` only ever grows) — this is the per-sample
        hot path for every instrumented call site.  Validation and
        creation happen once, on the locked miss path.
        """
        key = _label_key(labels)
        child = self._children.get(key)
        if child is not None:
            return child
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def _default(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labeled {self.label_names}; "
                "address a child via .labels(...)")
        return self.labels()

    def _make_child(self):
        raise NotImplementedError

    def series(self) -> list[tuple[dict, object]]:
        """``[(labels_dict, child), ...]`` snapshot of existing children."""
        with self._lock:
            return [(dict(key), child)
                    for key, child in list(self._children.items())]

    def snapshot(self) -> dict:
        return {"kind": self.kind, "help": self.help,
                "label_names": list(self.label_names),
                "series": [{"labels": labels, **child._snapshot()}
                           for labels, child in self.series()]}


class _CounterChild:
    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> dict:
        return {"value": self._value}


class Counter(_Family):
    """Monotonically increasing total, optionally split by labels."""

    kind = "counter"

    def _make_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        """Sum over every labeled child (the family total)."""
        return sum(child.value for __, child in self.series())


class _GaugeChild:
    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> dict:
        return {"value": self._value}


class Gauge(_Family):
    """Point-in-time value that can rise and fall."""

    kind = "gauge"

    def _make_child(self):
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        series = self.series()
        return series[0][1].value if len(series) == 1 else sum(
            child.value for __, child in series)


class _HistogramChild:
    """Fixed-bucket streaming histogram: O(buckets) memory forever."""

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_min", "_max",
                 "_lock")

    def __init__(self, bounds: tuple):
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # -- reads ------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile via linear bucket interpolation.

        Exact at the edges (clamped to the observed min/max); inside a
        bucket the mass is assumed uniform.  NaN when empty.
        """
        with self._lock:
            if not self._count:
                return float("nan")
            counts = list(self._counts)
            count, low, high = self._count, self._min, self._max
        rank = (q / 100.0) * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = low if index == 0 else self._bounds[index - 1]
                upper = high if index == len(self._bounds) else self._bounds[index]
                lower = max(lower, low)
                upper = min(upper, high)
                if upper <= lower:
                    return float(lower)
                fraction = (rank - cumulative) / bucket_count
                return float(lower + (upper - lower) * min(max(fraction, 0.0), 1.0))
            cumulative += bucket_count
        return float(high)

    def merge(self, other: "_HistogramChild") -> None:
        if other._bounds != self._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        self.merge_snapshot(other._snapshot())

    def merge_snapshot(self, snapshot: dict) -> None:
        """Add one :meth:`_snapshot` of a child with these buckets."""
        counts = [count for __, count in snapshot["buckets"]]
        if len(counts) != len(self._counts):
            raise ValueError("cannot merge histograms with different buckets")
        with self._lock:
            for index, bucket_count in enumerate(counts):
                self._counts[index] += bucket_count
            self._count += snapshot["count"]
            self._sum += snapshot["sum"]
            if snapshot["count"]:
                self._min = min(self._min, snapshot["min"])
                self._max = max(self._max, snapshot["max"])

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def _snapshot(self) -> dict:
        with self._lock:
            return {"count": self._count, "sum": self._sum,
                    "min": (None if not self._count else self._min),
                    "max": (None if not self._count else self._max),
                    "buckets": list(zip(list(self._bounds) + ["+Inf"],
                                        list(self._counts)))}


class Histogram(_Family):
    """Streaming distribution over fixed buckets (see module docstring)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", label_names: tuple = (),
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS_MS):
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def count(self) -> int:
        return sum(child.count for __, child in self.series())

    def percentile(self, q: float) -> float:
        return self._default().percentile(q)


_FAMILY_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe, process-wide home for metric families.

    ``counter/gauge/histogram`` are get-or-create: the first call with a
    name defines the family, later calls return the same object (a kind
    or label mismatch raises — two subsystems silently sharing one name
    with different schemas is a bug worth failing loudly on).
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()
        self.created_unix = time.time()

    # -- family accessors -------------------------------------------------
    def counter(self, name: str, help: str = "",
                labels: tuple = ()) -> Counter:
        return self._get_or_create("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> Gauge:
        return self._get_or_create("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "", labels: tuple = (),
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS_MS) -> Histogram:
        return self._get_or_create("histogram", name, help, labels,
                                   buckets=buckets)

    def _get_or_create(self, kind: str, name: str, help: str,
                       labels: tuple, **kwargs) -> _Family:
        labels = tuple(labels)
        # Lock-free fast path for the overwhelmingly common re-lookup
        # (instrumented call sites re-resolve their family per sample).
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    factory = _FAMILY_TYPES[kind]
                    family = factory(name, help=help, label_names=labels,
                                     **kwargs)
                    self._families[name] = family
                    return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"requested {kind}")
        if family.label_names != labels:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.label_names}, requested {labels}")
        return family

    # -- introspection ----------------------------------------------------
    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def snapshot(self) -> dict:
        """JSON-able dump of every family and child (the export substrate)."""
        return {family.name: family.snapshot() for family in self.families()}

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


# ---------------------------------------------------------------------------
# Disabled path: shared no-op singletons, zero allocation per call site.
# ---------------------------------------------------------------------------
class NullMetric:
    """One object standing in for every metric kind when obs is off."""

    __slots__ = ()
    count = 0
    value = 0.0
    sum = 0.0

    def labels(self, **labels) -> "NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return float("nan")


NULL_METRIC = NullMetric()


class NullRegistry:
    """Do-nothing registry returned by :func:`get_registry` when disabled."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str, help: str = "", labels: tuple = ()) -> NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, help: str = "", labels: tuple = (),
                  buckets: tuple = ()) -> NullMetric:
        return NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def families(self) -> list:
        return []

    def names(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}

    def clear(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_registry: MetricsRegistry | None = None
_state_lock = threading.Lock()


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (or create) the process-wide registry and switch obs on."""
    global _registry
    with _state_lock:
        if registry is not None:
            _registry = registry
        elif _registry is None:
            _registry = MetricsRegistry()
        return _registry


def disable() -> None:
    """Switch obs off; instrumented call sites fall back to no-ops."""
    global _registry
    with _state_lock:
        _registry = None


def set_registry(registry: MetricsRegistry | None) -> None:
    """Test hook: install an explicit registry (or ``None`` to disable)."""
    global _registry
    with _state_lock:
        _registry = registry


def enabled() -> bool:
    return _registry is not None


def get_registry():
    """The live :class:`MetricsRegistry`, or :data:`NULL_REGISTRY` when off.

    Instrumented code calls this at *use* time (not import time), so
    enabling observability mid-process takes effect everywhere at the
    next operation.
    """
    return _registry if _registry is not None else NULL_REGISTRY


# Opt-in via environment for processes that never touch the CLI flags
# (spawned workers, notebooks): REPRO_OBS=1 enables at import.
if os.environ.get("REPRO_OBS", "").strip() not in ("", "0", "false", "no"):
    enable()
