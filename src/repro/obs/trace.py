"""Request-scoped tracing: ids, context propagation, and the span log.

A :class:`TraceContext` is the ``(trace_id, span_id, parent_id)`` triple
every observability-aware subsystem shares.  It lives in a
``contextvars.ContextVar``, so it follows the logical request — through
nested calls, generators, and (explicitly, via :func:`activate`) across
thread boundaries like the serving engine's submit→worker hand-off.

:class:`Span` is the one timed-region primitive: it derives a child
context, makes it current, times the region once (``seconds``), and
(when obs is enabled) appends a :class:`SpanRecord` with that reading
to the process-wide bounded :class:`TraceLog`.  While the op profiler
is active it is also a ``repro.nn.profiler`` scope of the same name.
:func:`span` opens one when obs is enabled and is a shared no-op
otherwise; :meth:`repro.telemetry.Run.span` subclasses it to also
write the run's ``span_start``/``span_end`` events, so a training span
is timed once for the run, the trace log and its caller, and serve
traces opened inside a run nest under it.  :func:`record_span` is the
scope-less emitter for per-request hot paths.

Id scheme: ``trace_id`` is 32 hex chars, ``span_id`` 16 hex chars (the
W3C trace-context widths).  Ids are minted from a per-process random
base combined with a shared atomic counter: unique for the life of the
process (the hot serve path opens two spans per request, and ``uuid4``'s
per-call ``os.urandom`` syscall was the single largest obs overhead),
and still globally distinct across processes through the random base.
"""

from __future__ import annotations

import contextvars
import itertools
import random
import threading
import time
from collections import deque

from ..nn import profiler
from .metrics import enabled

__all__ = [
    "TraceContext", "SpanRecord", "TraceLog", "Span",
    "current", "child_context", "new_context", "set_current", "reset",
    "activate", "span", "record_span", "trace_log", "current_trace_id",
]

TRACE_LOG_CAPACITY = 4096


class TraceContext:
    """One hop of a trace: this span's id plus its lineage.

    A slotted plain class, not a dataclass — one is built per span on
    the serving hot path, and slotted attribute assignment is several
    times cheaper than a frozen dataclass's ``object.__setattr__`` init.
    Treat instances as immutable.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: str | None = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, parent_id={self.parent_id!r})")

    def child(self) -> "TraceContext":
        return TraceContext(trace_id=self.trace_id, span_id=_new_span_id(),
                            parent_id=self.span_id)

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}


# XOR of a fixed random base with a monotone counter is a bijection on
# the masked width, so ids never repeat until the counter wraps (2^64
# spans).  ``itertools.count`` advances atomically under the GIL, which
# keeps minting lock-free for concurrent submitters.
_ID_COUNTER = itertools.count(1)
_TRACE_BASE = random.SystemRandom().getrandbits(128)
_SPAN_BASE = _TRACE_BASE & 0xFFFFFFFFFFFFFFFF


def _new_trace_id() -> str:
    # %-formatting beats format() by ~40% here, and ids are minted twice
    # per serve request.
    return "%032x" % (_TRACE_BASE ^ next(_ID_COUNTER))


def _new_span_id() -> str:
    return "%016x" % (_SPAN_BASE ^ (next(_ID_COUNTER)
                                    & 0xFFFFFFFFFFFFFFFF))


_CURRENT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None)

# Unix-epoch anchor for the monotonic clock: span records carry a
# wall-clock start derived as anchor + perf_counter, saving one clock
# call per span.  Wall/monotonic drift (NTP steps) shifts start_unix
# slightly; durations stay exact because they are pure perf_counter.
_UNIX_ANCHOR = time.time() - time.perf_counter()


def current() -> TraceContext | None:
    """The active trace context of this thread/task, if any."""
    return _CURRENT.get()


def current_trace_id() -> str | None:
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


def new_context() -> TraceContext:
    """A fresh root context (new trace_id, no parent)."""
    return TraceContext(trace_id=_new_trace_id(), span_id=_new_span_id())


def child_context() -> TraceContext:
    """A child of the current context, or a fresh root when none is active."""
    ctx = _CURRENT.get()
    return ctx.child() if ctx is not None else new_context()


def set_current(ctx: TraceContext | None) -> contextvars.Token:
    """Make ``ctx`` current; returns the token for :func:`reset`."""
    return _CURRENT.set(ctx)


def reset(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


class _Activation:
    """Adopt a propagated context (e.g. on the engine's worker thread)."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: TraceContext | None):
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> TraceContext | None:
        self._token = _CURRENT.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info) -> bool:
        _CURRENT.reset(self._token)
        return False


def activate(ctx: TraceContext | None) -> _Activation:
    """``with activate(request.trace):`` — cross-thread propagation."""
    return _Activation(ctx)


class SpanRecord:
    """One completed span as stored in the :class:`TraceLog`.

    Slotted plain class for the same hot-path reason as
    :class:`TraceContext`: two of these are built per serve request.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "thread",
                 "start_unix", "seconds", "attrs")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, thread: str, start_unix: float,
                 seconds: float, attrs: dict | None = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.start_unix = start_unix
        self.seconds = seconds
        self.attrs = {} if attrs is None else attrs

    def as_dict(self) -> dict:
        return {"name": self.name, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "thread": self.thread, "start_unix": self.start_unix,
                "seconds": self.seconds, "attrs": dict(self.attrs)}


class TraceLog:
    """Bounded, thread-safe ring buffer of completed spans."""

    def __init__(self, capacity: int = TRACE_LOG_CAPACITY):
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def spans(self, trace_id: str | None = None,
              name: str | None = None) -> list[SpanRecord]:
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def trace_ids(self) -> list[str]:
        seen: list[str] = []
        for record in self.spans():
            if record.trace_id not in seen:
                seen.append(record.trace_id)
        return seen

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_TRACE_LOG = TraceLog()


def trace_log() -> TraceLog:
    """The process-wide span log (bounded; oldest spans fall off)."""
    return _TRACE_LOG


class _NullSpan:
    """Reusable no-op scope for the disabled path."""

    __slots__ = ()
    ctx = None
    seconds = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region: ``with Span("epoch", {}) as s: ...; s.seconds``.

    Times the region once and feeds every consumer from that reading:
    ``seconds`` for the caller and the trace log (when obs is enabled).
    While the profiler is active the span is also a profiler scope
    named ``name``, which keeps the profiler's own self-time books.
    Subclasses hook :meth:`_opened` (the context is current, the clock
    not yet started) and :meth:`_closed` (the clock stopped, the context
    reset) — :class:`repro.telemetry.Run` writes its events there.
    """

    __slots__ = ("name", "attrs", "ctx", "seconds", "_token", "_start",
                 "_scope")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.ctx: TraceContext | None = None
        self.seconds: float | None = None
        self._token = None
        self._start = 0.0
        self._scope = None

    def __enter__(self) -> "Span":
        self.ctx = child_context()
        self._token = _CURRENT.set(self.ctx)
        self._opened()
        if profiler.is_active():
            self._scope = profiler.scope(self.name)
            self._scope.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start
        if self._scope is not None:
            self._scope.__exit__(exc_type, exc, tb)
            self._scope = None
        _CURRENT.reset(self._token)
        error = None if exc_type is None else exc_type.__name__
        self._closed(error)
        if enabled():
            attrs = self.attrs if error is None else {**self.attrs,
                                                      "error": error}
            ctx = self.ctx
            _TRACE_LOG.record(SpanRecord(
                name=self.name, trace_id=ctx.trace_id,
                span_id=ctx.span_id, parent_id=ctx.parent_id,
                thread=threading.current_thread().name,
                start_unix=_UNIX_ANCHOR + self._start, seconds=self.seconds,
                attrs=attrs))
        return False

    def _opened(self) -> None:
        pass

    def _closed(self, error: str | None) -> None:
        pass


def span(name: str, **attrs):
    """Trace one region: ``with span("engine.submit", kind="encode"):``.

    When obs is disabled this is a shared no-op — no ids are minted, no
    contextvar is touched, no clock is read, nothing is recorded.
    """
    if not enabled():
        return _NULL_SPAN
    return Span(name, attrs)


def record_span(name: str, ctx: TraceContext, start_perf: float,
                **attrs) -> None:
    """Low-level span emission for per-request hot paths.

    Equivalent to a completed :func:`span` over ``ctx`` that started at
    ``start_perf`` (a ``time.perf_counter`` value), but without the
    scope object, contextvar set/reset, or token — for call sites like
    the batching engine where no nested span ever derives from the
    region, so making the context *current* buys nothing.  The caller
    is responsible for gating on :func:`repro.obs.metrics.enabled`.
    """
    seconds = time.perf_counter() - start_perf
    _TRACE_LOG.record(SpanRecord(
        name=name, trace_id=ctx.trace_id, span_id=ctx.span_id,
        parent_id=ctx.parent_id, thread=threading.current_thread().name,
        start_unix=_UNIX_ANCHOR + start_perf, seconds=seconds, attrs=attrs))
