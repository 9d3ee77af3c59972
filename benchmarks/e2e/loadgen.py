"""Load generators for the serving workloads: open and closed loops.

Every loop runs in its own named thread (``loadgen-<name>``) of the
benchmark process; a workload runs at most two of them at once.  The
loops never hang and never lose a request:

* every typed serving refusal (any ``GatewayError``, and
  ``ShapeMismatch``) is caught at ``submit`` and counted;
* every ``result()`` waits at most ``RESULT_TIMEOUT_S`` past the
  request's due time;
* a failed or refused request enters the latency sample as ``+inf``,
  except the refusals a loop was told to expect (``shed_ok``), which are
  counted separately.

Open loops send on a fixed schedule whatever the server does, and time
each request from when it was *due*, so a stall also charges the
requests queued behind it.  Closed loops send the next request only
when one completes.
"""

from __future__ import annotations

import collections
import math
import queue
import threading
import time

from repro.serve import GatewayError, Overloaded, QuotaExceeded, ShapeMismatch

RESULT_TIMEOUT_S = 10.0
LATE_MS = 1.0          # a send this far behind schedule counts as late
SAMPLE_CAP = 64        # served outputs kept per loop for the output check


class LoopStats:
    """What one loop did: counts, latencies (ms, ``inf`` = failed),
    send lateness and a sample of ``(input, served output)`` pairs."""

    def __init__(self, name: str, sample_stride: int = 0,
                 sample_cap: float = SAMPLE_CAP):
        self.name = name
        self.sample_stride = sample_stride
        self.sample_cap = sample_cap
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.windows_answered = 0
        self.latencies_ms: list[float] = []
        self.done_at: list[float] = []   # when each latency sample ended
        self.windows_at: list[int] = []  # windows answered, per sample
        self.late_ms: list[float] = []
        self.errors: collections.Counter = collections.Counter()
        self.samples: list[tuple] = []
        self.started = 0.0
        self.finished = 0.0

    @property
    def elapsed_s(self) -> float:
        return max(self.finished - self.started, 1e-9)

    @property
    def late_sends(self) -> int:
        return sum(1 for late in self.late_ms if late > LATE_MS)

    def fail(self, error: BaseException | str) -> None:
        self.failed += 1
        self.latencies_ms.append(math.inf)
        self.done_at.append(time.perf_counter())
        self.windows_at.append(0)
        self.errors[error if isinstance(error, str) else type(error).__name__] += 1

    def answered(self, index: int, x, value, latency_ms: float, now: float) -> None:
        self.latencies_ms.append(latency_ms)
        self.done_at.append(now)
        self.windows_at.append(x.shape[0])
        self.windows_answered += x.shape[0]
        self.finished = max(self.finished, now)
        if (self.sample_stride and index % self.sample_stride == 0
                and len(self.samples) < self.sample_cap):
            self.samples.append((x, value))


def _submit(gateway, x, tenant: str, stats: LoopStats, shed_ok: bool):
    """Submit one request; returns the handle, or ``None`` when refused."""
    stats.attempted += 1
    try:
        return gateway.submit(x, tenant=tenant)
    except QuotaExceeded as error:
        stats.fail(error)
    except Overloaded as error:
        if shed_ok:
            stats.shed += 1
        else:
            stats.fail(error)
    except (GatewayError, ShapeMismatch) as error:
        stats.fail(error)
    return None


def _await(request, due: float, x, index: int, stats: LoopStats,
           observe) -> float:
    """Wait for one admitted request; returns the time it was observed."""
    try:
        value = request.result(
            timeout=max(0.0, due + RESULT_TIMEOUT_S - time.perf_counter()))
    except (TimeoutError, GatewayError) as error:
        stats.fail(error)
        return time.perf_counter()
    now = time.perf_counter()
    if observe is not None:
        observe(x, now)
    stats.answered(index, x, value, (now - due) * 1e3, now)
    return now


def _sleep_until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def open_loop(gateway, make_input, rate: float, count: int, stats: LoopStats,
              *, tenant: str = "default", shed_ok: bool = False,
              collector: bool = True, observe=None) -> list[threading.Thread]:
    """Send ``count`` requests at ``rate``/s; returns the started threads.

    With ``collector=True`` a second thread waits for each result as it
    lands, which times requests precisely.  Without it the sender reaps
    completed requests between sends (one thread, coarser completion
    times) — used where only the answered count matters.
    """
    handoff: queue.Queue = queue.Queue()
    start = time.perf_counter() + 0.01

    def send() -> None:
        stats.started = start
        pending: collections.deque = collections.deque()
        for index in range(count):
            due = start + index / rate
            if not collector:
                while pending and pending[0][1].done():
                    _reap(pending.popleft())
            _sleep_until(due)
            x = make_input(index)
            stats.late_ms.append((time.perf_counter() - due) * 1e3)
            request = _submit(gateway, x, tenant, stats, shed_ok)
            if request is None:
                continue
            if collector:
                handoff.put((due, request, x, index))
            else:
                pending.append((due, request, x, index))
        if collector:
            handoff.put(None)
        while pending:
            _reap(pending.popleft())

    def _reap(item) -> None:
        due, request, x, index = item
        _await(request, due, x, index, stats, observe)

    def collect() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            _reap(item)

    threads = [threading.Thread(target=send, name=f"loadgen-{stats.name}",
                                daemon=True)]
    if collector:
        threads.append(threading.Thread(
            target=collect, name=f"loadgen-{stats.name}-collect", daemon=True))
    for thread in threads:
        thread.start()
    return threads


def closed_loop(gateway, make_input, in_flight: int, seconds: float,
                stats: LoopStats, *, tenant: str = "default",
                observe=None) -> list[threading.Thread]:
    """Keep ``in_flight`` requests outstanding for ``seconds``."""

    def run() -> None:
        pending: collections.deque = collections.deque()
        stats.started = time.perf_counter()
        end = stats.started + seconds
        index = 0
        while True:
            while time.perf_counter() < end and len(pending) < in_flight:
                x = make_input(index)
                sent = time.perf_counter()
                request = _submit(gateway, x, tenant, stats, False)
                if request is not None:
                    pending.append((sent, request, x, index))
                index += 1
            if not pending:
                return
            sent, request, x, number = pending.popleft()
            _await(request, sent, x, number, stats, observe)

    thread = threading.Thread(target=run, name=f"loadgen-{stats.name}",
                              daemon=True)
    thread.start()
    return [thread]


def paced_loop(gateway, make_input, period_s: float, seconds: float,
               stats: LoopStats, *, tenant: str = "default",
               observe=None) -> list[threading.Thread]:
    """One request at a time on a ``period_s`` schedule: the next one is
    due a period after the last, or when the last completes if later."""

    def run() -> None:
        due = stats.started = time.perf_counter() + 0.01
        end = stats.started + seconds
        index = 0
        while due < end:
            _sleep_until(due)
            x = make_input(index)
            stats.late_ms.append((time.perf_counter() - due) * 1e3)
            request = _submit(gateway, x, tenant, stats, False)
            done = (time.perf_counter() if request is None
                    else _await(request, due, x, index, stats, observe))
            due = max(due + period_s, done)
            index += 1

    thread = threading.Thread(target=run, name=f"loadgen-{stats.name}",
                              daemon=True)
    thread.start()
    return [thread]


def join(threads, timeout_s: float, stats_list) -> None:
    """Join loop threads; a thread still alive after the timeout is a
    hang, charged as one failed op to every loop it may belong to."""
    deadline = time.perf_counter() + timeout_s
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        for stats in stats_list:
            stats.fail("loop did not finish")
