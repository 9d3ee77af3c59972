"""Per-alias circuit breaker: stop hammering a failing model.

The breaker watches request outcomes over a rolling window and, when the
failure ratio crosses the threshold, *opens*: live forwards stop and the
gateway degrades to cache hits (and, opted-in, ``stale_ok`` entries)
instead of queueing doomed work behind a broken model.  After a jittered
backoff — the same :class:`~repro.utils.fileio.BackoffPolicy` the file
retry helper uses, so probe storms de-synchronize the same way read
retries do — the breaker goes *half-open* and lets a limited number of
probe requests through; enough consecutive successes re-close it, one
failure re-opens it with a longer backoff.

States are exported as a gauge (``gateway_breaker_state``: 0 closed,
1 half-open, 2 open) and every transition as a labeled counter, so an
open breaker is visible on the dashboard and can page through an SLO
rule (``gateway_breaker_state < 2``).
"""

from __future__ import annotations

import collections
import random
import threading
import time
from dataclasses import dataclass, field

from ..utils.fileio import BackoffPolicy

__all__ = ["CircuitBreaker", "BreakerConfig", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED, HALF_OPEN, OPEN = "closed", "half_open", "open"
_STATE_CODE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig:
    """Trip and recovery policy.

    The breaker trips when, among the last ``window`` outcomes (and at
    least ``min_requests`` of them), the failure ratio reaches
    ``failure_ratio``.  ``probe_successes`` consecutive half-open
    successes re-close it.  ``backoff`` schedules open->half-open
    probing; attempt ``k`` is the k-th consecutive re-open, so a model
    that keeps failing is probed less and less often (with jitter).
    """

    window: int = 20
    min_requests: int = 5
    failure_ratio: float = 0.5
    probe_successes: int = 2
    backoff: BackoffPolicy = field(default_factory=lambda: BackoffPolicy(
        initial=0.5, multiplier=2.0, jitter=0.2, max_delay=30.0))

    def __post_init__(self):
        if self.window < 1 or self.min_requests < 1:
            raise ValueError("window and min_requests must be >= 1")
        if not 0 < self.failure_ratio <= 1:
            raise ValueError("failure_ratio must be in (0, 1]")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")


class CircuitBreaker:
    """Rolling-window failure breaker with jittered half-open probing.

    Thread-safe; ``clock`` and ``rng`` are injectable so tests pin both
    time and jitter.  ``on_transition(old, new)`` (optional) is invoked
    outside the lock on every state change — the gateway hangs metric
    and telemetry emission there.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 clock=time.monotonic, rng: random.Random | None = None,
                 on_transition=None):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._rng = rng or random.Random()
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes = collections.deque(maxlen=self.config.window)
        self._opened_count = 0      # consecutive opens (backoff attempt)
        self._probe_at = 0.0        # when half-open probing may begin
        self._probe_successes = 0
        self._probe_inflight = 0

    # -- state ------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def state_code(self) -> int:
        return _STATE_CODE[self.state]

    def retry_after_s(self) -> float:
        """Seconds until a probe may run (0 when not open)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self._probe_at - self._clock())

    def snapshot(self) -> dict:
        with self._lock:
            outcomes = list(self._outcomes)
            return {"state": self._state,
                    "window": len(outcomes),
                    "failures": outcomes.count(False),
                    "consecutive_opens": self._opened_count,
                    "retry_after_s": (max(0.0, self._probe_at - self._clock())
                                      if self._state == OPEN else 0.0)}

    # -- the two calls the gateway makes ----------------------------------
    def allow(self) -> bool:
        """May a live forward run now?

        Closed: always.  Open: no, until the backoff elapses — at which
        point the breaker turns half-open and grants probe slots.
        Half-open: only while a probe slot is free.
        """
        transition = None
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() < self._probe_at:
                    return False
                transition = (OPEN, HALF_OPEN)
                self._state = HALF_OPEN
                self._probe_successes = 0
                self._probe_inflight = 0
            # half-open: one probe in flight at a time, so a burst during
            # recovery cannot stampede a barely-healed model.
            if self._probe_inflight >= 1:
                allowed = False
            else:
                self._probe_inflight += 1
                allowed = True
        if transition is not None:
            self._notify(*transition)
        return allowed

    def record(self, ok: bool) -> None:
        """Record one live-forward outcome (success or typed failure)."""
        transition = None
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = max(0, self._probe_inflight - 1)
                if ok:
                    self._probe_successes += 1
                    if self._probe_successes >= self.config.probe_successes:
                        transition = (HALF_OPEN, CLOSED)
                        self._state = CLOSED
                        self._outcomes.clear()
                        self._opened_count = 0
                else:
                    transition = (HALF_OPEN, OPEN)
                    self._open_locked()
            elif self._state == CLOSED:
                self._outcomes.append(ok)
                if self._tripped_locked():
                    transition = (CLOSED, OPEN)
                    self._open_locked()
            # open: a straggler from before the trip — ignore.
        if transition is not None:
            self._notify(*transition)

    # -- internals ---------------------------------------------------------
    def _tripped_locked(self) -> bool:
        outcomes = self._outcomes
        if len(outcomes) < self.config.min_requests:
            return False
        failures = outcomes.count(False)
        return failures / len(outcomes) >= self.config.failure_ratio

    def _open_locked(self) -> None:
        self._state = OPEN
        delay = self.config.backoff.delay(self._opened_count, rng=self._rng)
        self._opened_count += 1
        self._probe_at = self._clock() + (delay if delay is not None else
                                          self.config.backoff.max_delay)
        self._outcomes.clear()

    def _notify(self, old: str, new: str) -> None:
        if self._on_transition is not None:
            try:
                self._on_transition(old, new)
            except Exception:
                pass  # observability must never break the breaker
