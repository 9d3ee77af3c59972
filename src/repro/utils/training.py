"""Training utilities: early stopping, metric tracking, seeding, profile tables."""

from __future__ import annotations

import json
import pathlib

import numpy as np

from .fileio import atomic_write_text

__all__ = ["EarlyStopping", "MetricTracker", "set_global_seed",
           "format_profile"]


def set_global_seed(seed: int) -> np.random.Generator:
    """Seed NumPy's legacy global RNG *and* return a fresh Generator.

    The library itself threads explicit Generators everywhere; this helper
    exists for user scripts that also rely on the global state.
    """
    np.random.seed(seed)
    return np.random.default_rng(seed)


def format_profile(snapshot: dict[str, dict[str, float]],
                   sort_by: str = "total_s", limit: int | None = None) -> str:
    """Render a :func:`repro.nn.profiler.snapshot` as an aligned text table.

    ``sort_by`` is one of ``count``/``total_s``/``self_s``/``bytes``;
    ``limit`` keeps only the top rows after sorting.
    """
    if sort_by not in ("count", "total_s", "self_s", "bytes"):
        raise ValueError(f"unknown sort key {sort_by!r}")
    rows = sorted(snapshot.items(), key=lambda kv: kv[1][sort_by], reverse=True)
    if limit is not None:
        rows = rows[:limit]
    if not rows:
        return "(no ops recorded)"
    name_width = max(len("op"), *(len(name) for name, __ in rows))
    header = (f"{'op':<{name_width}}  {'count':>8}  {'total_ms':>10}  "
              f"{'self_ms':>10}  {'alloc_mb':>9}")
    lines = [header, "-" * len(header)]
    for name, stat in rows:
        lines.append(
            f"{name:<{name_width}}  {int(stat['count']):>8}  "
            f"{stat['total_s'] * 1e3:>10.2f}  {stat['self_s'] * 1e3:>10.2f}  "
            f"{stat['bytes'] / 1e6:>9.1f}")
    return "\n".join(lines)


class EarlyStopping:
    """Stop when a monitored metric stops improving.

    Example
    -------
    >>> stopper = EarlyStopping(patience=3, mode="min")
    >>> for epoch in range(100):
    ...     if stopper.step(validation_loss):
    ...         break
    """

    def __init__(self, patience: int = 5, mode: str = "min", min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        self.patience = patience
        self.mode = mode
        self.min_delta = min_delta
        self.best: float | None = None
        self.best_step: int = -1
        self._step_count = 0
        self._stale = 0

    def step(self, value: float) -> bool:
        """Record a new metric value; returns True when training should stop."""
        improved = self.best is None or (
            value < self.best - self.min_delta if self.mode == "min"
            else value > self.best + self.min_delta)
        if improved:
            self.best = value
            self.best_step = self._step_count
            self._stale = 0
        else:
            self._stale += 1
        self._step_count += 1
        return self._stale >= self.patience

    @property
    def should_stop(self) -> bool:
        return self._stale >= self.patience

    def state_dict(self) -> dict:
        """Complete stopper state, for checkpoint/resume round-trips."""
        return {"patience": self.patience, "mode": self.mode,
                "min_delta": self.min_delta, "best": self.best,
                "best_step": self.best_step, "step_count": self._step_count,
                "stale": self._stale}

    def load_state_dict(self, state: dict) -> None:
        self.patience = int(state["patience"])
        self.mode = state["mode"]
        self.min_delta = float(state["min_delta"])
        self.best = None if state["best"] is None else float(state["best"])
        self.best_step = int(state["best_step"])
        self._step_count = int(state["step_count"])
        self._stale = int(state["stale"])


class MetricTracker:
    """Accumulate scalar metrics over steps/epochs and export them.

    Keeps per-key histories; ``summary`` reports last/best/mean, ``save``
    writes a JSON artifact next to experiment results.
    """

    def __init__(self):
        self.history: dict[str, list[float]] = {}

    def log(self, **metrics: float) -> None:
        for key, value in metrics.items():
            self.history.setdefault(key, []).append(float(value))

    def last(self, key: str) -> float:
        return self.history[key][-1]

    def best(self, key: str, mode: str = "min") -> float:
        values = self.history[key]
        return min(values) if mode == "min" else max(values)

    def mean(self, key: str) -> float:
        return float(np.mean(self.history[key]))

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            key: {"last": values[-1], "min": min(values), "max": max(values),
                  "mean": float(np.mean(values)), "count": len(values)}
            for key, values in self.history.items()
        }

    def save(self, path) -> None:
        """Write the JSON artifact atomically (temp file + rename).

        Parent directories are created on demand, and an interrupted run
        can never leave a truncated/half-written JSON file behind.
        """
        payload = {"history": self.history, "summary": self.summary()}
        atomic_write_text(path, json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path) -> "MetricTracker":
        tracker = cls()
        payload = json.loads(pathlib.Path(path).read_text())
        tracker.history = {k: list(map(float, v)) for k, v in payload["history"].items()}
        return tracker

    def state_dict(self) -> dict:
        """Deep copy of the history, for checkpoint/resume round-trips."""
        return {"history": {key: list(values)
                            for key, values in self.history.items()}}

    def load_state_dict(self, state: dict) -> None:
        self.history = {key: [float(v) for v in values]
                        for key, values in state["history"].items()}
