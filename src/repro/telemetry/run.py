"""The :class:`Run` object — durable, comparable record of one training run.

A ``Run`` owns a run directory ``<root>/<run_id>/`` holding three
artifacts:

* ``manifest.json`` — model + train config, seed, dataset fingerprint,
  package/python versions, start/end time, final status and summary;
* ``events.jsonl`` — ordered structured events (spans, step metrics,
  messages, health findings), one JSON object per line;
* ``metrics.jsonl`` — one record per epoch, the tabular view ``repro runs
  show``/``diff`` and the SVG loss-curve exporter consume.

Training loops receive either a real ``Run`` or the :data:`NULL_RUN`
singleton, which shares the full interface but does nothing — the
disabled path must keep training bit-identical and overhead-free
(mirroring ``repro.nn.profiler``'s disabled-is-free contract).

Run spans are :mod:`repro.obs.trace` spans named ``run/<name>``:
``with run.span("epoch") as span`` times the region once, and that one
reading lands in the ``span_end`` event, in ``span.seconds`` and in the
obs trace log (when obs is enabled).  While the profiler is active the
span is also the ``repro.nn.profiler`` scope ``run/<name>``, so
op-level profiles line up with run-level traces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import platform
import time
import traceback
import uuid

import numpy as np

from .. import __version__
from ..obs import trace as obs_trace
from ..utils.fileio import atomic_write_text
from .health import default_guards
from .sinks import JsonlSink, LoggingSink, MemorySink, Sink

__all__ = ["Run", "NullRun", "NULL_RUN", "dataset_fingerprint",
           "EVENT_TYPES", "MANIFEST_NAME", "EVENTS_NAME", "METRICS_NAME"]

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"
METRICS_NAME = "metrics.jsonl"

EVENT_TYPES = ("run_start", "run_end", "span_start", "span_end",
               "step", "epoch", "message", "health", "metric",
               "checkpoint", "recovery", "crash", "alert",
               "breaker", "swap", "swap_shadow")

_STATUS = ("running", "completed", "failed", "crashed")


def _config_dict(config) -> dict | None:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    return {"repr": repr(config)}


def dataset_fingerprint(data) -> dict | None:
    """Cheap, stable identity for the training data.

    Hashes shape/dtype plus an edge sample of the raw bytes (first and
    last 64 KiB) — enough to distinguish datasets, splits and scalings
    without re-reading gigabytes.  Understands plain arrays and the
    windowed/split dataset containers used by the training loops.
    """
    if data is None:
        return None
    # Out-of-core stores know their own identity (manifest checksums) —
    # never pull gigabytes of memory-mapped windows through asarray.
    own_fingerprint = getattr(data, "dataset_fingerprint", None)
    if callable(own_fingerprint):
        return own_fingerprint()
    # Windowed or split containers expose their backing arrays.
    for attribute in ("series", "x_train"):
        inner = getattr(data, attribute, None)
        if inner is not None:
            fp = dataset_fingerprint(np.asarray(inner))
            fp["container"] = type(data).__name__
            return fp
    if getattr(data, "train", None) is not None and not isinstance(data, np.ndarray):
        fp = dataset_fingerprint(data.train)
        fp["container"] = type(data).__name__
        return fp
    array = np.ascontiguousarray(np.asarray(data))
    raw = array.view(np.uint8).reshape(-1)
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode())
    digest.update(str(array.dtype).encode())
    digest.update(raw[:65536].tobytes())
    if raw.size > 65536:
        digest.update(raw[-65536:].tobytes())
    return {"shape": list(array.shape), "dtype": str(array.dtype),
            "sha256": digest.hexdigest()[:16]}


class _RunSpan(obs_trace.Span):
    """A :class:`repro.obs.trace.Span` named ``run/<name>`` that also
    writes the run's ``span_start``/``span_end`` events (see
    :meth:`Run.span`).  The ids on the events are the span's own, and
    ``span_end``'s ``seconds`` is the span's one clock reading."""

    __slots__ = ("_run", "_event")

    def __init__(self, run: "Run", name: str, attrs: dict):
        super().__init__(f"run/{name}", attrs)
        self._run = run
        self._event = name

    def _opened(self) -> None:
        run = self._run
        run._span_stack.append(self._event)
        run.emit("span_start", span=self._event, path=run.span_path(),
                 depth=len(run._span_stack), **self.ctx.as_dict(),
                 **self.attrs)

    def _closed(self, error: str | None) -> None:
        run = self._run
        path = run.span_path()
        run._span_stack.pop()
        run.emit("span_end", span=self._event, path=path,
                 depth=len(run._span_stack) + 1, seconds=self.seconds,
                 **self.ctx.as_dict(), error=error)


class Run:
    """A live (or loaded) training run; see the module docstring."""

    enabled = True

    def __init__(self, run_id: str, directory: pathlib.Path | None,
                 manifest: dict, sinks: list[Sink]):
        self.run_id = run_id
        self.directory = pathlib.Path(directory) if directory is not None else None
        self.manifest = manifest
        self.sinks = list(sinks)
        self.guards = default_guards()
        self.events: list[dict] = []       # populated by load()
        self.epoch_metrics: list[dict] = []
        self.health_events: list[dict] = []
        self.status = manifest.get("status", "running")
        self._seq = 0
        self._span_stack: list[str] = []
        self._metrics_sink = (JsonlSink(self.directory / METRICS_NAME)
                              if self.directory is not None else None)
        self._finished = False

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, root="results/runs", name: str | None = None,
               model_config=None, train_config=None, seed: int | None = None,
               data=None, tags: dict | None = None,
               sinks: list[Sink] | None = None,
               log_to_console: bool = False) -> "Run":
        """Open a new run directory under ``root`` and emit ``run_start``.

        ``sinks`` extends (not replaces) the default JSONL sink; pass
        ``log_to_console=True`` to mirror events through stdlib logging.
        """
        stamp = time.strftime("%Y%m%d-%H%M%S")
        suffix = uuid.uuid4().hex[:6]
        run_id = f"{stamp}-{suffix}" if name is None else f"{stamp}-{name}-{suffix}"
        directory = pathlib.Path(root) / run_id
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "run_id": run_id,
            "name": name,
            "status": "running",
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "created_unix": time.time(),
            "finished_at": None,
            "package_version": __version__,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "seed": seed,
            "model_config": _config_dict(model_config),
            "train_config": _config_dict(train_config),
            "dataset": dataset_fingerprint(data),
            "tags": dict(tags or {}),
            "summary": {},
            "health": [],
        }
        all_sinks: list[Sink] = [JsonlSink(directory / EVENTS_NAME)]
        if log_to_console:
            all_sinks.append(LoggingSink())
        all_sinks.extend(sinks or [])
        run = cls(run_id, directory, manifest, all_sinks)
        run._write_manifest()
        run.emit("run_start", run_id=run_id, name=name, seed=seed)
        return run

    @classmethod
    def in_memory(cls, **kwargs) -> "Run":
        """Directory-less run backed by a :class:`MemorySink` (for tests)."""
        sink = MemorySink()
        manifest = {"run_id": "in-memory", "status": "running",
                    "summary": {}, "health": [],
                    "model_config": _config_dict(kwargs.get("model_config")),
                    "train_config": _config_dict(kwargs.get("train_config"))}
        run = cls("in-memory", None, manifest, [sink])
        run.memory = sink
        run.emit("run_start", run_id=run.run_id)
        return run

    @classmethod
    def load(cls, directory) -> "Run":
        """Re-hydrate a finished (or crashed) run from its directory."""
        directory = pathlib.Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise FileNotFoundError(f"no run manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        run = cls(manifest.get("run_id", directory.name), directory, manifest, [])
        run._finished = True  # loaded runs are read-only
        events_path = directory / EVENTS_NAME
        if events_path.is_file():
            run.events = JsonlSink.read(events_path)
        metrics_path = directory / METRICS_NAME
        if metrics_path.is_file():
            run.epoch_metrics = JsonlSink.read(metrics_path)
        else:
            run.epoch_metrics = [e for e in run.events if e.get("type") == "epoch"]
        run.health_events = [e for e in run.events if e.get("type") == "health"]
        run.status = manifest.get("status", "unknown")
        return run

    # -- event pipeline -------------------------------------------------
    def emit(self, type: str, **payload) -> dict:
        """Build one structured event and fan it out to every sink."""
        if self._finished:
            raise RuntimeError(f"run {self.run_id} is finished/read-only")
        self._seq += 1
        event = {"type": type, "seq": self._seq, "time": time.time(), **payload}
        for sink in self.sinks:
            sink.emit(event)
        return event

    def message(self, text: str, **payload) -> None:
        self.emit("message", text=text, **payload)

    def span(self, name: str, **attrs) -> _RunSpan:
        """``with run.span("epoch", index=3) as span:`` — traced,
        profiler-nested, timed once (``span.seconds``)."""
        return _RunSpan(self, name, attrs)

    def span_path(self) -> str:
        return "/".join(self._span_stack)

    # -- metrics --------------------------------------------------------
    def log_step(self, step: int, **metrics) -> None:
        """Record per-step metrics (loss components, grad norm, ...)."""
        self._check_health(metrics, phase="step", index=step)
        self.emit("step", step=step, **metrics)

    def log_epoch(self, epoch: int, **metrics) -> None:
        """Record one epoch's aggregate metrics (also to ``metrics.jsonl``)."""
        self._check_health(metrics, phase="epoch", index=epoch)
        record = {"epoch": epoch, **metrics}
        self.epoch_metrics.append(record)
        event = self.emit("epoch", **record)
        if self._metrics_sink is not None:
            self._metrics_sink.emit(event)

    def log_summary(self, **metrics) -> None:
        """Merge final scalar results into the manifest summary."""
        self.manifest["summary"].update(
            {key: _jsonable(value) for key, value in metrics.items()})
        self.emit("metric", **metrics)

    def _check_health(self, metrics: dict, phase: str, index: int) -> None:
        for guard in self.guards:
            failure = guard(metrics)
            if failure is not None:
                self.health_events.append(failure)
                self.manifest["health"].append(
                    {**failure, "phase": phase, "index": index})
                self.emit("health", phase=phase, index=index, **failure)

    @property
    def healthy(self) -> bool:
        return not self.health_events

    def record_crash(self, error: BaseException) -> None:
        """Mark the run ``crashed``: emit a structured traceback event and
        seal the manifest, so an unhandled exception never leaves the run
        dangling as ``running`` with no trace of what killed it.

        Safe to call from any ``except`` block; idempotent once finished.
        """
        if self._finished:
            return
        frames = traceback.format_exception(type(error), error,
                                            error.__traceback__)
        self.emit("crash", error=type(error).__name__, detail=str(error),
                  traceback=frames)
        self.manifest["crash"] = {"error": type(error).__name__,
                                  "detail": str(error),
                                  "traceback": frames}
        self.finish("crashed")

    # -- lifecycle ------------------------------------------------------
    def finish(self, status: str = "completed", **summary) -> None:
        """Seal the run: final summary, manifest rewrite, sinks closed."""
        if self._finished:
            return
        if status not in _STATUS:
            raise ValueError(f"status must be one of {_STATUS}, got {status!r}")
        if summary:
            self.log_summary(**summary)
        self.emit("run_end", status=status, healthy=self.healthy)
        self.status = self.manifest["status"] = status
        self.manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.manifest["wall_clock_seconds"] = (
            time.time() - self.manifest.get("created_unix", time.time()))
        self._write_manifest()
        self._finished = True
        for sink in self.sinks:
            sink.close()
        if self._metrics_sink is not None:
            self._metrics_sink.close()

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.finish("completed")
        else:
            # Structured crash record instead of a silent half-written run
            # dir left dangling as "running".
            self.emit("health", check="exception", phase="run",
                      error=exc_type.__name__, detail=str(exc))
            self.record_crash(exc)
        return False

    def _write_manifest(self) -> None:
        if self.directory is not None:
            atomic_write_text(self.directory / MANIFEST_NAME,
                              json.dumps(self.manifest, indent=2,
                                         sort_keys=True, default=_jsonable))

    # -- convenience ----------------------------------------------------
    def final_epoch(self) -> dict | None:
        return self.epoch_metrics[-1] if self.epoch_metrics else None

    def metric_series(self, key: str) -> list[tuple[float, float]]:
        """``[(epoch, value), ...]`` for one epoch-metric key (for charts)."""
        points = []
        for record in self.epoch_metrics:
            if key in record and isinstance(record[key], (int, float)):
                points.append((float(record.get("epoch", len(points))),
                               float(record[key])))
        return points


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, pathlib.Path):
        return str(value)
    return value


class NullRun:
    """Do-nothing stand-in sharing :class:`Run`'s interface.

    Training loops call ``run.log_epoch(...)`` unconditionally; when
    telemetry is off they receive this object, whose methods return
    immediately — no events, no clocks, no files, no extra compute.
    Expensive *derived* metrics (grad norms, update ratios) must
    additionally be gated on ``run.enabled`` at the call site so their
    inputs are never computed either.
    """

    enabled = False
    run_id = None
    directory = None
    status = "disabled"
    healthy = True

    def emit(self, type: str, **payload) -> None:
        pass

    def message(self, text: str, **payload) -> None:
        pass

    def span(self, name: str, **attrs):
        """The obs span ``run/<name>``: timed and traced while obs is
        enabled, the shared no-op otherwise."""
        return obs_trace.span(f"run/{name}", **attrs)

    def log_step(self, step: int, **metrics) -> None:
        pass

    def log_epoch(self, epoch: int, **metrics) -> None:
        pass

    def log_summary(self, **metrics) -> None:
        pass

    def finish(self, status: str = "completed", **summary) -> None:
        pass

    def record_crash(self, error: BaseException) -> None:
        pass

    def __enter__(self) -> "NullRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_RUN = NullRun()
