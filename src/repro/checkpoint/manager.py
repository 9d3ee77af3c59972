"""Checkpoint files on disk: atomic, versioned, checksummed, pruned.

Layout under one checkpoint directory (conventionally
``results/runs/<run_id>/checkpoints/``)::

    ckpt-00000042.npz   # one self-contained archive per checkpoint
    index.json          # inventory: step, epoch, checksum, size, metrics

Each ``.npz`` packs the :class:`~repro.checkpoint.state.TrainingState`:

* ``__meta__`` — UTF-8 JSON (as a uint8 array): format version, cursor,
  RNG states, history, configs, and a SHA-256 over the model+optimizer
  array bytes (``content_sha256``).  The checksum lives *inside* the
  archive, so a corrupted file is detected even if ``index.json`` is lost;
* ``model/<name>`` — parameter/buffer arrays;
* ``optim/<slot>/<i>`` — optimizer slot arrays (velocity, m, v, ...).

Writes are atomic (temp file + ``os.replace``): a crash mid-write leaves
either the previous checkpoint set or the new one, never a torn file.
Retention keeps the newest ``keep_last`` checkpoints plus the best one by
a chosen metric; everything else is deleted after each save.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import get_registry as _obs_registry
from ..telemetry import console_log
from ..utils.fileio import atomic_write_bytes, atomic_write_text, read_with_retry
from .state import TrainingState

__all__ = ["CheckpointManager", "CheckpointInfo", "CheckpointError",
           "CheckpointVersionError", "FORMAT_VERSION", "INDEX_NAME"]

FORMAT_VERSION = 2  # 2: every Linear weight is stored (in, out)
INDEX_NAME = "index.json"


class CheckpointError(RuntimeError):
    """A checkpoint file failed validation (checksum, version, structure)."""


class CheckpointVersionError(CheckpointError):
    """A readable checkpoint of a format version this build does not read.

    Unlike a torn or corrupt file it is a refusal: ``load_latest``
    raises it rather than falling back to an older archive or to step 0.
    """

    def __init__(self, version, path=None):
        self.version = version
        where = f"{path}: " if path is not None else ""
        super().__init__(
            f"{where}unsupported checkpoint format version {version!r} "
            f"(this build reads version {FORMAT_VERSION}); re-run the "
            "pre-training that wrote it")


@dataclass(frozen=True)
class CheckpointInfo:
    """One inventory row (what ``repro runs show`` displays)."""

    path: pathlib.Path
    step: int
    epoch: int
    sha256: str
    size_bytes: int
    created_unix: float
    metric: float | None = None   # value of the tracked best-metric
    is_best: bool = False

    def to_json(self) -> dict:
        return {"file": self.path.name, "step": self.step, "epoch": self.epoch,
                "sha256": self.sha256, "size_bytes": self.size_bytes,
                "created_unix": self.created_unix, "metric": self.metric,
                "is_best": self.is_best}


def _content_digest(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, shape, dtype and raw bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.shape).encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _pack(state: TrainingState, extra_meta: dict | None) -> bytes:
    arrays: dict[str, np.ndarray] = {}
    for name, value in state.model_state.items():
        arrays[f"model/{name}"] = value
    optim = dict(state.optimizer_state)
    slots = optim.pop("slots", {})
    for slot_name, slot_arrays in slots.items():
        for index, array in enumerate(slot_arrays):
            arrays[f"optim/{slot_name}/{index}"] = array
    meta = {
        "format_version": FORMAT_VERSION,
        **state.meta(),
        "optimizer_meta": _jsonable_optim_meta(optim),
        "content_sha256": _content_digest(arrays),
        **(extra_meta or {}),
    }
    buffer = io.BytesIO()
    payload = dict(arrays)
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(buffer, **payload)
    return buffer.getvalue()


def _jsonable_optim_meta(optim_meta: dict) -> dict:
    out = {}
    for key, value in optim_meta.items():
        if isinstance(value, tuple):
            value = list(value)
        if key == "param_shapes":
            value = [list(shape) for shape in value]
        out[key] = value
    return out


def _unpack(payload: bytes) -> tuple[TrainingState, dict]:
    """Parse + verify one checkpoint archive; raises CheckpointError."""
    try:
        with np.load(io.BytesIO(payload)) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as error:
        raise CheckpointError(f"unreadable archive ({error})") from None
    meta_bytes = arrays.pop("__meta__", None)
    if meta_bytes is None:
        raise CheckpointError("archive has no __meta__ record")
    try:
        meta = json.loads(bytes(meta_bytes.tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"corrupt metadata ({error})") from None
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(version)
    digest = _content_digest(arrays)
    if digest != meta.get("content_sha256"):
        raise CheckpointError(
            f"content checksum mismatch: archive says "
            f"{meta.get('content_sha256')!r}, recomputed {digest!r} — "
            "file is corrupt")

    model_state, slots = {}, {}
    for name, array in arrays.items():
        kind, __, rest = name.partition("/")
        if kind == "model":
            model_state[rest] = array
        elif kind == "optim":
            slot_name, __, index = rest.partition("/")
            slots.setdefault(slot_name, []).append((int(index), array))
    optimizer_state = dict(meta.get("optimizer_meta") or {})
    if optimizer_state:
        if "param_shapes" in optimizer_state:
            optimizer_state["param_shapes"] = [
                tuple(shape) for shape in optimizer_state["param_shapes"]]
        if "betas" in optimizer_state:
            optimizer_state["betas"] = tuple(optimizer_state["betas"])
        optimizer_state["slots"] = {
            slot_name: [array for __, array in sorted(pairs)]
            for slot_name, pairs in slots.items()}
    state = TrainingState(
        epoch=meta["epoch"],
        batch_in_epoch=meta["batch_in_epoch"],
        global_step=meta["global_step"],
        loader_rng=meta.get("loader_rng"),
        model_rngs=meta.get("model_rngs") or {},
        model_state=model_state,
        optimizer_state=optimizer_state,
        epoch_sums=meta.get("epoch_sums") or {},
        epoch_batches=meta.get("epoch_batches", 0),
        epoch_samples=meta.get("epoch_samples", 0),
        history=meta.get("history") or [],
        extra=meta.get("extra") or {},
    )
    return state, meta


class CheckpointManager:
    """Owns one checkpoint directory: save, load, verify, prune, list."""

    def __init__(self, directory, keep_last: int = 3,
                 best_metric: str | None = "total", best_mode: str = "min",
                 clock=None):
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if best_mode not in ("min", "max"):
            raise ValueError("best_mode must be 'min' or 'max'")
        self.directory = pathlib.Path(directory)
        self.keep_last = keep_last
        self.best_metric = best_metric
        self.best_mode = best_mode
        # injectable for tests; time.time by default (import-local to keep
        # checkpoint writes off the telemetry clock budget)
        import time as _time
        self._clock = clock or _time.time

    # -- write ----------------------------------------------------------
    def save(self, state: TrainingState, metrics: dict | None = None,
             extra_meta: dict | None = None) -> CheckpointInfo:
        """Write one checkpoint atomically and update the inventory.

        ``metrics`` feeds the best-by-metric retention marker (typically
        the running epoch-mean losses at the save point).
        """
        save_started = time.perf_counter()
        payload = _pack(state, extra_meta)
        name = f"ckpt-{state.global_step:08d}.npz"
        path = self.directory / name
        atomic_write_bytes(path, payload)
        registry = _obs_registry()
        registry.counter("checkpoint_saves_total", "Checkpoints written").inc()
        registry.histogram("checkpoint_save_ms",
                           "Pack-and-write checkpoint latency").observe(
            (time.perf_counter() - save_started) * 1e3)
        registry.gauge("checkpoint_last_size_bytes",
                       "Size of the most recent checkpoint archive").set(
            len(payload))
        metric_value = None
        if self.best_metric and metrics and self.best_metric in metrics:
            value = metrics[self.best_metric]
            if isinstance(value, (int, float)) and np.isfinite(value):
                metric_value = float(value)
        info = CheckpointInfo(
            path=path, step=state.global_step, epoch=state.epoch,
            sha256=hashlib.sha256(payload).hexdigest(),
            size_bytes=len(payload), created_unix=float(self._clock()),
            metric=metric_value)
        entries = [e for e in self._read_index() if e.path.name != name]
        entries.append(info)
        entries = self._mark_best(entries)
        self._prune(entries)
        return info

    def _mark_best(self, entries: list[CheckpointInfo]) -> list[CheckpointInfo]:
        scored = [e for e in entries if e.metric is not None]
        best_name = None
        if scored:
            pick = min if self.best_mode == "min" else max
            best_name = pick(scored, key=lambda e: e.metric).path.name
        return [dataclasses.replace(e, is_best=e.path.name == best_name)
                for e in entries]

    def _prune(self, entries: list[CheckpointInfo]) -> None:
        entries.sort(key=lambda e: e.step)
        keep = set(e.path.name for e in entries[-self.keep_last:])
        keep.update(e.path.name for e in entries if e.is_best)
        survivors = []
        for entry in entries:
            if entry.path.name in keep:
                survivors.append(entry)
            else:
                entry.path.unlink(missing_ok=True)
        self._write_index(survivors)

    def _write_index(self, entries: list[CheckpointInfo]) -> None:
        body = {"format_version": FORMAT_VERSION,
                "checkpoints": [e.to_json() for e in entries]}
        atomic_write_text(self.directory / INDEX_NAME,
                          json.dumps(body, indent=2))

    # -- read -----------------------------------------------------------
    def _read_index(self) -> list[CheckpointInfo]:
        path = self.directory / INDEX_NAME
        if not path.is_file():
            return self._scan_directory()
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return self._scan_directory()
        entries = []
        for row in body.get("checkpoints", []):
            file_path = self.directory / row["file"]
            if file_path.is_file():
                entries.append(CheckpointInfo(
                    path=file_path, step=row["step"], epoch=row["epoch"],
                    sha256=row["sha256"], size_bytes=row["size_bytes"],
                    created_unix=row["created_unix"],
                    metric=row.get("metric"),
                    is_best=bool(row.get("is_best"))))
        return entries

    def _scan_directory(self) -> list[CheckpointInfo]:
        """Index fallback: rebuild the inventory from the files themselves."""
        entries = []
        if not self.directory.is_dir():
            return entries
        for path in sorted(self.directory.glob("ckpt-*.npz")):
            try:
                payload = path.read_bytes()
                state, __ = _unpack(payload)
            except (OSError, CheckpointError):
                continue
            entries.append(CheckpointInfo(
                path=path, step=state.global_step, epoch=state.epoch,
                sha256=hashlib.sha256(payload).hexdigest(),
                size_bytes=len(payload),
                created_unix=path.stat().st_mtime))
        return entries

    def inventory(self) -> list[CheckpointInfo]:
        """All known checkpoints, oldest first (for display)."""
        return sorted(self._read_index(), key=lambda e: e.step)

    def load(self, path) -> tuple[TrainingState, dict]:
        """Read + verify one checkpoint file; raises CheckpointError."""
        load_started = time.perf_counter()
        path = pathlib.Path(path)
        payload = read_with_retry(lambda p: pathlib.Path(p).read_bytes(), path)
        unpacked = _unpack(payload)
        registry = _obs_registry()
        registry.counter("checkpoint_loads_total",
                         "Checkpoints read and verified").inc()
        registry.histogram("checkpoint_load_ms",
                           "Read-and-verify checkpoint latency").observe(
            (time.perf_counter() - load_started) * 1e3)
        return unpacked

    def load_latest(self, warn=console_log) -> tuple[TrainingState, dict] | None:
        """Newest checkpoint that passes verification.

        Corrupt or unreadable checkpoints are skipped with a warning and
        the next-newest is tried — a torn file from a crash mid-write must
        not make the whole run unresumable.  A checkpoint of another
        format version is not skipped: :class:`CheckpointVersionError`
        propagates, so a resume never silently starts over.  Returns
        ``None`` when no valid checkpoint exists.
        """
        for entry in sorted(self.inventory(), key=lambda e: e.step,
                            reverse=True):
            try:
                return self.load(entry.path)
            except CheckpointVersionError as error:
                raise CheckpointVersionError(error.version,
                                             entry.path) from None
            except (OSError, CheckpointError) as error:
                warn(f"[checkpoint] skipping corrupt {entry.path.name}: {error}")
        return None


def resolve_checkpoint_source(source, run_root="results/runs"
                              ) -> tuple[TrainingState, dict, pathlib.Path]:
    """Resolve a checkpoint *source* to a verified ``(state, meta, path)``.

    ``source`` may be a ``ckpt-*.npz`` file, a checkpoint directory (the
    newest valid archive wins), or a telemetry run id / run directory
    (its ``checkpoints/`` subdirectory is used).  This is the one place
    that knows every way to name a checkpoint: the serving
    :class:`~repro.serve.ModelRegistry` resolves live and candidate
    models through it, and ``repro swap`` validates a candidate with it
    before any traffic is mirrored.  Raises :class:`CheckpointError`
    when the source cannot be resolved to a valid archive.
    """
    path = pathlib.Path(source)
    if path.is_file():
        state, meta = CheckpointManager(path.parent).load(path)
        return state, meta, path
    if path.is_dir() and not (path / "manifest.json").is_file():
        return (*_load_directory(path), path)
    from ..telemetry.registry import find_run
    try:
        run = find_run(str(source), root=run_root)
    except (FileNotFoundError, ValueError) as error:
        raise CheckpointError(
            f"cannot resolve {source!r} as a checkpoint file, directory, "
            f"or run id: {error}") from error
    directory = pathlib.Path(run.directory) / "checkpoints"
    if not directory.is_dir():
        raise CheckpointError(
            f"run {source!r} has no checkpoints/ directory "
            f"(was it trained with checkpointing enabled?)")
    return (*_load_directory(directory), directory)


def _load_directory(directory: pathlib.Path) -> tuple[TrainingState, dict]:
    loaded = CheckpointManager(directory).load_latest()
    if loaded is None:
        raise CheckpointError(f"no valid checkpoint under {directory}")
    return loaded
