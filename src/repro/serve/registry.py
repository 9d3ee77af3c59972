"""Model registry: from checkpoint archives to a warm, validated pool.

The registry is the serving subsystem's only door to disk.  It resolves
a *source* — a ``ckpt-*.npz`` file, a checkpoint directory, or a
telemetry run id — through :class:`~repro.checkpoint.CheckpointManager`
(so every load is checksum-verified), rebuilds the model from the
self-describing checkpoint meta (``model_config`` / ``data_spec``,
stored there by the training loop exactly for this hand-off), and keeps
the result warm in an in-process pool keyed by the caller's alias.

A checkpoint whose backbone compiles
(:data:`~repro.compile.packing.COMPILABLE_BACKBONES`) is served as the
in-memory fp32 exact :class:`~repro.compile.CompiledModel` packed from
its own arrays: plain-array kernels, outputs bit-identical to the
rebuilt :class:`TimeDRL`.  Other backbones are served as that
:class:`TimeDRL`.

Every loaded checkpoint carries its ``content_sha256`` as its
*fingerprint* — the cache-key half that guarantees an
:class:`~repro.serve.EmbeddingCache` can never serve embeddings from a
different set of weights.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..checkpoint.manager import CheckpointError, resolve_checkpoint_source
from ..compile.artifact import is_compiled_artifact, load_compiled
from ..compile.errors import CompileError
from ..compile.model import exact_fp32_model
from ..compile.packing import COMPILABLE_BACKBONES, export_model_arrays
from ..core.config import TimeDRLConfig
from ..core.model import TimeDRL
from ..obs import trace as obs_trace
from ..obs.metrics import get_registry

__all__ = ["ModelRegistry", "LoadedModel", "RegistryError", "ShapeMismatch"]


class RegistryError(RuntimeError):
    """A model could not be resolved, rebuilt, or validated."""


class ShapeMismatch(RegistryError):
    """Request input shape disagrees with the checkpoint's data spec."""


@dataclass
class LoadedModel:
    """One servable model plus the provenance the engine needs.

    ``model`` is anything speaking the :class:`~repro.serve.api.
    InferenceAPI` protocol with a ``config``: a
    :class:`~repro.compile.CompiledModel` (a compiled artifact, or a
    transformer checkpoint packed at load) or a checkpoint-rebuilt
    :class:`TimeDRL` (the other backbones, and ``register``).
    """

    model: object
    fingerprint: str
    config: TimeDRLConfig
    meta: dict = field(default_factory=dict)
    source: str = ""

    @property
    def data_spec(self) -> dict | None:
        return self.meta.get("data_spec")

    def validate_input(self, x: np.ndarray) -> np.ndarray:
        """Check a request batch against the model's expected geometry.

        Validates ``(B, seq_len, input_channels)`` against the model
        config and, when the checkpoint carries a data spec, cross-checks
        the spec's ``seq_len`` too (a stale spec would mean the archive
        was trained on different windows than it claims).  Returns the
        array as contiguous float32, the dtype the substrate computes in.
        """
        x = np.asarray(x)
        if x.ndim != 3:
            raise ShapeMismatch(
                f"expected a (B, T, C) batch of raw windows, got shape {x.shape}")
        expected = (self.config.seq_len, self.config.input_channels)
        if x.shape[1:] != expected:
            raise ShapeMismatch(
                f"window shape {x.shape[1:]} does not match the checkpoint's "
                f"(seq_len, channels) = {expected} (source: {self.source})")
        spec = self.data_spec
        if spec and "seq_len" in spec and spec["seq_len"] != self.config.seq_len:
            raise ShapeMismatch(
                f"checkpoint data spec declares seq_len={spec['seq_len']} but "
                f"the model config says {self.config.seq_len}; refusing to "
                "serve an inconsistent archive")
        return np.ascontiguousarray(x, dtype=np.float32)


class ModelRegistry:
    """Warm pool of checkpoint-backed models, keyed by alias.

    ``get(alias)`` returns a previously loaded model without touching
    disk; ``load(source, alias=...)`` populates the pool.  A telemetry
    ``run`` (optional) receives one ``message`` event per load.
    """

    def __init__(self, run=None):
        self._pool: dict[str, LoadedModel] = {}
        # The gateway reads aliases from its dispatch path while a
        # rolling swap loads/promotes/unloads concurrently; every pool
        # access goes through this lock so a flip is atomic.
        self._lock = threading.Lock()
        self._run = run

    # -- pool ------------------------------------------------------------
    def __contains__(self, alias: str) -> bool:
        with self._lock:
            return alias in self._pool

    def __len__(self) -> int:
        with self._lock:
            return len(self._pool)

    def aliases(self) -> list[str]:
        with self._lock:
            return sorted(self._pool)

    def get(self, alias: str) -> LoadedModel:
        with self._lock:
            loaded = self._pool.get(alias)
        if loaded is None:
            raise RegistryError(
                f"no model loaded under alias {alias!r}; "
                f"known: {self.aliases() or 'none'}")
        return loaded

    def register(self, alias: str, model, fingerprint: str,
                 meta: dict | None = None, source: str = "<memory>"
                 ) -> LoadedModel:
        """Adopt an already-built model (tests, benchmarks, notebooks)."""
        model.eval()
        loaded = LoadedModel(model=model, fingerprint=fingerprint,
                             config=model.config, meta=meta or {},
                             source=source)
        with self._lock:
            self._pool[alias] = loaded
        return loaded

    def promote(self, alias: str, candidate: LoadedModel
                ) -> LoadedModel | None:
        """Atomically point ``alias`` at ``candidate``; returns the model
        previously behind the alias (``None`` if the alias is new).

        This is the flip at the end of a rolling swap: a reader sees
        either the old model or the new one, never an empty alias.
        """
        with self._lock:
            previous = self._pool.get(alias)
            self._pool[alias] = candidate
        if self._run is not None and getattr(self._run, "enabled", False):
            self._run.emit("message",
                           text=f"serve: alias {alias!r} now serves "
                                f"fingerprint={candidate.fingerprint[:12]}")
        return previous

    def unload(self, alias: str) -> LoadedModel | None:
        """Drop an alias from the warm pool (rollback of a candidate)."""
        with self._lock:
            return self._pool.pop(alias, None)

    # -- loading ---------------------------------------------------------
    def load(self, source, alias: str | None = None,
             run_root="results/runs") -> LoadedModel:
        """Resolve ``source`` and pull the model into the warm pool.

        ``source`` may be a checkpoint file (``ckpt-*.npz``), a checkpoint
        directory (the newest valid archive wins), a telemetry run id /
        run directory (its ``checkpoints/`` subdirectory is used), or a
        compiled artifact (``repro compile`` output).  Both are
        checksum-verified.  A transformer checkpoint is served on the
        fp32 exact packed forward under its own ``content_sha256``; a
        checkpoint of a format version this build does not read is
        refused with a :class:`RegistryError` naming the version.
        """
        started = time.perf_counter()
        with obs_trace.span("registry.load", source=str(source)):
            if is_compiled_artifact(source):
                loaded = self._build_compiled(source)
            else:
                try:
                    state, meta, path = resolve_checkpoint_source(
                        source, run_root=run_root)
                except CheckpointError as error:
                    raise RegistryError(str(error)) from error
                loaded = self._build(state, meta, str(path))
        with self._lock:
            self._pool[alias or str(source)] = loaded
        registry = get_registry()
        registry.counter("serve_model_loads_total",
                         "Models pulled into the warm pool").inc()
        registry.histogram("serve_model_load_ms",
                           "Checkpoint-to-warm-model load latency").observe(
            (time.perf_counter() - started) * 1e3)
        if self._run is not None and getattr(self._run, "enabled", False):
            self._run.emit("message",
                           text=f"serve: loaded {loaded.source} "
                                f"fingerprint={loaded.fingerprint[:12]}")
        return loaded

    def _build_compiled(self, source) -> LoadedModel:
        try:
            compiled = load_compiled(source)
        except CompileError as error:
            raise RegistryError(str(error)) from error
        get_registry().counter(
            "serve_compiled_loads_total",
            "Compiled artifacts pulled into the warm pool").inc()
        return LoadedModel(model=compiled, fingerprint=compiled.fingerprint,
                           config=compiled.config, meta=compiled.meta,
                           source=str(source))

    def _build(self, state, meta: dict, source: str) -> LoadedModel:
        model_config = meta.get("model_config")
        if not model_config:
            raise RegistryError(
                f"checkpoint {source} carries no model_config meta; only "
                "pre-training checkpoints are servable")
        try:
            config = TimeDRLConfig(**model_config)
        except (TypeError, ValueError) as error:
            raise RegistryError(
                f"checkpoint {source} has an invalid model_config: {error}"
            ) from error
        model = TimeDRL(config)
        model.load_state_dict(state.model_state, strict=True)
        model.eval()
        fingerprint = meta.get("content_sha256") or "unfingerprinted"
        if config.backbone in COMPILABLE_BACKBONES:
            arrays, structure = export_model_arrays(model)
            model = exact_fp32_model(arrays, structure, config,
                                     fingerprint=fingerprint)
        return LoadedModel(model=model, fingerprint=fingerprint,
                           config=config, meta=meta, source=source)
