"""The compile pipeline: model → (calibrate → quantize →) packed artifact.

``compile_model`` is the in-memory pass; ``compile_checkpoint`` is the
one-call driver behind the ``repro compile`` CLI: resolve a checkpoint,
materialize calibration windows from a data spec, optionally distill a
student, compile, report, and save the checksummed artifact.

Every pass records obs metric families (``compile_passes_total``,
``compile_pass_ms``, ``compile_max_abs_diff``) and returns a JSON-able
report with the per-layer quantization decisions and the strict
``max_abs_diff`` of the compiled outputs against the fp reference.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from ..checkpoint.manager import _content_digest, resolve_checkpoint_source
from ..core.config import TimeDRLConfig
from ..core.model import TimeDRL
from ..data.io import DataValidationError
from ..data.specs import (
    materialize_spec_rows,
    spec_total_windows,
    store_spec,
    synthetic_windows_spec,
)
from ..data.store import open_store
from ..obs.metrics import get_registry
from .distill import DistillConfig, run_distillation
from .errors import CompileError
from .model import CompiledModel, _pool_instance, exact_fp32_model
from .packing import build_packed_linear, export_model_arrays
from .quantize import observe_activation_ranges, plan_quantization, record_range

__all__ = ["CompileOptions", "compile_model", "compile_checkpoint",
           "resolve_calibration_spec"]

PRECISIONS = ("fp32", "int8")


@dataclass
class CompileOptions:
    """Knobs for one compile pass."""

    precision: str = "int8"
    # None: exact erf GELU for fp32 (bit-identity), tanh GELU for int8
    # (already inside the quantization tolerance; ~4x faster per call).
    exact_gelu: bool | None = None
    # None: fuse the q/k/v GEMMs whenever GELU is approximated anyway —
    # fusion drifts by ~1 ulp, so exact mode keeps separate GEMMs.
    fuse_qkv: bool | None = None
    error_budget: float = 1.0      # per-layer predicted output error cap
    calibration_batch: int = 64

    def resolved_exact_gelu(self) -> bool:
        if self.exact_gelu is None:
            return self.precision == "fp32"
        return bool(self.exact_gelu)

    def resolved_fuse_qkv(self) -> bool:
        if self.fuse_qkv is None:
            return not self.resolved_exact_gelu()
        return bool(self.fuse_qkv)

    def validate(self) -> None:
        if self.precision not in PRECISIONS:
            raise CompileError(
                f"precision must be one of {PRECISIONS}, "
                f"got {self.precision!r}")


def _batched(windows: np.ndarray, size: int):
    for start in range(0, windows.shape[0], size):
        yield windows[start:start + size]


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise CompileError(
            f"reference/compiled output shapes diverge: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


def _calibrate(model, arrays: dict, structure: dict, options: CompileOptions,
               windows: np.ndarray) -> dict[str, float]:
    """Activation ranges from a fp32 packed dry run over ``windows``."""
    probe = exact_fp32_model(arrays, structure, model.config)
    distilled = structure["distilled"]
    pooling = model.config.pooling

    def post(z, ranges):
        z_t = z[:, 1:, :]
        pooled = _pool_instance(z[:, 0, :], z_t, pooling)
        if distilled:
            record_range(ranges, "patch_proj", z_t)
            record_range(ranges, "inst_proj", pooled)
            z_t = build_packed_linear(arrays, "patch_proj")(z_t)
        record_range(ranges, "head", z_t)

    batches = (probe._prepare(batch) for batch in
               _batched(windows, options.calibration_batch))
    return observe_activation_ranges(probe._encoder, batches, post=post)


def compile_model(model, options: CompileOptions | None = None,
                  calibration: np.ndarray | None = None
                  ) -> tuple[CompiledModel, dict]:
    """Compile ``model`` (a ``TimeDRL`` or distilled ``StudentModel``).

    ``calibration`` is a raw window batch ``(N, T, C)``; it drives the
    activation-range observation (int8 layer decisions) and the
    ``max_abs_diff`` report against the model's own fp forward.  Without
    it, int8 quantizes every layer (no range data, budget check vacuous)
    and the diff report is omitted — the CLI always calibrates.
    """
    options = options or CompileOptions()
    options.validate()
    started = time.perf_counter()
    arrays, structure = export_model_arrays(model)
    act_ranges: dict[str, float] = {}
    have_calibration = calibration is not None and len(calibration) > 0
    if have_calibration:
        calibration = np.asarray(calibration, dtype=np.float32)
        act_ranges = _calibrate(model, arrays, structure, options, calibration)
    decisions: list = []
    if options.precision == "int8":
        arrays, decisions = plan_quantization(
            arrays, structure, act_ranges,
            error_budget=options.error_budget)
    meta = {
        "model_config": dataclasses.asdict(model.config),
        "structure": structure,
        "precision": options.precision,
        "exact_gelu": options.resolved_exact_gelu(),
        "fuse_qkv": options.resolved_fuse_qkv(),
        "distilled": structure["distilled"],
        "activation_ranges": act_ranges,
        "quantization": [d.to_json() for d in decisions],
        "content_sha256": None,  # filled below / at save time
    }
    if structure["distilled"]:
        meta["teacher_config"] = dataclasses.asdict(model.teacher_config)
    meta["content_sha256"] = _content_digest(arrays)
    compiled = CompiledModel(arrays, meta)
    report = {
        "kind": compiled.kind,
        "precision": options.precision,
        "exact_gelu": compiled.exact_gelu,
        "fuse_qkv": options.resolved_fuse_qkv(),
        "distilled": compiled.distilled,
        "layers": [d.to_json() for d in decisions],
        "quantized_layers": sum(d.quantized for d in decisions),
        "total_layers": len(decisions),
        "calibration_windows": int(calibration.shape[0])
        if have_calibration else 0,
        "max_abs_diff": None,
    }
    if have_calibration:
        ref_t, ref_i = model.encode(calibration)
        got_t, got_i = compiled.encode(calibration)
        report["max_abs_diff"] = {
            "timestamp": _max_abs_diff(ref_t, got_t),
            "instance": _max_abs_diff(ref_i, got_i),
            "scores": _max_abs_diff(model.predict(calibration),
                                    compiled.predict(calibration)),
        }
    elapsed_ms = (time.perf_counter() - started) * 1e3
    report["compile_ms"] = elapsed_ms
    registry = get_registry()
    registry.counter("compile_passes_total", "Compile passes completed",
                     labels=("precision",)).labels(
        precision=options.precision).inc()
    registry.histogram("compile_pass_ms",
                       "Compile pass wall time").observe(elapsed_ms)
    if report["max_abs_diff"] is not None:
        diff_gauge = registry.gauge(
            "compile_max_abs_diff",
            "Compiled-vs-fp output drift on calibration windows",
            labels=("level",))
        for level, value in report["max_abs_diff"].items():
            diff_gauge.labels(level=level).set(value)
    return compiled, report


def resolve_calibration_spec(calibrate: str | None, config: TimeDRLConfig,
                             windows: int, seed: int) -> dict:
    """Turn the CLI's ``--calibrate`` value into a data spec.

    ``None`` → synthetic windows matching the model geometry;
    ``synthetic[:N[:seed]]`` → explicit synthetic spec; an existing
    directory → a :mod:`repro.data.store` window store.
    """
    if calibrate is None or calibrate.startswith("synthetic"):
        count, spec_seed = windows, seed
        if calibrate is not None:
            parts = calibrate.split(":")
            if len(parts) > 3 or parts[0] != "synthetic":
                raise CompileError(
                    f"bad --calibrate value {calibrate!r}; expected "
                    "'synthetic[:N[:seed]]' or a window-store directory")
            try:
                if len(parts) > 1:
                    count = int(parts[1])
                if len(parts) > 2:
                    spec_seed = int(parts[2])
            except ValueError as error:
                raise CompileError(
                    f"bad --calibrate value {calibrate!r}: {error}") from None
        return synthetic_windows_spec(count, seq_len=config.seq_len,
                                      channels=config.input_channels,
                                      seed=spec_seed)
    path = pathlib.Path(calibrate)
    if path.is_dir():
        return store_spec(path)
    raise CompileError(
        f"--calibrate {calibrate!r} is neither 'synthetic[:N[:seed]]' "
        "nor an existing window-store directory")


def _materialize_calibration(spec: dict, windows: int) -> np.ndarray:
    """The first ``windows`` windows of a synthetic or store spec."""
    if spec.get("kind") == "store":
        try:
            with open_store(spec["path"]) as store:
                rows = store.batch(np.arange(min(len(store), windows)))
        except DataValidationError as error:
            raise CompileError(f"--calibrate store: {error}") from None
    else:
        total = spec_total_windows(spec)
        count = windows if total is None else min(int(total), windows)
        rows = materialize_spec_rows(spec, 0, count)
    return np.asarray(rows, dtype=np.float32)


def compile_checkpoint(source, options: CompileOptions | None = None, *,
                       calibrate: str | None = None,
                       calibration_windows: int = 64,
                       distill: DistillConfig | dict | None = None,
                       output=None, run_root: str = "results/runs",
                       seed: int = 0, log=None
                       ) -> tuple[pathlib.Path, CompiledModel, dict]:
    """Checkpoint → (optionally distilled) compiled artifact on disk.

    Returns ``(artifact_path, compiled_model, report)``.  The report's
    ``max_abs_diff`` is measured against the fp forward of the model
    that was packed (the student's own fp forward when distilling — a
    student differs from its teacher by *training*, not rounding, so
    teacher drift is not a compile property).
    """
    options = options or CompileOptions()
    options.validate()
    state, meta, path = resolve_checkpoint_source(source, run_root=run_root)
    model_config = meta.get("model_config")
    if not model_config:
        raise CompileError(
            f"checkpoint {path} carries no model_config meta; only "
            "pre-training checkpoints are compilable")
    teacher = TimeDRL(TimeDRLConfig(**model_config))
    teacher.load_state_dict(state.model_state, strict=True)
    teacher.eval()
    spec = resolve_calibration_spec(calibrate, teacher.config,
                                    calibration_windows, seed)
    windows = _materialize_calibration(spec, calibration_windows)
    model = teacher
    distill_history = None
    if distill is not None:
        result = run_distillation(teacher, windows, config=distill, log=log)
        model = result.model
        distill_history = result.history
    compiled, report = compile_model(model, options, calibration=windows)
    compiled.meta["source_checkpoint"] = str(path)
    compiled.meta["source_fingerprint"] = meta.get("content_sha256")
    if meta.get("data_spec") is not None:
        compiled.meta["data_spec"] = meta["data_spec"]
    report["source_checkpoint"] = str(path)
    report["calibration_spec"] = spec
    if distill_history is not None:
        report["distill_history"] = distill_history
    from .artifact import save_compiled

    if output is None:
        output = pathlib.Path.cwd() / f"compiled-{compiled.kind}.npz"
    artifact_path = save_compiled(output, compiled)
    report["artifact"] = str(artifact_path)
    report["artifact_bytes"] = artifact_path.stat().st_size
    report["fingerprint"] = compiled.fingerprint
    return artifact_path, compiled, report
