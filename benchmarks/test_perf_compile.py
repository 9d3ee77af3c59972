"""Compiled inference-path benchmark (``repro.compile`` vs the fused path).

Times the packed no-grad forward against the current fused autograd
``encode`` at the engine reference workload (batch 8, T=128, C=7 — the
same geometry as ``test_perf_autograd.py``), with the same paired
interleaved min-of-reps methodology, and writes a ``compiled`` section
into both ``BENCH_autograd.json`` (encode latency / speedups) and
``BENCH_serve.json`` (serve-throughput of the artifacts through the
registry + micro-batching service).  Both sections record ``host_cpus``,
the CPUs the process may run on, so a re-run can tell whether it is
comparable with the committed numbers.

Rows and their gates:

* ``packed_fp32_exact`` — bit-identical exact mode (erf GELU, separate
  q/k/v GEMMs).  Enforced: >= 1.15x.  Both sides run the same vectorised
  erf (``repro.nn.erf``) and the same ``(in, out)`` weights, so the row
  measures packing and in-place kernels alone; five runs on a 2-core
  host measured 1.17x to 1.25x, and the floor sits below their minimum.
* ``packed_int8`` — the default fast path (tanh GELU, fused QKV,
  dequant-free int8 grid).  Enforced: >= 1.5x vs the fused fp path.
* ``student_int8`` — a distilled 32-wide 1-layer student, quantized.
  Enforced: >= 1.5x (in practice far above).
"""

import json
import os
import pathlib
import time

import numpy as np

from repro.compile import CompileOptions, DistillConfig, compile_model, run_distillation
from repro.core.config import TimeDRLConfig
from repro.core.model import TimeDRL
from repro.nn import use_fused
from repro.utils.training import set_global_seed

from conftest import run_once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
AUTOGRAD_PATH = REPO_ROOT / "BENCH_autograd.json"
SERVE_PATH = REPO_ROOT / "BENCH_serve.json"

WORKLOAD = {"batch_size": 8, "seq_len": 128, "channels": 7}
ENFORCED_FLOOR = 1.5
FP32_EXACT_FLOOR = 1.15
WARMUP = 3
REPS = 25


def _build_models():
    set_global_seed(0)
    config = TimeDRLConfig(seq_len=WORKLOAD["seq_len"],
                           input_channels=WORKLOAD["channels"])
    model = TimeDRL(config).eval()
    rng = np.random.default_rng(0)
    calibration = rng.standard_normal(
        (64, WORKLOAD["seq_len"], WORKLOAD["channels"])).astype(np.float32)
    fp32, __ = compile_model(model, CompileOptions("fp32"),
                             calibration=calibration[:16])
    int8, __ = compile_model(model, CompileOptions("int8"),
                             calibration=calibration)
    student = run_distillation(
        model, calibration,
        config=DistillConfig(d_model=32, num_layers=1, num_heads=2,
                             epochs=1, batch_size=32, seed=0))
    student_int8, __ = compile_model(student.model, CompileOptions("int8"),
                                     calibration=calibration)
    return model, {"packed_fp32_exact": fp32, "packed_int8": int8,
                   "student_int8": student_int8}


def _measure_encode() -> dict:
    """Paired interleaved min-of-reps: fused fp vs each compiled variant."""
    model, compiled = _build_models()
    x = np.random.default_rng(1).standard_normal(
        (WORKLOAD["batch_size"], WORKLOAD["seq_len"],
         WORKLOAD["channels"])).astype(np.float32)

    cases = {"fused_nograd": lambda: model.encode(x)}
    cases.update({name: (lambda c=c: c.encode(x))
                  for name, c in compiled.items()})
    with use_fused(True):
        for func in cases.values():
            for __ in range(WARMUP):
                func()
        best = {name: np.inf for name in cases}
        for __ in range(REPS):
            for name, func in cases.items():
                start = time.perf_counter()
                func()
                best[name] = min(best[name],
                                 time.perf_counter() - start)
    fused = best["fused_nograd"]
    return {
        "workload": dict(WORKLOAD),
        "host_cpus": len(os.sched_getaffinity(0)),
        "timer": {"warmup": WARMUP, "reps": REPS, "statistic": "min",
                  "pairing": "all variants interleaved per rep"},
        "encode_min_s": {name: float(value) for name, value in best.items()},
        "speedup_vs_fused": {name: float(fused / value)
                             for name, value in best.items()
                             if name != "fused_nograd"},
        "enforced_floor": {"packed_int8": ENFORCED_FLOOR,
                           "student_int8": ENFORCED_FLOOR,
                           "packed_fp32_exact": FP32_EXACT_FLOOR},
    }


SERVE_WINDOWS = 256


def _measure_serve(tmp_path: pathlib.Path) -> dict:
    """Artifact serve-throughput through registry + gateway, cache off —
    comparable to ``BENCH_serve.json``'s ``warm_nocache``."""
    from repro.compile import save_compiled
    from repro.serve import (BatchingConfig, GatewayConfig, ModelRegistry,
                             ServingGateway)

    model, compiled = _build_models()
    rng = np.random.default_rng(2)
    windows = rng.standard_normal(
        (SERVE_WINDOWS, WORKLOAD["seq_len"],
         WORKLOAD["channels"])).astype(np.float32)
    rows = {}
    for name, variant in compiled.items():
        path = save_compiled(tmp_path / f"{name}.npz", variant)
        registry = ModelRegistry()
        registry.load(path, alias="serving")
        service = ServingGateway(registry, "serving", GatewayConfig(
            batching=BatchingConfig(max_batch_size=32), cache_size=0))
        service.serve_windows(windows[:8], request_size=1)   # warm
        start = time.perf_counter()
        service.serve_windows(windows, request_size=1)
        elapsed = time.perf_counter() - start
        rows[name] = {"windows_per_s": SERVE_WINDOWS / elapsed,
                      "elapsed_s": elapsed,
                      "artifact_bytes": path.stat().st_size,
                      "fingerprint": service.loaded.fingerprint[:12]}
    return rows


def _merge(path: pathlib.Path, payload: dict) -> None:
    report = json.loads(path.read_text()) if path.is_file() else {}
    report["compiled"] = payload
    path.write_text(json.dumps(report, indent=2) + "\n")


def test_perf_compile(benchmark, tmp_path):
    measured = run_once(benchmark, _measure_encode)
    serve_rows = _measure_serve(tmp_path)
    _merge(AUTOGRAD_PATH, measured)
    _merge(SERVE_PATH, {"workload": {"windows": SERVE_WINDOWS,
                                     **{k: WORKLOAD[k] for k in
                                        ("seq_len", "channels")}},
                        "host_cpus": len(os.sched_getaffinity(0)),
                        "throughput": serve_rows})

    print()
    fused = measured["encode_min_s"]["fused_nograd"]
    print(f"fused_nograd: {fused * 1e3:.3f}ms")
    for name, speedup in measured["speedup_vs_fused"].items():
        floor = measured["enforced_floor"][name]
        gate = f">= {floor}x" if floor else "unenforced"
        print(f"{name}: {measured['encode_min_s'][name] * 1e3:.3f}ms "
              f"({speedup:.2f}x vs fused, {gate}) "
              f"serve {serve_rows[name]['windows_per_s']:.0f} windows/s")
    print(f"wrote {AUTOGRAD_PATH} and {SERVE_PATH}")

    for value in measured["encode_min_s"].values():
        assert np.isfinite(value) and value > 0
    speedups = measured["speedup_vs_fused"]
    assert speedups["packed_fp32_exact"] >= FP32_EXACT_FLOOR
    assert speedups["packed_int8"] >= ENFORCED_FLOOR
    assert speedups["student_int8"] >= ENFORCED_FLOOR
    for row in serve_rows.values():
        assert np.isfinite(row["windows_per_s"]) and row["windows_per_s"] > 0
