"""Observability overhead benchmark: the metrics layer must be ~free.

Two regimes over identical fixed-seed workloads:

* ``train`` — a short pre-training run.  Instrumentation here is
  per-epoch (a handful of registry operations after hundreds of
  optimizer steps), so enabled overhead should vanish into noise.
* ``serve`` — a request-per-``request_size``-windows serving pass at
  the canonical serving geometry of ``BENCH_serve`` (seq 64, 7
  channels, d_model 64, 2 layers): the worst case, where every request
  mints trace ids, emits two span records, and touches four metric
  families.

Methodology: machine noise on shared runners dwarfs a few-percent
signal, so each regime pair (disabled, enabled) runs back-to-back per
round — adjacent in time, sharing whatever load state the host is in —
with the in-pair order alternating to cancel thermal/turbo bias, and
the reported overhead is the **median of paired differences** over many
rounds.  Minima and medians of the raw samples are reported alongside
for cross-checking.

Emits ``BENCH_obs.json`` at the repo root.  The acceptance bar from the
observability design: **enabled** overhead stays under 5% on the serve
path, and the **disabled** path is the unchanged pre-obs code (nothing
to subtract: no obs code runs — locked separately by the bit-identity
equivalence tests).
"""

import json
import pathlib
import statistics
import time

import numpy as np

from repro.checkpoint import CheckpointConfig
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.obs import metrics as obs_metrics
from repro.serve import (BatchingConfig, GatewayConfig, ModelRegistry,
                         ServingGateway)

from conftest import run_once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_obs.json"

WORKLOAD = {"train_windows": 96, "train_epochs": 2, "train_pairs": 8,
            "serve_windows": 256, "seq_len": 64, "channels": 7,
            "request_size": 2, "max_batch_size": 32, "serve_pairs": 40}
MODEL = dict(seq_len=WORKLOAD["seq_len"], input_channels=WORKLOAD["channels"],
             patch_len=8, stride=8, d_model=64, num_heads=4, num_layers=2,
             seed=0)


def _train_once() -> float:
    data = np.random.default_rng(11).standard_normal(
        (WORKLOAD["train_windows"], WORKLOAD["seq_len"],
         WORKLOAD["channels"])).astype(np.float32)
    start = time.perf_counter()
    run_pretrain(TimeDRLConfig(**MODEL), data,
                 PretrainConfig(epochs=WORKLOAD["train_epochs"],
                                batch_size=16, seed=0))
    return time.perf_counter() - start


def _paired(thunk, pairs: int) -> dict:
    """Back-to-back (disabled, enabled) rounds, alternating in-pair order.

    Returns the paired-difference median overhead plus the raw sample
    medians/minima.  Each enabled run gets a fresh registry so counter
    state never accumulates across rounds.
    """
    def disabled():
        obs_metrics.disable()
        return thunk()

    def enabled():
        obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        try:
            return thunk()
        finally:
            obs_metrics.disable()

    offs, diffs = [], []
    for i in range(pairs):
        if i % 2 == 0:
            off = disabled()
            on = enabled()
        else:
            on = enabled()
            off = disabled()
        offs.append(off)
        diffs.append(on - off)
    median_off = statistics.median(offs)
    median_diff = statistics.median(diffs)
    return {
        "disabled_s": median_off,
        "enabled_s": median_off + median_diff,
        "enabled_overhead_pct": 100.0 * median_diff / median_off,
        "min_disabled_s": min(offs),
        "min_enabled_s": min(off + diff for off, diff in zip(offs, diffs)),
        "pairs": pairs,
    }


def _measure_suite(checkpoint_dir) -> dict:
    rng = np.random.default_rng(1)
    serve_windows = rng.standard_normal(
        (WORKLOAD["serve_windows"], WORKLOAD["seq_len"],
         WORKLOAD["channels"])).astype(np.float32)
    # cache_size=1 with unique windows: every request misses, so the
    # forward pass (not the cache) dominates both regimes equally.
    registry = ModelRegistry()
    registry.load(checkpoint_dir, alias="serving")
    service = ServingGateway(registry, "serving", GatewayConfig(
        batching=BatchingConfig(max_batch_size=WORKLOAD["max_batch_size"]),
        cache_size=1))
    for __ in range(3):  # warm code paths and the allocator
        service.serve_windows(serve_windows,
                              request_size=WORKLOAD["request_size"])

    def serve_once() -> float:
        start = time.perf_counter()
        service.serve_windows(serve_windows, mode="encode",
                              request_size=WORKLOAD["request_size"])
        return time.perf_counter() - start

    serve = _paired(serve_once, WORKLOAD["serve_pairs"])
    requests = WORKLOAD["serve_windows"] // WORKLOAD["request_size"]
    serve["overhead_us_per_request"] = (
        (serve["enabled_s"] - serve["disabled_s"]) / requests * 1e6)
    train = _paired(_train_once, WORKLOAD["train_pairs"])
    return {"train": train, "serve": serve}


def test_perf_obs(benchmark, tmp_path):
    data = np.random.default_rng(0).standard_normal(
        (48, WORKLOAD["seq_len"], WORKLOAD["channels"])).astype(np.float32)
    obs_metrics.disable()
    run_pretrain(TimeDRLConfig(**MODEL), data, PretrainConfig(
        epochs=1, batch_size=16, seed=0,
        checkpoint=CheckpointConfig(directory=str(tmp_path / "ckpt"),
                                    every_n_epochs=1)))
    try:
        measured = run_once(benchmark,
                            lambda: _measure_suite(tmp_path / "ckpt"))
    finally:
        obs_metrics.disable()

    report = {"workload": dict(WORKLOAD), "model": dict(MODEL), **measured}
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    for path in ("train", "serve"):
        entry = measured[path]
        print(f"{path}: disabled {entry['disabled_s']:.3f}s, "
              f"enabled {entry['enabled_s']:.3f}s "
              f"({entry['enabled_overhead_pct']:+.2f}% overhead over "
              f"{entry['pairs']} pairs)")
    print(f"serve: {measured['serve']['overhead_us_per_request']:.1f} us "
          f"per request")
    print(f"wrote {OUTPUT_PATH}")

    for path in ("train", "serve"):
        assert measured[path]["disabled_s"] > 0
        assert measured[path]["enabled_s"] > 0
    # The acceptance bar: full instrumentation costs < 5% even on the
    # per-request serve path (train is per-epoch and far below that).
    assert measured["serve"]["enabled_overhead_pct"] < 5.0
    assert measured["train"]["enabled_overhead_pct"] < 5.0
