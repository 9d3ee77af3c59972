"""Serving-path benchmark: throughput, request latency, cache effect.

Unlike the table/figure benchmarks this one times the *serving subsystem*:
a pre-trained checkpoint is loaded through the :class:`ModelRegistry` and
a repeated-window workload is pushed through the
:class:`ServingGateway` front door (one ``default`` tenant, no quota) in
batch mode, the way the ``repro serve`` CLI does.

It emits ``BENCH_serve.json`` at the repo root with three measurement
sets over the same workload:

* ``direct``   — plain ``model.encode()`` over the full workload in one
  batch: the no-serving-overhead ceiling;
* ``cold``     — the gateway with an empty cache (every request misses),
  isolating the micro-batching/queueing overhead;
* ``warm``     — the same workload replayed against the populated cache
  (every request hits), which is the dashboards-re-scoring-recent-history
  regime the cache exists for;
* ``warm_nocache`` — the replay with the cache disabled entirely
  (``cache_size=0``): warm-model throughput with zero cache hits, which
  separates what the cache buys from what kernel warm-up buys and is the
  honest baseline for the compiled-artifact rows in
  ``benchmarks/test_perf_compile.py``.

Each set records throughput (windows/s) and per-request p50/p95 latency
from the engine's own histograms — the numbers the latency report and
telemetry surface in production — and ``host_cpus``, the CPUs the
process may run on, so a re-run can tell whether it is comparable with
the committed rows.
"""

import json
import os
import pathlib
import time

import numpy as np

from repro.checkpoint import CheckpointConfig
from repro.core import PretrainConfig, TimeDRLConfig, run_pretrain
from repro.serve import (BatchingConfig, GatewayConfig, ModelRegistry,
                         ServingGateway)

from conftest import run_once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serve.json"

WORKLOAD = {"windows": 256, "seq_len": 64, "channels": 7,
            "request_size": 1, "max_batch_size": 32}


def _row(**fields) -> dict:
    """One measured row, stamped with the host's usable CPU count."""
    return {**fields, "host_cpus": len(os.sched_getaffinity(0))}


def _make_checkpoint(directory: pathlib.Path) -> pathlib.Path:
    config = TimeDRLConfig(seq_len=WORKLOAD["seq_len"],
                           input_channels=WORKLOAD["channels"],
                           patch_len=8, stride=8, d_model=64,
                           num_heads=4, num_layers=2, seed=0)
    rng = np.random.default_rng(0)
    windows = rng.standard_normal(
        (64, WORKLOAD["seq_len"], WORKLOAD["channels"])).astype(np.float32)
    run_pretrain(config, windows, PretrainConfig(
        epochs=1, batch_size=16, seed=0,
        checkpoint=CheckpointConfig(directory=str(directory),
                                    every_n_epochs=1)))
    return directory


def _measure_suite(checkpoint_dir: pathlib.Path) -> dict:
    rng = np.random.default_rng(1)
    windows = rng.standard_normal(
        (WORKLOAD["windows"], WORKLOAD["seq_len"], WORKLOAD["channels"]),
    ).astype(np.float32)

    registry = ModelRegistry()
    model = registry.load(checkpoint_dir, alias="serving").model

    def gateway(cache_size: int) -> ServingGateway:
        return ServingGateway(registry, "serving", GatewayConfig(
            batching=BatchingConfig(max_batch_size=WORKLOAD["max_batch_size"]),
            cache_size=cache_size))

    model.encode(windows[:8])  # warm both paths before any timing
    gateway(0).serve_windows(windows[:8], request_size=1)
    # A fresh gateway, so the warm-up's hits/misses don't pollute the
    # counters; the model's kernels stay warm.
    service = gateway(2 * WORKLOAD["windows"])
    # Same loaded model, no cache at all: every request pays the forward,
    # but the kernels are warm — the cacheless-throughput row.
    nocache = gateway(0)

    def timed_direct():
        start = time.perf_counter()
        model.encode(windows)
        return time.perf_counter() - start

    direct_s = timed_direct()

    def timed_pass(front: ServingGateway) -> dict:
        hist = front._engine.latency["encode"]
        hist.reset()
        start = time.perf_counter()
        front.serve_windows(windows, request_size=WORKLOAD["request_size"])
        elapsed = time.perf_counter() - start
        return _row(windows_per_s=WORKLOAD["windows"] / elapsed,
                    elapsed_s=elapsed,
                    p50_ms=hist.percentile(50),
                    p95_ms=hist.percentile(95))

    cold = timed_pass(service)    # cache empty: every request misses
    warm = timed_pass(service)    # cache populated: every request hits
    stats = service.cache.stats()
    warm_nocache = timed_pass(nocache)

    return {
        "direct": _row(windows_per_s=WORKLOAD["windows"] / direct_s,
                       elapsed_s=direct_s),
        "cold": cold,
        "warm": warm,
        "warm_nocache": warm_nocache,
        "cache": stats.as_dict(),
    }


OVERLOAD = {"requests": 192, "request_size": 2, "light_every": 8,
            "queue_windows": 16}


def _measure_overload(checkpoint_dir: pathlib.Path) -> dict:
    """Mixed-tenant overload: the same offered load with and without the
    gateway's bounded admission queue.

    Without a gateway every request queues into the engine, so the tail
    of the backlog waits for every forward before it — accepted p99
    grows with offered load.  The gateway sheds the excess at the door
    (``Overloaded``) and keeps the engine backlog at
    ``queue_windows``, so accepted-request p99 stays bounded no matter
    how much is offered.  Latency is the engine's own per-request
    histogram, the same series the latency report surfaces.
    """
    from repro.serve import (BatchingConfig, BatchingEngine, GatewayConfig,
                             ModelRegistry, Overloaded, QuotaExceeded,
                             ServingGateway, TenantConfig)

    size = OVERLOAD["request_size"]
    rng = np.random.default_rng(2)
    requests = [rng.standard_normal(
        (size, WORKLOAD["seq_len"], WORKLOAD["channels"])).astype(np.float32)
        for __ in range(OVERLOAD["requests"])]

    registry = ModelRegistry()
    loaded = registry.load(checkpoint_dir, alias="serving")
    loaded.model.encode(requests[0])   # warm the kernels before timing

    engine = BatchingEngine(
        loaded, BatchingConfig(max_batch_size=WORKLOAD["max_batch_size"]))
    for x in requests:
        engine.submit(x, "encode")
    engine.flush()
    hist = engine.latency["encode"]
    baseline = _row(served=OVERLOAD["requests"], shed=0,
                    p50_ms=hist.percentile(50), p99_ms=hist.percentile(99))
    engine.close()

    # The gateway front door: a flooding tenant and a light one (every
    # ``light_every``-th request) share a 16-window admission budget.
    gateway = ServingGateway(registry, "serving", GatewayConfig(
        tenants=(TenantConfig("flood"), TenantConfig("light", weight=4.0)),
        max_queue_windows=OVERLOAD["queue_windows"], breaker=None,
        cache_size=0,
        batching=BatchingConfig(max_batch_size=WORKLOAD["max_batch_size"])))
    served = shed = 0
    with gateway:
        for index, x in enumerate(requests):
            tenant = ("light" if index % OVERLOAD["light_every"] == 0
                      else "flood")
            try:
                gateway.submit(x, "encode", tenant=tenant)
                served += 1
            except (Overloaded, QuotaExceeded):
                shed += 1
                gateway.flush()    # drain the admitted backlog, move on
        gateway.flush()
        hist = gateway._engine.latency["encode"]
        gated = _row(served=served, shed=shed,
                     p50_ms=hist.percentile(50),
                     p99_ms=hist.percentile(99),
                     admitted_per_tenant=gateway.report()["admission"][
                         "admitted"])
    return {"no_gateway": baseline, "gateway": gated}


def _merge_report(section: str, payload: dict) -> dict:
    report = {}
    if OUTPUT_PATH.is_file():
        report = json.loads(OUTPUT_PATH.read_text())
    report[section] = payload
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_perf_serve(benchmark, tmp_path):
    checkpoint_dir = _make_checkpoint(tmp_path / "ckpt")
    measured = run_once(benchmark, lambda: _measure_suite(checkpoint_dir))

    report = {"workload": dict(WORKLOAD), **measured}
    if OUTPUT_PATH.is_file():
        previous = json.loads(OUTPUT_PATH.read_text())
        for section in ("overload", "compiled"):
            if section in previous:
                report[section] = previous[section]
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    for key in ("direct", "cold", "warm", "warm_nocache"):
        entry = measured[key]
        line = f"{key}: {entry['windows_per_s']:.0f} windows/s"
        if "p50_ms" in entry:
            line += (f" (p50={entry['p50_ms']:.3f}ms"
                     f" p95={entry['p95_ms']:.3f}ms)")
        print(line)
    cache = measured["cache"]
    print(f"cache: hit rate {cache['hit_rate']:.1%} "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    print(f"wrote {OUTPUT_PATH}")

    for key in ("direct", "cold", "warm", "warm_nocache"):
        assert np.isfinite(measured[key]["windows_per_s"])
        assert measured[key]["windows_per_s"] > 0
    # Repeated-input workload must actually exercise the cache, and a
    # fully warm pass must beat the cold pass it replays.
    assert cache["hit_rate"] == 0.5
    assert measured["warm"]["elapsed_s"] < measured["cold"]["elapsed_s"]
    # The cacheless replay pays every forward: cache hits must beat it.
    assert measured["warm"]["elapsed_s"] < measured["warm_nocache"]["elapsed_s"]


def test_perf_serve_overload(benchmark, tmp_path):
    checkpoint_dir = _make_checkpoint(tmp_path / "ckpt")
    measured = run_once(benchmark, lambda: _measure_overload(checkpoint_dir))
    _merge_report("overload", {"workload": dict(OVERLOAD), **measured})

    baseline, gated = measured["no_gateway"], measured["gateway"]
    print()
    print(f"no gateway: {baseline['served']} served, p50="
          f"{baseline['p50_ms']:.2f}ms p99={baseline['p99_ms']:.2f}ms")
    print(f"gateway:    {gated['served']} served / {gated['shed']} shed, "
          f"p50={gated['p50_ms']:.2f}ms p99={gated['p99_ms']:.2f}ms "
          f"(admitted {gated['admitted_per_tenant']})")
    print(f"wrote {OUTPUT_PATH}")

    # The robustness contract: under the same offered load, shedding at
    # the door keeps accepted-request tail latency bounded while the
    # ungated engine's backlog pushes p99 out with every extra request.
    assert gated["shed"] > 0
    assert gated["served"] + gated["shed"] == OVERLOAD["requests"]
    assert gated["p99_ms"] < baseline["p99_ms"]
    # Fair admission: the light tenant was not starved by the flood.
    assert gated["admitted_per_tenant"].get("light", 0) > 0
