"""The four end-to-end workloads, run one per child process.

``bench.py`` starts this file as a subprocess per workload run::

    python workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --preset default --workdir DIR

and reads ``DIR/result.json``.  A run sets the workload up
``setup_repeats`` times (``setup_s`` is the median; only the last set-up
is kept), runs its timed phases for ``--seconds``, then checks the
outputs it collected.  With ``--trace 1`` the layers are wrapped by
:mod:`tracing` from set-up to the end of the timed phases; the output
checks always run untraced.

Every input the program receives is generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import time

_IMPORT_STARTED = time.perf_counter()

import numpy as np  # noqa: E402

from repro.checkpoint import CheckpointConfig, TrainingHooks  # noqa: E402
from repro.compile import CompileOptions  # noqa: E402
from repro.compile import pipeline as compile_pipeline  # noqa: E402
from repro.core import PretrainConfig, TimeDRLConfig  # noqa: E402
from repro.data import specs, store  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.serve import (GatewayConfig, ModelRegistry,  # noqa: E402
                         ServingGateway, TenantConfig)
from repro.train import TrainOptions, TrainSession  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

import loadgen  # noqa: E402
from probe import HostProbe  # noqa: E402
import tracing  # noqa: E402
from harness import percentile  # noqa: E402

# The BENCH_serve / BENCH_distributed geometry.
MODEL = TimeDRLConfig(seq_len=64, input_channels=7, patch_len=8, stride=8,
                      d_model=64, num_heads=4, num_layers=2, seed=0)
BATCH_SIZE = 32
COMPILE_TOLERANCE = 0.5    # CI's max_abs_diff.timestamp gate for int8
# latency_tail_ms percentile.  Every workload has >= 30 samples beyond
# it (600+ steps, 3000+ requests).  The p99 is printed in info only: on
# the reference host its run-to-run spread on pipeline_int8 was 30-55%,
# set by how many 10-20 ms stalls land in a run.
TAIL = 95
OPEN_SHARE = 0.6           # of --seconds on pipeline_int8; the rest is closed loop
FLOOD_WINDOWS = 4          # windows per flood request
HOT_SHARE = 0.75           # flood requests that repeat a hot request
LIGHT_PERIOD_S = 0.005     # light tenant schedule
QUEUE_WINDOWS = 65         # Q = 4k+1: the light request always fits, see README
SERVE_COUNTS = ("serve.batches", "serve.windows_per_batch",
                "serve.cache_hit_ratio", "serve.cache_evictions",
                "serve.shed_overload", "serve.shed_quota",
                "serve.light_admitted", "loadgen.late_sends")

PRESETS = {
    "default": {
        "setup_repeats": 3,
        "train_windows": 8192,        # 4 shards
        "steps_per_call": 64,         # one pretrain call = 2048 windows
        "pipeline_windows": 4096,
        "calibration_windows": 256,
        # Single-window requests/s.  At 1000/s the open loop sat near its
        # knee on the reference host: in slow phases its p95 rose 1.4-1.9x.
        "open_rate": 500.0,
        "in_flight": 64,
        "tenants_windows": 256,
        "flood_rate": 3000.0,         # requests/s of FLOOD_WINDOWS each
        "hot_requests": 256,
    },
    "smoke": {
        "setup_repeats": 1,
        "train_windows": 1024,
        "steps_per_call": 8,
        "pipeline_windows": 512,
        "calibration_windows": 64,
        "open_rate": 300.0,
        "in_flight": 16,
        "tenants_windows": 128,
        "flood_rate": 400.0,
        "hot_requests": 32,
    },
}


class Ops:
    """Operations attempted and failed, plus output-check mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def mismatch(self, ops: int, message: str) -> None:
        self.failed += ops
        self.mismatches.append(message)


class StepClock(TrainingHooks):
    """Timestamps each optimizer step (and the first few losses) of one
    pretrain call and writes them to ``path`` after the last step — the
    hooks of a data-parallel call run inside the forked rank 0."""

    def __init__(self, path: pathlib.Path, steps: int, losses: int = 0):
        self.path = path
        self.steps = steps
        self.keep_losses = losses
        self.times: list[float] = []
        self.losses: list[float] = []

    def on_loss(self, losses, epoch, batch, step):
        if len(self.losses) < self.keep_losses:
            self.losses.append(float(losses["total"].data))

    def on_batch_end(self, epoch, batch, step):
        self.times.append(time.perf_counter())
        if len(self.times) == self.steps:
            self.path.write_text(json.dumps({"times": self.times,
                                             "losses": self.losses}))

    def read(self) -> dict:
        return json.loads(self.path.read_text())


def _pretrain_options(seed: int, max_batches=None, **options) -> TrainOptions:
    return TrainOptions(pretrain=PretrainConfig(
        epochs=1, batch_size=BATCH_SIZE, prefetch=True, seed=seed,
        max_batches_per_epoch=max_batches), **options)


def _window_pool(count: int, seed: int) -> np.ndarray:
    return specs.materialize_spec_rows(
        specs.synthetic_windows_spec(count, MODEL.seq_len,
                                     MODEL.input_channels, seed=seed),
        0, count)


def _distinct(pool: np.ndarray, index: int, windows: int = 1) -> np.ndarray:
    """Request ``index``: ``windows`` consecutive pool windows, shifted by
    the pass number so no two requests carry the same bytes."""
    rows = [(index * windows + k) % len(pool) for k in range(windows)]
    x = pool[rows].copy()
    x[0, 0, 0] += float((index * windows) // len(pool))
    return x


def _outputs_equal(served, direct) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(served, direct))


class Workload:
    """Set-up (repeatable), timed phases, output checks, teardown."""

    name = ""

    def __init__(self, seed: int, preset: dict, workdir: pathlib.Path,
                 tracer=None):
        self.seed = seed
        self.preset = preset
        self.workdir = workdir
        self.tracer = tracer
        self.ops = Ops()
        self.values: dict[str, float] = {}   # end-to-end metrics
        # Per-layer counts the workload reads itself; zero where it does
        # not serve.
        self.layer: dict[str, float] = dict.fromkeys(SERVE_COUNTS, 0)
        self.info: dict = {}
        self.root: pathlib.Path | None = None

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> None:
        """The timed phase: drive the program and record what it did."""
        raise NotImplementedError

    def measure(self, probe) -> None:
        """End-to-end values from what ``run`` recorded, each time put on
        the reference host speed by ``probe`` (a :class:`HostProbe`)."""
        raise NotImplementedError

    def check(self) -> None:
        """Compare collected outputs with a direct computation."""

    def teardown(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


class TrainWorkload(Workload):
    """Pretraining calls from an on-disk window store, repeated for the
    timed phase.  One call is ``steps_per_call`` steps of batch 32 drawn
    from the store's shuffled epoch; each call trains a fresh model."""

    world = None
    dataset = None

    def setup(self, index: int) -> None:
        windows = self.preset["train_windows"]
        self.spec = specs.synthetic_windows_spec(
            windows, MODEL.seq_len, MODEL.input_channels, seed=self.seed)
        self.root = self.workdir / f"store-{index}"
        store.build_store(self.spec, self.root, shard_rows=windows // 4)
        self.dataset = store.open_store(self.root)
        # Warm-up call: lazy imports and first-touch of the maps.
        self._call(2)

    def teardown(self) -> None:
        if self.dataset is not None:
            self.dataset.close()
            self.dataset = None
        super().teardown()

    def _call(self, steps: int, hooks=None):
        if hooks is not None and self.world is not None:
            hooks = {0: hooks}
        return TrainSession(MODEL).pretrain(self.dataset, _pretrain_options(
            self.seed, steps, distributed=self.world, hooks=hooks))

    def run(self, seconds: float) -> None:
        steps = self.preset["steps_per_call"]
        expected_world = self.world or 1
        self.calls = []                   # (start, end, step end times)
        first_loss = None
        end = time.perf_counter() + seconds
        while not self.calls or time.perf_counter() < end:
            call = len(self.calls)
            clock = StepClock(self.workdir / f"steps-{call}.json", steps,
                              losses=4 if call == 0 else 0)
            self.ops.attempted += steps
            started = time.perf_counter()
            result = self._call(steps, clock)
            record = clock.read()
            self.calls.append((started, time.perf_counter(), record["times"]))
            if call == 0:
                self.first_losses = record["losses"]
                first_loss = result.final_loss
            problems = []
            if result.world_size != expected_world:
                problems.append(f"world_size {result.world_size}")
            if result.worker_restarts:
                problems.append(f"{result.worker_restarts} worker restarts")
            if not math.isfinite(result.final_loss):
                problems.append(f"loss {result.final_loss}")
            elif result.final_loss != first_loss:
                problems.append(f"loss {result.final_loss!r} != first call "
                                f"{first_loss!r} (same seed)")
            if problems:
                self.ops.mismatch(steps, f"call {call}: " + ", ".join(problems))
        self.info.update(calls=len(self.calls), final_loss=first_loss)

    def measure(self, probe) -> None:
        windows = self.preset["steps_per_call"] * BATCH_SIZE
        seconds = raw_seconds = 0.0
        step_ms = []
        for start, end, times in self.calls:
            raw_seconds += end - start
            seconds += (end - start) / probe.factor(start, end)
            step_ms.extend((b - a) * 1e3 / probe.factor(a, b)
                           for a, b in zip(times, times[1:]))
        self.values["windows_per_s"] = windows * len(self.calls) / seconds
        self.values["latency_p50_ms"] = percentile(step_ms, 50)
        self.values["latency_tail_ms"] = percentile(step_ms, TAIL)
        self.info.update(raw_windows_per_s=windows * len(self.calls) / raw_seconds,
                         step_samples=len(step_ms), tail_percentile=TAIL)


class TrainStore(TrainWorkload):
    name = "train_store"

    def check(self) -> None:
        """The first batch losses read through store + prefetch must equal
        the same run on the windows held in memory."""
        count = len(self.first_losses)
        clock = StepClock(self.workdir / "steps-memory.json", count, losses=count)
        TrainSession(MODEL).pretrain(
            specs.materialize_data_spec(self.spec),
            TrainOptions(pretrain=PretrainConfig(
                epochs=1, batch_size=BATCH_SIZE, prefetch=False,
                seed=self.seed, max_batches_per_epoch=count), hooks=clock))
        in_memory = clock.read()["losses"]
        if in_memory != self.first_losses:
            self.ops.mismatch(count, "store+prefetch losses "
                              f"{self.first_losses} != in-memory {in_memory}")


class TrainDP2(TrainWorkload):
    name = "train_dp2"
    world = 2


class ServeWorkload(Workload):
    """Shared gateway plumbing of the two serving workloads."""

    gateway = None

    def _pretrain_checkpoint(self, windows: int) -> pathlib.Path:
        spec = specs.synthetic_windows_spec(
            windows, MODEL.seq_len, MODEL.input_channels, seed=self.seed)
        store.build_store(spec, self.root / "store", shard_rows=windows // 4)
        dataset = store.open_store(self.root / "store")
        try:
            TrainSession(MODEL).pretrain(dataset, _pretrain_options(
                self.seed, checkpoint=CheckpointConfig(
                    directory=str(self.root / "ckpt"))))
        finally:
            dataset.close()
        return self.root / "ckpt"

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None
        super().teardown()

    def _observe(self):
        return self.tracer.observed if self.tracer is not None else None

    def _join(self, threads, seconds: float, stats) -> None:
        loadgen.join(threads, seconds + loadgen.RESULT_TIMEOUT_S + 30.0, stats)
        for item in stats:
            self.ops.attempted += item.attempted
            self.ops.failed += item.failed
            self.info[item.name] = {
                "attempted": item.attempted, "failed": item.failed,
                "shed": item.shed, "windows": item.windows_answered,
                "errors": dict(item.errors),
                "late_p99_ms": percentile(item.late_ms, 99),
                "latency_samples": len(item.latencies_ms)}

    def _serve_counts(self) -> None:
        report = self.gateway.report()
        engine = report["engine"]
        cache = report["cache"]
        self.layer.update({
            "serve.batches": engine["batches_run"],
            "serve.windows_per_batch": (engine["windows_served"]
                                        / max(engine["batches_run"], 1)),
            "serve.cache_hit_ratio": cache["hit_rate"],
            "serve.cache_evictions": cache["evictions"],
            "serve.shed_overload": report["shed"]["overload"],
            "serve.shed_quota": report["shed"]["quota"],
            "serve.light_admitted": report["admission"]["admitted"].get("light", 0),
        })

    def measure(self, probe) -> None:
        """Latencies from ``self.latency_loop``, windows/s from
        ``self.rate_loop``; each request is put on the reference speed by
        the probe factor at its completion."""
        timed, counted = self.latency_loop, self.rate_loop
        factors = [probe.factor(done, done) for done in timed.done_at]
        latencies = [ms / f for ms, f in zip(timed.latencies_ms, factors)]
        windows = sum(w * probe.factor(done, done)
                      for w, done in zip(counted.windows_at, counted.done_at))
        self.values["windows_per_s"] = windows / counted.elapsed_s
        self.values["latency_p50_ms"] = percentile(latencies, 50)
        self.values["latency_tail_ms"] = percentile(latencies, TAIL)
        raw = timed.latencies_ms
        self.info.update(
            raw_windows_per_s=counted.windows_answered / counted.elapsed_s,
            raw_p50_ms=percentile(raw, 50), raw_tail_ms=percentile(raw, TAIL),
            p99_ms=percentile(latencies, 99), raw_p99_ms=percentile(raw, 99),
            tail_percentile=TAIL)

    def _check_samples(self, samples) -> None:
        model = self.gateway.loaded.model
        for x, served in samples:
            if not _outputs_equal(served, model.encode(x)):
                self.ops.mismatch(1, f"served embedding of a {x.shape} request "
                                  "differs from a direct encode")
        self.info["checked_outputs"] = len(samples)


class PipelineInt8(ServeWorkload):
    """Store build → pretrain epoch → compile int8 → gateway encode."""

    name = "pipeline_int8"

    def setup(self, index: int) -> None:
        windows = self.preset["pipeline_windows"]
        self.root = self.workdir / f"pipeline-{index}"
        checkpoint = self._pretrain_checkpoint(windows)
        # The store's own first windows, named by its generating spec:
        # compile_checkpoint(calibrate=<store dir>) raises at this commit.
        artifact, __, report = compile_pipeline.compile_checkpoint(
            str(checkpoint), CompileOptions(precision="int8"),
            calibrate=f"synthetic:{windows}:{self.seed}",
            calibration_windows=self.preset["calibration_windows"],
            output=self.root / "model-int8.npz")
        self.ops.attempted += 1
        drift = report["max_abs_diff"]["timestamp"]
        if not drift <= COMPILE_TOLERANCE:
            self.ops.mismatch(1, f"int8 max_abs_diff.timestamp {drift} > "
                              f"{COMPILE_TOLERANCE}")
        self.info.setdefault("compile_max_abs_diff", []).append(drift)
        registry = ModelRegistry()
        registry.load(str(artifact), alias="serving")
        self.gateway = ServingGateway(registry, "serving", GatewayConfig()).start()

    def run(self, seconds: float) -> None:
        pool = _window_pool(4096, self.seed + 1)
        rate = self.preset["open_rate"]
        open_s = seconds * OPEN_SHARE
        count = max(1, int(rate * open_s))
        opened = loadgen.LoopStats("open", sample_stride=max(1, count // 64))
        threads = loadgen.open_loop(self.gateway, lambda i: _distinct(pool, i),
                                    rate, count, opened, observe=self._observe())
        self._join(threads, open_s, [opened])
        closed_s = seconds - open_s
        closed = loadgen.LoopStats("closed", sample_stride=50)
        threads = loadgen.closed_loop(
            self.gateway, lambda i: _distinct(pool, count + i),
            self.preset["in_flight"], closed_s, closed, observe=self._observe())
        self._join(threads, closed_s, [closed])
        self.latency_loop, self.rate_loop = opened, closed
        self._serve_counts()
        self.layer["loadgen.late_sends"] = opened.late_sends
        self.samples = opened.samples + closed.samples

    def check(self) -> None:
        self._check_samples(self.samples)


class TenantsOverload(ServeWorkload):
    """A flooding tenant and a light one behind admission control."""

    name = "tenants_overload"

    def setup(self, index: int) -> None:
        obs_metrics.disable()
        self.root = self.workdir / f"tenants-{index}"
        checkpoint = self._pretrain_checkpoint(self.preset["tenants_windows"])
        registry = ModelRegistry()
        registry.load(str(checkpoint), alias="serving")
        obs_metrics.enable()
        self.gateway = ServingGateway(registry, "serving", GatewayConfig(
            tenants=(TenantConfig("flood", weight=1.0),
                     TenantConfig("light", weight=4.0)),
            max_queue_windows=QUEUE_WINDOWS,
            cache_size=1024)).start()

    def teardown(self) -> None:
        super().teardown()
        obs_metrics.disable()

    def run(self, seconds: float) -> None:
        preset = self.preset
        size = FLOOD_WINDOWS
        count = int(preset["flood_rate"] * seconds)
        rng = np.random.default_rng(self.seed + 2)
        hot_mask = rng.random(count) < HOT_SHARE
        hot_index = rng.integers(preset["hot_requests"], size=count)
        hot = _window_pool(preset["hot_requests"] * size, self.seed + 3).reshape(
            preset["hot_requests"], size, MODEL.seq_len, MODEL.input_channels)
        cold = _window_pool(4096, self.seed + 4)
        light_pool = _window_pool(1024, self.seed + 5)

        def flood_input(i):
            if hot_mask[i]:
                return hot[hot_index[i]].copy()
            return _distinct(cold, i, size)

        flood = loadgen.LoopStats("flood", sample_stride=max(1, count // 64))
        light = loadgen.LoopStats("light", sample_stride=1, sample_cap=math.inf)
        threads = loadgen.open_loop(
            self.gateway, flood_input, preset["flood_rate"], count, flood,
            tenant="flood", shed_ok=True, collector=False)
        threads += loadgen.paced_loop(
            self.gateway, lambda i: _distinct(light_pool, i),
            LIGHT_PERIOD_S, seconds, light, tenant="light",
            observe=self._observe())
        self._join(threads, seconds, [flood, light])
        self.latency_loop, self.rate_loop = light, flood
        self.info["flood_shed_share"] = flood.shed / max(flood.attempted, 1)
        self._serve_counts()
        self.layer["loadgen.late_sends"] = flood.late_sends + light.late_sends
        self.samples = light.samples + flood.samples

    def check(self) -> None:
        self._check_samples(self.samples)


WORKLOADS = {cls.name: cls for cls in
             (TrainStore, TrainDP2, PipelineInt8, TenantsOverload)}


def peak_rss_mb() -> float:
    """Max resident set of this process and of its waited-for children
    (the data-parallel ranks), in MiB (``ru_maxrss`` is KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 preset: str, workdir: pathlib.Path) -> dict:
    tracer = tracing.Tracer(workdir) if trace else None
    workload = WORKLOADS[name](seed, PRESETS[preset], workdir, tracer)
    setups = []
    try:
        with HostProbe() as probe:
            with tracer.installed() if tracer else contextlib.nullcontext():
                for index in range(workload.preset["setup_repeats"]):
                    if index:
                        workload.teardown()
                    started = time.perf_counter()
                    workload.setup(index)
                    setups.append((started, time.perf_counter()))
                run_started = time.perf_counter()
                workload.run(seconds)
                run_ended = time.perf_counter()
            # Before the output checks, whose reference computations are
            # the benchmark's own memory, not the program's; and before
            # the probe process is reaped.
            peak = peak_rss_mb()
        workload.measure(probe)
        workload.check()
    finally:
        workload.teardown()
    setup_times = [(end - start) / probe.factor(start, end)
                   for start, end in setups]
    values = dict(workload.values)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = peak
    workload.info.update(
        host_factor=probe.factor(run_started, run_ended),
        probe_realtime=probe.realtime,
        raw_setup_s=[end - start for start, end in setups])
    result = {"workload": name, "seed": seed, "seconds": seconds,
              "attempted": workload.ops.attempted,
              "failed": workload.ops.failed,
              "mismatches": workload.ops.mismatches,
              "values": values, "setup_times": setup_times,
              "info": workload.info}
    if tracer is not None:
        report = tracer.report()
        layer = report.pop("layer")
        layer.update(workload.layer)
        layer["python.import_s"] = IMPORT_S
        spans_path = workdir.parent / f"spans-{name}-seed{seed}.jsonl"
        tracing.write_spans(report.pop("spans"), spans_path)
        report["spans_path"] = str(spans_path)
        result["layer"] = layer
        result["stage_table"] = report
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="default")
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.preset, args.workdir)
    (args.workdir / "result.json").write_text(json.dumps(result),
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
