"""Outside-in stage tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the *public* entry points of each layer (the
``PATCHES`` table) with timing wrappers, patched in from this file and
restored on exit — nothing in ``src/`` knows it is being traced.  Each
wrapper records a span ``{name, start, end, parent, request_id,
thread}``; a layer's *self* time is its span's duration minus the time
its child spans cover, so on every thread the self times of all spans
plus the uncovered remainder add up to the thread's wall time exactly.

Spans are aggregated per thread as they close (no lock on the hot path)
and the first ``SPAN_CAP`` are kept for ``spans.jsonl``.  Forked
data-parallel ranks inherit the wrappers; each rank starts a fresh
record and dumps it from a ``finally`` around the worker entry point,
because ranks leave through ``SystemExit``.

Serve requests are followed by the identity of their input array, which
survives ``validate_input`` (already float32 and contiguous) and the
gateway → engine hand-off; the load generator reports when it saw the
result.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import itertools
import json
import os
import pathlib
import threading
import time

from harness import percentile

SPAN_CAP = 50_000
CPU_SAMPLE_S = 0.05

# Stage whose name depends on the caller: model forwards inside a
# compile are the compile's verification, elsewhere they serve requests.
FORWARD = "<forward>"
RANK = "<rank>"

# (module, attribute, stage) — the layer boundaries the trace times.
PATCHES = (
    ("repro.data.store", "build_store", "data.build"),
    ("repro.data.store", "ShardedDataset.batch", "data.gather"),
    ("repro.data.prefetch", "PrefetchLoader.__next__", "data.wait"),
    ("repro.train.session", "TrainSession.pretrain", "train.session"),
    ("repro.core.model", "TimeDRL.pretraining_losses", "core.forward_self"),
    ("repro.core.encoder", "TimeDRLEncoder.forward", "core.encoder"),
    ("repro.core.heads", "TimestampPredictiveHead.forward", "core.heads"),
    ("repro.core.heads", "InstanceContrastiveHead.forward", "core.heads"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "AdamW.step", "nn.optim"),
    ("repro.nn.optim", "Optimizer.zero_grad", "nn.optim"),
    ("repro.distributed.reduce", "SharedAllReduce.all_reduce",
     "distributed.allreduce"),
    ("repro.distributed.coordinator", "run_worker", RANK),
    ("repro.checkpoint.manager", "CheckpointManager.save", "checkpoint.save"),
    ("repro.compile.pipeline", "compile_checkpoint", "compile.self"),
    ("repro.compile.pipeline", "export_model_arrays", "compile.export"),
    ("repro.compile.pipeline", "observe_activation_ranges",
     "compile.calibrate"),
    ("repro.compile.pipeline", "plan_quantization", "compile.quantize"),
    ("repro.compile.artifact", "save_compiled", "compile.save"),
    ("repro.serve.registry", "ModelRegistry.load", "compile.load"),
    ("repro.core.model", "TimeDRL.encode", FORWARD),
    ("repro.core.model", "TimeDRL.predict", FORWARD),
    ("repro.compile.model", "CompiledModel.encode", FORWARD),
    ("repro.compile.model", "CompiledModel.predict", FORWARD),
    ("repro.serve.gateway", "ServingGateway.submit", "serve.door"),
    ("repro.serve.admission", "AdmissionController.admit", "serve.admit"),
    ("repro.serve.admission", "FairScheduler.pop", "serve.fair_pop"),
    ("repro.serve.batching", "BatchingEngine.submit", "serve.engine_submit"),
    ("repro.serve.batching", "input_digest", "serve.digest"),
    ("repro.serve.gateway", "input_digest", "serve.digest"),
    ("repro.serve.cache", "EmbeddingCache.get", "serve.cache_get"),
    ("repro.serve.cache", "EmbeddingCache.put", "serve.cache_put"),
    ("repro.obs.trace", "record_span", "obs"),
    ("repro.obs.trace", "child_context", "obs"),
    ("repro.obs.metrics", "_CounterChild.inc", "obs"),
    ("repro.obs.metrics", "_GaugeChild.set", "obs"),
    ("repro.obs.metrics", "_GaugeChild.inc", "obs"),
    ("repro.obs.metrics", "_HistogramChild.observe", "obs"),
)

# Stage table order; also the ``<stage>_pct`` per-layer metrics.
STAGES = ("data.build", "data.gather", "data.wait", "train.session",
          "core.forward_self", "core.encoder", "core.heads", "nn.backward",
          "nn.optim", "distributed.allreduce", "checkpoint.save",
          "compile.self", "compile.export", "compile.calibrate",
          "compile.quantize", "compile.verify", "compile.save",
          "compile.load", "serve.door", "serve.admit", "serve.fair_pop",
          "serve.engine_submit", "serve.forward", "serve.digest",
          "serve.cache_get", "serve.cache_put", "obs")

# Thread name prefix -> cpu.<role>_pct.
CPU_ROLES = (("MainThread", "main"), ("loadgen", "loadgen"),
             ("repro-prefetch", "prefetch"), ("serve-gateway", "dispatcher"),
             ("serve-batcher", "batcher"))

# Stages whose wrappers also account at span exit.
_EXIT_STAGES = ("serve.door", "train.session")


def resolve(module_name: str, attribute: str):
    """``(owner, name)`` of a patch target: a module or a class."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _ThreadRecord:
    """One thread's open-span stack and running totals."""

    __slots__ = ("thread", "stack", "busy", "calls", "covered", "bytes")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []     # [stage, child_seconds]
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.covered = 0.0              # duration of root spans
        self.bytes = 0                  # all-reduce payload written


class Tracer:
    """Patch, record, restore.  Use as ``with tracer.installed(): ...``."""

    def __init__(self, workdir: pathlib.Path):
        self.workdir = pathlib.Path(workdir)
        self._originals: list[tuple] = []
        self._reset_records()
        self.rank = None
        self.started = self.ended = 0.0
        self.call_start = None          # current TrainSession.pretrain call
        self.first_forward = None
        self.startups: list[float] = []
        self.gc_seconds = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0
        self._cpu: dict[tuple, float] = {}
        self._sampler: threading.Thread | None = None
        self._sampling = threading.Event()
        self._requests: dict[int, list] = {}
        self._request_ids = itertools.count(1)
        self.door_ms: list[float] = []
        self.gateway_wait_ms: list[float] = []
        self.engine_ms: list[float] = []

    def _reset_records(self) -> None:
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._records_lock = threading.Lock()
        self.spans: list[tuple] = []

    # -- patching --------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        for module_name, attribute, stage in PATCHES:
            owner, name = resolve(module_name, attribute)
            original = owner.__dict__[name]
            wrapper = (self._rank_entry(original) if stage == RANK
                       else self._wrap(original, stage))
            setattr(owner, name, wrapper)
            self._originals.append((owner, name, original))
        gc.callbacks.append(self._on_gc)
        self.started = time.perf_counter()
        self._sampling.clear()
        self._sampler = threading.Thread(target=self._sample_cpu,
                                         name="bench-cpu-sampler", daemon=True)
        self._sampler.start()

    def uninstall(self) -> None:
        self.ended = time.perf_counter()
        self._sampling.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5.0)
            self._sampler = None
        self._read_cpu()
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = _ThreadRecord(threading.current_thread().name)
            self._local.record = record
            with self._records_lock:
                self._records.append(record)
        return record

    def _wrap(self, original, stage: str):
        tracer = self
        has_exit = stage in _EXIT_STAGES

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = tracer._record()
            stack = record.stack
            name = stage
            if name == FORWARD:
                name = ("compile.verify"
                        if any(frame[0].startswith("compile.") for frame in stack)
                        else "serve.forward")
            start = time.perf_counter()
            request_id = tracer._enter(name, args, kwargs, start, record)
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                record.busy[name] = record.busy.get(name, 0.0) + duration - frame[1]
                record.calls[name] = record.calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                else:
                    record.covered += duration
                    parent = None
                if has_exit:
                    tracer._leave(name, args, kwargs, end, failed)
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((name, start, end, parent, request_id,
                                         record.thread))

        return wrapper

    # -- per-stage bookkeeping ------------------------------------------
    def _enter(self, stage, args, kwargs, start, record):
        """Stage-specific accounting at span entry; returns the request
        id for the spans of a serve request."""
        if stage == "serve.door":
            x = _request_input(args, kwargs)
            request_id = next(self._request_ids)
            self._requests[id(x)] = [request_id, start, None, None]
            return request_id
        if stage == "serve.engine_submit":
            entry = self._requests.get(id(_request_input(args, kwargs)))
            if entry is not None:
                entry[3] = start
                return entry[0]
        elif stage == "core.forward_self" and self.first_forward is None:
            self.first_forward = start
        elif stage == "distributed.allreduce":
            record.bytes += args[0].n_params * 8
        elif stage == "train.session":
            self.call_start, self.first_forward = start, None
        return None

    def _leave(self, stage, args, kwargs, end, failed) -> None:
        if stage == "train.session":
            # In-process calls only: data-parallel calls report their
            # startup from the ranks.
            if self.first_forward is not None:
                self.startups.append(self.first_forward - self.call_start)
            self.call_start = self.first_forward = None
            return
        x = _request_input(args, kwargs)
        if failed:
            self._requests.pop(id(x), None)
        else:
            entry = self._requests.get(id(x))
            if entry is not None:
                entry[2] = end

    def observed(self, x, now: float) -> None:
        """The load generator saw the result for input ``x`` at ``now``."""
        entry = self._requests.pop(id(x), None)
        if entry is None or entry[2] is None or entry[3] is None:
            return
        __, door_start, door_end, engine_start = entry
        self.door_ms.append((door_end - door_start) * 1e3)
        self.gateway_wait_ms.append((engine_start - door_end) * 1e3)
        self.engine_ms.append((now - engine_start) * 1e3)

    # -- forked ranks ----------------------------------------------------
    def _rank_entry(self, original):
        tracer = self

        @functools.wraps(original)
        def rank_entry(task, *args, **kwargs):
            tracer._reset_records()
            tracer.rank = task.rank
            tracer.first_forward = None
            tracer.gc_seconds, tracer.gc_gen2 = 0.0, 0
            started = time.perf_counter()
            try:
                return original(task, *args, **kwargs)
            finally:
                tracer._dump_rank(started, time.perf_counter())

        return rank_entry

    def _dump_rank(self, started: float, ended: float) -> None:
        payload = {
            "rank": self.rank, "pid": os.getpid(),
            "started": started, "ended": ended,
            "call_start": self.call_start, "first_forward": self.first_forward,
            "gc_seconds": self.gc_seconds, "gc_gen2": self.gc_gen2,
            "records": [_record_json(record) for record in self._records],
            "spans": self.spans,
        }
        path = self.workdir / f"rank-{os.getpid()}-{started:.6f}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")

    def _rank_dumps(self) -> list[dict]:
        return [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted(self.workdir.glob("rank-*.json"))]

    # -- process-wide counters -------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def _sample_cpu(self) -> None:
        while not self._sampling.wait(CPU_SAMPLE_S):
            self._read_cpu()

    def _read_cpu(self) -> None:
        """Per-thread CPU seconds from ``/proc/self/task/<tid>/stat``.
        Threads are sampled every ``CPU_SAMPLE_S``, so a short-lived
        thread loses at most that much of its last interval."""
        ticks = os.sysconf("SC_CLK_TCK")
        for thread in threading.enumerate():
            tid = thread.native_id
            if tid is None:
                continue
            try:
                with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            seconds = (int(fields[11]) + int(fields[12])) / ticks
            key = (tid, thread.name)
            self._cpu[key] = max(self._cpu.get(key, 0.0), seconds)

    # -- report ----------------------------------------------------------
    def report(self) -> dict:
        """Stage table, per-layer metric values and the span dump."""
        wall = self.ended - self.started
        ranks = self._rank_dumps()
        timelines = [_timeline("MainThread", wall, [
            r for r in self._records if r.thread == "MainThread"])]
        others = sorted({r.thread for r in self._records} - {"MainThread"})
        concurrent = [_timeline(name, None, [
            r for r in self._records if r.thread == name]) for name in others]
        # One timeline per rank, summed over the pretrain calls it served.
        by_rank: dict[int, list[dict]] = {}
        for dump in ranks:
            by_rank.setdefault(dump["rank"], []).append(dump)
        all_records = list(self._records)
        for rank, dumps in sorted(by_rank.items()):
            records = [_record_from_json(item)
                       for dump in dumps for item in dump["records"]]
            all_records.extend(records)
            timelines.append(_timeline(
                f"rank {rank} ({len(dumps)} processes)",
                sum(dump["ended"] - dump["started"] for dump in dumps),
                [r for r in records if r.thread == "MainThread"]))
            concurrent.extend(_timeline(f"rank {rank} {name}", None,
                                        [r for r in records if r.thread == name])
                              for name in sorted({r.thread for r in records}
                                                 - {"MainThread"}))
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        for record in all_records:
            for stage, seconds in record.busy.items():
                busy[stage] = busy.get(stage, 0.0) + seconds
            for stage, count in record.calls.items():
                calls[stage] = calls.get(stage, 0) + count
        layer = {f"{stage}_pct": 100.0 * busy.get(stage, 0.0) / wall
                 for stage in STAGES}
        layer["obs.busy_pct"] = layer.pop("obs_pct")
        layer["obs.calls"] = calls.get("obs", 0)
        layer["data.gather_calls"] = calls.get("data.gather", 0)
        layer["train.steps"] = calls.get("nn.backward", 0)
        # All-reduce: the slowest rank's time; calls and bytes of one rank.
        per_rank = [[item for dump in dumps for item in dump["records"]]
                    for dumps in by_rank.values()]
        layer["distributed.allreduce_pct"] = 100.0 * max(
            (sum(item["busy"].get("distributed.allreduce", 0.0) for item in items)
             for items in per_rank), default=0.0) / wall
        layer["distributed.allreduce_calls"] = max(
            (sum(item["calls"].get("distributed.allreduce", 0) for item in items)
             for items in per_rank), default=0)
        layer["distributed.allreduce_mb"] = max(
            (sum(item["bytes"] for item in items) for items in per_rank),
            default=0) / 1e6
        startups = list(self.startups)
        by_call: dict[float, float] = {}
        for dump in ranks:
            if dump["call_start"] is not None and dump["first_forward"] is not None:
                delay = dump["first_forward"] - dump["call_start"]
                by_call[dump["call_start"]] = max(by_call.get(dump["call_start"], 0.0),
                                                  delay)
        startups.extend(by_call.values())
        layer["train.startup_pct"] = 100.0 * sum(startups) / wall
        gc_seconds = self.gc_seconds + sum(d["gc_seconds"] for d in ranks)
        layer["python.gc_pct"] = 100.0 * gc_seconds / wall
        layer["python.gc_gen2"] = self.gc_gen2 + sum(d["gc_gen2"] for d in ranks)
        cpu = {role: 0.0 for __, role in CPU_ROLES}
        for (__, name), seconds in self._cpu.items():
            for prefix, role in CPU_ROLES:
                if name.startswith(prefix):
                    cpu[role] += seconds
        for role, seconds in cpu.items():
            layer[f"cpu.{role}_pct"] = 100.0 * seconds / wall
        latency = sum(self.door_ms) + sum(self.gateway_wait_ms) + sum(self.engine_ms)
        for name, values in (("door", self.door_ms),
                             ("gateway_wait", self.gateway_wait_ms),
                             ("engine", self.engine_ms)):
            layer[f"request.{name}_pct"] = (100.0 * sum(values) / latency
                                            if latency else 0.0)
        main = timelines[0]
        layer["unattributed_pct"] = 100.0 * main["unattributed_s"] / wall
        layer["trace.wall_s"] = wall
        requests = {name: {"n": len(values),
                           "p50_ms": percentile(values, 50),
                           "p99_ms": percentile(values, 99)}
                    for name, values in (("door", self.door_ms),
                                         ("gateway_wait", self.gateway_wait_ms),
                                         ("engine", self.engine_ms))
                    if values}
        spans = list(self.spans)
        for dump in ranks:
            spans.extend(tuple(span) for span in dump["spans"])
        return {"wall_s": wall, "timelines": timelines,
                "concurrent": concurrent, "requests": requests,
                "layer": layer, "spans": spans[:SPAN_CAP]}


def _request_input(args, kwargs):
    """The ``x`` of ``ServingGateway.submit`` / ``BatchingEngine.submit``."""
    return args[1] if len(args) > 1 else kwargs["x"]


def _record_json(record: _ThreadRecord) -> dict:
    return {"thread": record.thread, "busy": record.busy,
            "calls": record.calls, "covered": record.covered,
            "bytes": record.bytes}


def _record_from_json(item: dict) -> _ThreadRecord:
    record = _ThreadRecord(item["thread"])
    record.busy = item["busy"]
    record.calls = item["calls"]
    record.covered = item["covered"]
    record.bytes = item["bytes"]
    return record


def _timeline(name: str, wall: float | None, records) -> dict:
    """Self time per stage on one thread (or several threads of the same
    name that ran one after another).  With a known ``wall`` the
    uncovered remainder is ``unattributed_s`` and the rows add up to
    ``wall``."""
    stages: dict[str, float] = {}
    covered = 0.0
    for record in records:
        covered += record.covered
        for stage, seconds in record.busy.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    rows = {stage: stages[stage] for stage in STAGES if stage in stages}
    timeline = {"name": name, "stages": rows, "covered_s": covered}
    if wall is not None:
        timeline["wall_s"] = wall
        timeline["unattributed_s"] = wall - covered
    return timeline


def write_spans(spans, path: pathlib.Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, request_id, thread in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "request_id": request_id,
                                     "thread": thread}) + "\n")
