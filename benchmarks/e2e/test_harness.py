"""Tests of the end-to-end benchmark harness itself.

    PYTHONPATH=src pytest benchmarks/e2e -q
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import bench
import probe as probe_module
import tracing
import workloads
from harness import ROOT, SPEC_PATH, load_spec, percentile
from probe import HostProbe

HERE = ROOT / "benchmarks" / "e2e"


def test_percentile_is_nearest_rank_and_nan_free_with_failures():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert percentile([1.0, math.inf, math.inf], 50) == math.inf
    assert percentile([1.0] * 99 + [math.inf], 99) == 1.0
    assert percentile([1.0] * 98 + [math.inf] * 2, 99) == math.inf
    assert math.isnan(percentile([], 50))


def test_self_times_subtract_children_and_add_up_to_wall(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    inner = tracer._wrap(lambda: time.sleep(0.01), "core.heads")

    def outer():
        time.sleep(0.005)
        inner()
        inner()

    traced_outer = tracer._wrap(outer, "core.forward_self")
    tracer.started = time.perf_counter()
    traced_outer()
    time.sleep(0.005)
    tracer.ended = time.perf_counter()
    spans = {name: end - start for name, start, end, parent, *__ in tracer.spans
             if parent is None}
    main = tracer.report()["timelines"][0]
    stages = main["stages"]
    assert stages["core.heads"] >= 0.02
    assert stages["core.forward_self"] == pytest.approx(
        spans["core.forward_self"] - stages["core.heads"], abs=1e-9)
    assert 0.005 <= stages["core.forward_self"] < 0.01
    total = sum(stages.values()) + main["unattributed_s"]
    assert total == pytest.approx(main["wall_s"], rel=1e-9)
    assert main["unattributed_s"] >= 0.005


def test_trace_restores_every_patched_attribute(tmp_path):
    originals = []
    for module, attribute, __ in tracing.PATCHES:
        owner, name = tracing.resolve(module, attribute)
        originals.append((owner, name, owner.__dict__[name]))
    callbacks = list(gc.callbacks)
    result = workloads.run_workload("train_store", 0, 0.5, True, "smoke",
                                    tmp_path)
    assert result["layer"]["train.steps"] > 0
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, f"{owner}.{name} not restored"
    assert gc.callbacks == callbacks


@pytest.mark.parametrize("workload", [row["name"] for row in
                                      load_spec()["workloads"]])
def test_smoke_preset_emits_every_metric(workload):
    spec = load_spec()
    for trace, rows in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        started = time.perf_counter()
        process = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), "--workload", workload,
             "--preset", "smoke", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - started
        assert process.returncode == 0, process.stderr[-2000:]
        result = json.loads(process.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [row["name"] for row in rows]
        for row in rows:
            item = result["metrics"][row["name"]]
            assert item["unit"] == row["unit"]
            assert isinstance(item["value"], (int, float))
        if trace == 0:
            assert elapsed < 15.0


def test_host_probe_factor_is_mean_probe_time_over_the_interval():
    with HostProbe() as probe:
        started = time.perf_counter()
        time.sleep(1.5)
        ended = time.perf_counter()
    whole = probe.factor(started, ended)
    assert 0.2 < whole < 5.0
    # A point is widened to WINDOW_S around it.
    middle = (started + ended) / 2
    half = probe_module.WINDOW_S / 2
    assert probe.factor(middle, middle) == probe.factor(middle - half,
                                                        middle + half)
    with pytest.raises(ValueError):
        probe.factor(ended + 10.0, ended + 11.0)


def test_host_probe_weights_cpus_by_their_busy_time():
    reference = probe_module.REFERENCE_S
    ticks = [0.05 * i for i in range(40)]
    probe = HostProbe()
    # CPU 0 runs at half speed but idles; CPU 1 runs at reference speed
    # and is busy 40 ms of every 50 ms tick.
    probe._series = [
        probe_module._CpuSeries([(t, 2 * reference, 0.0) for t in ticks]),
        probe_module._CpuSeries([(t, reference, 0.04 + reference) for t in ticks])]
    assert probe.factor(0.0, 2.0) == pytest.approx(1.0)
    # Nobody busy: the plain mean of the CPUs.
    probe._series[1] = probe_module._CpuSeries([(t, reference, 0.0) for t in ticks])
    assert probe.factor(0.0, 2.0) == pytest.approx(1.5)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert bench.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], "lower", 0.1) == "worse"
    assert bench.verdict(base, [10.02, 9.98, 10.1, 9.95, 10.0], "lower", 0.1) == "same"
    assert bench.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], "lower", 0.1) == "better"
    assert bench.verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], "higher", 0.1) == "worse"
    assert bench.verdict(base, [12.0, 12.1, 11.9, 12.0, 12.2], "higher", 0.1) == "better"
    # Overlapping sets: one new run beats the slowest base run, but the
    # median fell by 30%.
    overlapping = [7.0, 7.1, 6.9, 7.0, 10.0]
    assert bench.verdict(base, overlapping, "higher", 0.5) == "same"
    assert bench.verdict(base, overlapping, "higher", 0.25) == "worse"
    noisy = [7.0, 13.0, 10.0, 8.0, 12.5]
    assert bench.verdict(base, noisy, "lower", 0.1) == "unresolved"


def test_cap_kills_the_run_and_fails_its_ops():
    result = bench.run_child("train_dp2", 0, 2.0, False, "smoke", cap_s=0.5)
    assert result["failed"] == result["attempted"] >= 1
    assert "cap" in result["mismatches"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, target / path.name)
    started = time.perf_counter()
    process = subprocess.run([sys.executable, "benchmarks/e2e/bench.py",
                              "--workload", "train_store", "--seed", "1",
                              "--seconds", "10", "--trace", "0"],
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=180)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
    assert time.perf_counter() - started < 180
