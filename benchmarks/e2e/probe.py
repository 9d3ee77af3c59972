"""Host-speed probe: a fixed piece of work timed every 50 ms on each CPU.

The reference host is a 2-vCPU VM that shares its machine with others.
The speed of each vCPU changes by up to 2x, from second to second and
from minute to minute, and the two vCPUs change independently; the guest
sees almost no steal time.  A workload's wall-clock numbers move with
the speed of the CPUs it runs on.  The probe measures that speed while
the workload runs: one child process per CPU, pinned to it and at
real-time priority so that the workload's own threads never delay it,
times a fixed mix of interpreter and BLAS work (about 1.3 ms) every
``PERIOD_S`` and reads how busy the CPU was since the last sample.

The slowdown over an interval is the mean probe duration on each CPU
divided by ``REFERENCE_S``, averaged over the CPUs weighted by the time
they were busy with other work than the probe, that is with the
workload.  A single-threaded phase is thus normalised by the CPU it ran
on, not by an idle one.  Workloads divide their times by it (and
multiply their rates), which puts every run on one reference speed.
See README.md, "Host and noise".

    python probe.py CPU   # child side: prints "ready", probes CPU until
                          # stdin closes, then prints its samples as JSON
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time

PERIOD_S = 0.05
WINDOW_S = 1.0         # shortest interval a factor is averaged over
# Mean probe duration on the reference host at its usual speed; the
# scale of every normalised number.
REFERENCE_S = 1.35e-3
LOOP_ITERATIONS = 20_000
GEMMS = 4
STOP_TIMEOUT_S = 30.0


def _work(matrix) -> None:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    for __ in range(GEMMS):
        matrix @ matrix


def _busy_s(cpu: int) -> float:
    """Seconds ``cpu`` has spent on anything but idling, from /proc/stat
    (fields: user nice system idle iowait irq softirq ...)."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(prefix):
                ticks = [int(field) for field in line.split()[1:8]]
                busy = ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]
                return busy / os.sysconf("SC_CLK_TCK")
    return 0.0


def _child(cpu: int) -> int:
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
        realtime = True
    except (PermissionError, AttributeError):
        realtime = False
    matrix = np.random.default_rng(0).standard_normal((128, 128)).astype(np.float32)
    _work(matrix)
    samples = []                          # (start, duration, busy since last)
    print("ready", flush=True)
    busy = _busy_s(cpu)
    due = time.perf_counter()
    while True:
        due += PERIOD_S
        wait = max(0.0, due - time.perf_counter())
        if select.select([sys.stdin], [], [], wait)[0]:
            break                         # stdin closed: the run is over
        now_busy = _busy_s(cpu)
        started = time.perf_counter()
        _work(matrix)
        samples.append((started, time.perf_counter() - started, now_busy - busy))
        busy = now_busy
    json.dump({"realtime": realtime, "samples": samples}, sys.stdout)
    return 0


class _CpuSeries:
    """One CPU's samples as prefix sums, for interval means."""

    def __init__(self, samples):
        self.starts = [start for start, __, __ in samples]
        self.durations = [0.0]
        self.busy = [0.0]
        for __, duration, busy in samples:
            self.durations.append(self.durations[-1] + duration)
            self.busy.append(self.busy[-1] + busy)

    def interval(self, start: float, end: float):
        """``(mean probe duration, busy seconds not spent probing)`` over
        the samples that started in ``[start, end)``, or ``None``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi <= lo:
            return None
        probing = self.durations[hi] - self.durations[lo]
        return probing / (hi - lo), max(0.0, self.busy[hi] - self.busy[lo] - probing)


class HostProbe:
    """Runs one probe child per usable CPU for the lifetime of a ``with``
    block and turns their samples into slowdown factors."""

    def __init__(self):
        self.realtime = None
        self._series: list[_CpuSeries] = []
        self._processes: list[subprocess.Popen] = []

    def _kill(self) -> None:
        for process in self._processes:
            process.kill()
            process.wait()

    def __enter__(self):
        # One BLAS thread: a real-time thread must never wait on a
        # normal-priority helper.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        for cpu in sorted(os.sched_getaffinity(0)):
            self._processes.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu)], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=env, text=True))
        for process in self._processes:
            if process.stdout.readline().strip() != "ready":
                self._kill()
                raise RuntimeError("host probe failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        outputs = []
        try:
            for process in self._processes:
                out, __ = process.communicate(input="", timeout=STOP_TIMEOUT_S)
                outputs.append(out)
        except subprocess.TimeoutExpired:
            self._kill()
            raise
        if exc_info[0] is not None:
            return
        codes = [process.returncode for process in self._processes]
        if any(codes):
            raise RuntimeError(f"host probe exited with {codes}")
        payloads = [json.loads(out) for out in outputs]
        self.realtime = all(payload["realtime"] for payload in payloads)
        self._series = [_CpuSeries(payload["samples"]) for payload in payloads]

    def factor(self, start: float, end: float) -> float:
        """Slowdown over ``[start, end)`` (widened to ``WINDOW_S`` around
        its middle when shorter): the CPUs' mean probe durations ÷
        ``REFERENCE_S``, weighted by how long each CPU was busy with
        other work; a plain mean when none was.  Above 1 when the host
        ran slower than the reference."""
        if end - start < WINDOW_S:
            middle = (start + end) / 2
            start, end = middle - WINDOW_S / 2, middle + WINDOW_S / 2
        found = [item for item in (series.interval(start, end)
                                   for series in self._series) if item]
        if not found:
            raise ValueError("no probe samples in the interval")
        weight = sum(busy for __, busy in found)
        if weight > 0:
            mean = sum(duration * busy for duration, busy in found) / weight
        else:
            mean = sum(duration for duration, __ in found) / len(found)
        return mean / REFERENCE_S


if __name__ == "__main__":
    sys.exit(_child(int(sys.argv[1])))
