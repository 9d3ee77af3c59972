"""Shared pieces of the end-to-end benchmark: paths, the metric table,
percentiles and host facts.

``BENCHMARK.json`` at the repository root is the single source of truth
for workload names, metric names, units, better-directions and bounds;
the workloads compute plain ``{name: value}`` dicts and this module
attaches the rest.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
# Scratch space for stores, checkpoints, artifacts and span dumps.
# Listed in the root .gitignore; each run removes its own subdirectory.
WORK_ROOT = ROOT / ".bench_e2e"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def metric_table(spec: dict, traced: bool) -> dict[str, dict]:
    """``{name: {"unit", "better", "bound"?}}`` for one kind of run:
    the per-layer metrics of a traced run, the end-to-end ones otherwise."""
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    return {row["name"]: row for row in rows}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 100``).

    Never interpolates, so failed requests entered as ``+inf`` push the
    percentile to ``inf`` instead of producing ``nan`` the way
    ``numpy.percentile`` does between ``inf`` and ``inf``.  Empty input
    gives ``nan``.
    """
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)``
    computes them — the spread rule in ``BENCHMARK.json`` is defined
    with it.  A single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def host_facts() -> dict:
    """What the numbers depend on: cores, BLAS threading, interpreter."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):  # older numpy: no mode="dicts"
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


def finite_or_none(value):
    """JSON has no ``inf``/``nan``: a latency made infinite by failed
    requests is written as ``null`` (the run is then not ``correct``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
