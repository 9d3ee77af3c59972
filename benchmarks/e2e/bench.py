"""End-to-end benchmark of the TimeDRL stack: four workloads, one command.

    python3 benchmarks/e2e/bench.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--runs N] [--output FILE]
        [--compare BASE.json] [--preset smoke]

Each workload run is a child process (``workloads.py``) with a wall-clock
cap, so ``setup_s`` and ``peak_rss_mb`` belong to that workload alone.
An untraced run prints the end-to-end metrics of ``BENCHMARK.json``; a
traced run (``--trace``) runs the workload untraced and then traced, and
prints the per-layer metrics, the stage table and the tracing overhead.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

``--runs N`` repeats each workload with seeds ``N`` apart from
``--seed``; ``--output`` saves every run, and ``--compare BASE.json``
judges this tree's runs against saved ones, metric by metric, and exits
1 when any metric got worse by more than its bound.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from harness import (ROOT, SPEC_PATH, SRC, WORK_ROOT, finite_or_none,
                     host_facts, load_spec, metric_table, quartiles,
                     relative_spread)

HERE = pathlib.Path(__file__).resolve().parent
# A whole run — both children when traced — ends within 180 s.
CAP_S = 170.0
SMOKE_SECONDS = 2.0
# glibc malloc pinned in the state a run reaches anyway after its first
# large free (one arena, fixed mmap and trim thresholds).  Left dynamic,
# when that happens and how many per-thread arenas grow varies from run
# to run, and peak RSS with it by 15-20%.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
              "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def _stop_group(process: subprocess.Popen) -> None:
    """Kill what is left of the child's process group (forked ranks
    included) and wait until it is gone."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              preset: str, cap_s: float) -> dict:
    """Run one workload in its own process group; a run that exceeds
    ``cap_s`` is killed and all of its ops count as failed."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                            dir=WORK_ROOT))
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace)),
               "--preset", preset, "--workdir", str(workdir)]
    try:
        # The child's stdout goes to our stderr (fd 2): the last line of
        # our stdout is reserved for the result.
        process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=2,
                                   start_new_session=True)
        killed = False
        try:
            process.wait(timeout=cap_s)
        except subprocess.TimeoutExpired:
            killed = True
        finally:
            _stop_group(process)
        result_path = workdir / "result.json"
        if not killed and process.returncode == 0 and result_path.is_file():
            return json.loads(result_path.read_text(encoding="utf-8"))
        reason = (f"killed at the {cap_s:.0f} s cap" if killed
                  else f"exited with status {process.returncode}")
        # The op count of a run that never reported is unknown: it is
        # charged as one op, failed.
        return {"workload": workload, "seed": seed, "attempted": 1,
                "failed": 1, "mismatches": [f"workload {reason}"],
                "values": {}, "info": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _summary(child: dict, table: dict, values: dict) -> dict:
    metrics = {name: {"value": finite_or_none(values.get(name)),
                      "unit": row["unit"]} for name, row in table.items()}
    complete = all(isinstance(item["value"], (int, float))
                   for item in metrics.values())
    return {"correct": not child["mismatches"] and complete,
            "attempted": child["attempted"], "failed": child["failed"],
            "metrics": metrics}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            preset: str, spec: dict) -> dict:
    """One run as ``BENCHMARK.json`` defines it, plus its details."""
    base = run_child(workload, seed, seconds, False, preset,
                     CAP_S / 2 if trace else CAP_S)
    if not trace:
        run = _summary(base, metric_table(spec, traced=False), base["values"])
        run["detail"] = base
        return run
    traced = run_child(workload, seed, seconds, True, preset, CAP_S / 2)
    layer = dict(traced.get("layer", {}))
    untraced_rate = base["values"].get("windows_per_s")
    traced_rate = traced["values"].get("windows_per_s")
    if untraced_rate and traced_rate:
        layer["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    merged = dict(traced, attempted=base["attempted"] + traced["attempted"],
                  failed=base["failed"] + traced["failed"],
                  mismatches=base["mismatches"] + traced["mismatches"])
    run = _summary(merged, metric_table(spec, traced=True), layer)
    run["detail"] = merged
    return run


# -- printing --------------------------------------------------------------
def _format(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_run(workload: str, seed: int, run: dict, out=sys.stdout) -> None:
    print(f"== {workload} seed={seed}: attempted={run['attempted']} "
          f"failed={run['failed']} correct={run['correct']}", file=out)
    for name, item in run["metrics"].items():
        print(f"   {name:<32} {_format(item['value']):>12} {item['unit']}",
              file=out)
    print(f"   info {json.dumps(run['detail']['info'])}", file=out)
    for message in run["detail"]["mismatches"][:5]:
        print(f"   ! {message}", file=out)
    table = run["detail"].get("stage_table")
    if table is not None:
        print_stage_table(table, out)


def print_stage_table(table: dict, out=sys.stdout) -> None:
    wall = table["wall_s"]
    for timeline in table["timelines"]:
        print(f"   -- {timeline['name']}: wall {timeline['wall_s']:.3f} s", file=out)
        total = 0.0
        rows = list(timeline["stages"].items())
        rows.append(("unattributed", timeline["unattributed_s"]))
        for stage, seconds in rows:
            total += seconds
            print(f"      {stage:<24} {seconds:10.4f} s "
                  f"{100 * seconds / timeline['wall_s']:6.1f}%", file=out)
        gap = abs(total - timeline["wall_s"]) / timeline["wall_s"]
        print(f"      {'sum':<24} {total:10.4f} s  (off by {100 * gap:.4f}%)",
              file=out)
    for timeline in table["concurrent"]:
        busy = ", ".join(f"{stage} {seconds:.3f}s"
                         for stage, seconds in timeline["stages"].items())
        print(f"   -- {timeline['name']} (concurrent): {busy or 'no spans'}",
              file=out)
    for name, item in table["requests"].items():
        print(f"   request {name:<13} p50 {item['p50_ms']:.3f} ms  "
              f"p99 {item['p99_ms']:.3f} ms  (n={item['n']})", file=out)
    print(f"   traced wall {wall:.3f} s; spans: {table['spans_path']}", file=out)


def _medians(runs: list[dict]) -> dict:
    metrics = {}
    for name, item in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        value = (None if any(v is None for v in values)
                 else quartiles(values)[1])
        metrics[name] = {"value": value, "unit": item["unit"]}
    return metrics


def final_line(results: dict) -> dict:
    runs = [run for per in results.values() for run in per]
    payload = {"correct": all(run["correct"] for run in runs),
               "attempted": sum(run["attempted"] for run in runs),
               "failed": sum(run["failed"] for run in runs)}
    if len(results) == 1:
        payload["metrics"] = _medians(next(iter(results.values())))
    else:
        payload["workloads"] = {name: _medians(per)
                                for name, per in results.items()}
    return payload


# -- compare ---------------------------------------------------------------
def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric.

    Unresolved when either side's interquartile spread (share of its
    median) exceeds the bound — unless every new run beats every base
    run.  Worse when the median moved the wrong way by more than the
    bound; better when it moved the right way by more than the base's
    own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = quartiles(base)[1]
    change = sign * (quartiles(new)[1] - base_median) / abs(base_median)
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better"
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > relative_spread(base):
        return "better"
    return "same"


def compare(base_path: pathlib.Path, results: dict, spec: dict,
            out=sys.stdout) -> int:
    payload = json.loads(base_path.read_text(encoding="utf-8"))
    if payload["trace"]:
        print(f"error: {base_path} holds traced runs, which carry no "
              "end-to-end metrics", file=sys.stderr)
        return 2
    base = payload["runs"]
    worse = 0
    rows = spec["end_to_end"]
    print(f"== compare against {base_path}", file=out)
    for workload, runs in results.items():
        if workload not in base:
            print(f"   {workload}: not in the base file", file=out)
            continue
        for row in rows:
            name = row["name"]
            old = [run["metrics"][name]["value"] for run in base[workload]]
            new = [run["metrics"][name]["value"] for run in runs]
            if None in old or None in new:
                print(f"   {workload:<17} {name:<16} missing values", file=out)
                worse += 1
                continue
            result = verdict(old, new, row["better"], row["bound"])
            worse += result == "worse"
            oq = quartiles(old)
            nq = quartiles(new)
            print(f"   {workload:<17} {name:<16} base {oq[1]:.4g} "
                  f"[{oq[0]:.4g}, {oq[2]:.4g}]  new {nq[1]:.4g} "
                  f"[{nq[0]:.4g}, {nq[2]:.4g}]  bound {row['bound']:.0%}  "
                  f"{result}", file=out)
    return 1 if worse else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end TimeDRL benchmark (see README.md).")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed phase per run (default: run_seconds of "
                             "BENCHMARK.json; smoke 2)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics + stage table")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds --seed, --seed+1, ...")
    parser.add_argument("--preset", choices=("default", "smoke"),
                        default="default")
    parser.add_argument("--output", type=pathlib.Path,
                        help="save every run as JSON (a --compare base)")
    parser.add_argument("--compare", type=pathlib.Path, metavar="BASE.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/repro and BENCHMARK.json are required)", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [row["name"] for row in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2
    if args.runs < 1:
        print("error: --runs must be >= 1", file=sys.stderr)
        return 2
    if args.compare is not None and args.trace:
        print("error: --compare judges the end-to-end metrics of untraced "
              "runs; drop --trace", file=sys.stderr)
        return 2
    seconds = args.seconds or (SMOKE_SECONDS if args.preset == "smoke"
                               else float(spec["run_seconds"]))
    workloads = [args.workload] if args.workload else names
    facts = host_facts()
    print(f"host: {json.dumps(facts)}")
    results: dict[str, list[dict]] = {}
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            run = measure(workload, seed, seconds, bool(args.trace),
                          args.preset, spec)
            print_run(workload, seed, run)
            results.setdefault(workload, []).append(run)
    status = 0 if all(run["correct"] for per in results.values()
                      for run in per) else 1
    if args.output is not None:
        args.output.write_text(json.dumps({
            "host": facts, "seconds": seconds, "preset": args.preset,
            "trace": bool(args.trace),
            "runs": {name: [{key: run[key] for key in
                             ("correct", "attempted", "failed", "metrics")}
                            for run in per]
                     for name, per in results.items()}},
            indent=1, allow_nan=False) + "\n", encoding="utf-8")
    if args.compare is not None:
        status = max(status, compare(args.compare, results, spec))
    print(json.dumps(final_line(results), allow_nan=False))
    return status


if __name__ == "__main__":
    sys.exit(main())
