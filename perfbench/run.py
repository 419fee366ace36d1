"""Benchmark of `spacecross` on three workloads taken from the paper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: jobs run one at a time, each in a fresh
single-threaded process (`job.py`).  It starts no job that would end
after S seconds, judged by the last job, once `MIN_JOBS` jobs have run.  Job i of a run uses input seed
N * 1000 + i, so a seed fixes the inputs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A job fails when it
raises, breaks an invariant of its workload, or differs from the results
recorded in `reference.json` for its input.  The line before it, `info`,
records the interpreter, numpy, the CPU count and each job's size, so a
drift in size shows.

--trace 0 gives the end-to-end metrics, medians over the run's jobs:
  wall_s       seconds of the job itself;
  setup_s      from process start to a ready input: start, import and
               input generation (including the sphere lift);
  peak_rss_mb  ru_maxrss of the job process.
Both times are scaled by the job's `host_scale` (see `job.py`) to a fixed
host speed; the info line keeps the raw seconds and the scales.
--trace 1 runs every input twice, untraced and traced, and gives the
per-layer metrics of `tracing.PER_LAYER`.

The run exits with code 2 and prints no result when the package source
is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")

MIN_JOBS = 3
# every run must end within 180 s; no job starts after this many seconds
HARD_LIMIT_S = 150.0


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, input_seed: int, trace_path: Optional[str],
          timeout: float) -> dict:
    """Run one job in a fresh process; returns its result with setup_s and
    ok added.  A crash or timeout is a failed job."""
    args = [sys.executable, JOB, workload, str(input_seed)]
    if trace_path:
        args.append(trace_path)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(args, env=job_env(), cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "problems": [proc.stderr[-2000:]]}
    result = json.loads(lines[-1])
    result["ok"] = not result["problems"] and "wall_s" in result
    if "t_ready" in result:
        result["setup_s"] = result["t_ready"] - t_spawn
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    trace_dir = tempfile.mkdtemp(prefix=".trace-", dir=HERE) if trace else None
    jobs: List[dict] = []
    traced: List[dict] = []
    try:
        i = 0
        last = 0.0
        # start a job only if one more like the last still ends in time
        while i < MIN_JOBS or time.monotonic() - start + last < seconds:
            timeout = start + HARD_LIMIT_S - time.monotonic()
            if timeout <= 0:
                break
            t_job = time.monotonic()
            input_seed = seed * 1000 + i
            result = spawn(workload, input_seed, None, timeout)
            result["input_seed"] = input_seed
            jobs.append(result)
            if trace and result["ok"]:
                path = os.path.join(trace_dir, f"{i}.json")
                t = spawn(workload, input_seed, path,
                          max(1.0, start + HARD_LIMIT_S - time.monotonic()))
                if t["ok"]:
                    with open(path) as fh:
                        traced.append(json.load(fh))
                else:
                    t["input_seed"] = input_seed
                    jobs.append(t)
            last = time.monotonic() - t_job
            i += 1
    finally:
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
    return summarize(workload, seed, jobs, traced if trace else None)


def summarize(workload: str, seed: int, jobs: List[dict],
              traced: Optional[List[dict]]) -> dict:
    ok = [j for j in jobs if j["ok"]]
    failed = len(jobs) - len(ok)
    info = {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "versions": next((j["versions"] for j in jobs if "versions" in j),
                             None),
            "jobs": [{"input_seed": j["input_seed"], "ok": j["ok"],
                      "wall_s": j.get("wall_s"), "setup_s": j.get("setup_s"),
                      "host_scale": j.get("host_scale"),
                      **j.get("answer", {})} for j in jobs],
            "problems": [p for j in jobs for p in j.get("problems", [])][:5]}
    print(json.dumps({"info": info}))
    if not ok or (traced is not None and not traced):
        return {}
    if traced is None:
        metrics = {
            "wall_s": (statistics.median(j["wall_s"] * j["host_scale"]
                                         for j in ok), "s"),
            "setup_s": (statistics.median(j["setup_s"] * j["host_scale"]
                                          for j in ok), "s"),
            "peak_rss_mb": (statistics.median(j["peak_rss_mb"] for j in ok),
                            "MB"),
        }
    else:
        values = tracing.layer_metrics(traced, [j["wall_s"] for j in ok])
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "spacecross", "__init__.py")):
        print(f"no spacecross package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result:
        print("no job succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
