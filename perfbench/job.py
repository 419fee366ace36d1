"""One benchmark job: set up one input, run the timed job, check the answer.

    python3 perfbench/job.py WORKLOAD INPUT_SEED [TRACE_FILE]

`run.py` starts each job in a fresh process, so every job pays the import
and the cold caches (such as the per-n sweep of `stairs`) that a command
line user pays.  The job prints one JSON line.  With TRACE_FILE it records
spans (see `tracing`) and writes them there when the process exits.

On a shared host the speed drifts by up to a third over tens of seconds
(measured on two vCPUs of a shared Intel Xeon server), and a run is too
short to average that out.  So the job also times `calibration_s`, a
fixed loop of standard-library arithmetic that no change to the package
can move, right before and right after the timed region, and reports
``host_scale``: `NOMINAL_CALIBRATION_S` divided by the mean of the two.
`run.py` multiplies the job's times by it, which gives seconds at a fixed
host speed.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction
from typing import List, Optional

import tracing
import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# median of `calibration_s` on the host the bounds were set on: two vCPUs
# of a shared Intel Xeon server, Python 3.11
NOMINAL_CALIBRATION_S = 0.125


def calibration_s() -> float:
    """Seconds taken by a fixed loop of small-int and `Fraction`
    arithmetic, the two kinds of work the package's exact code does.  The
    collector is off, so the job's heap cannot move the figure."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(700_000):
            acc += i * i % 7
        third = Fraction(1, 3)
        s = Fraction(acc % 5)
        for i in range(1, 6000):
            s = (s + Fraction(i, 7 * i + 1) * third) / Fraction(i + 1, i + 2)
            if s.denominator > 10 ** 40:
                s = Fraction(s.numerator % 1000, 17)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def expected_answer(workload: str, input_seed: int) -> dict:
    """Reference values recorded for this input at the default size: the
    seed-independent ones always, the rest only for recorded seeds."""
    with open(REFERENCE_PATH) as fh:
        ref = json.load(fh)[workload]
    return {**ref["fixed"], **ref["by_seed"].get(str(input_seed), {})}


def run_job(workload: str, input_seed: int,
            tracer: Optional[tracing.Tracer] = None,
            size: Optional[dict] = None,
            expected: Optional[dict] = None) -> dict:
    """Set up, time and check one job in this process.

    Returns the wall time of the job, the monotonic clock reading when
    set-up ended (so the parent can add process start and import), the
    host scale, peak RSS, the answer and the problems found by the checks.
    """
    wl = workloads.WORKLOADS[workload]
    size = size or workloads.SIZES[workload]
    if tracer is None:
        return _timed(wl, input_seed, size, None, expected)
    with tracing.installed(tracer):
        return _timed(wl, input_seed, size, tracer, expected)


def _timed(wl, input_seed, size, tracer, expected) -> dict:
    inp = wl.make_input(input_seed, size)
    t_ready = time.monotonic()
    before = calibration_s()
    root = tracer.begin(tracing.JOB) if tracer else None
    t0 = time.perf_counter()
    out = wl.run(inp)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
    host_scale = 2 * NOMINAL_CALIBRATION_S / (before + calibration_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    answer = wl.answer(inp, out)
    problems: List[str] = wl.check(inp, out, answer)
    if expected:
        problems += wl.compare(answer, expected)
    return {"t_ready": t_ready, "wall_s": wall, "host_scale": host_scale,
            "peak_rss_mb": peak_rss_mb, "answer": answer,
            "problems": problems}


def main(argv: List[str]) -> int:
    workload, input_seed = argv[0], int(argv[1])
    tracer = None
    if len(argv) > 2:
        tracer = tracing.Tracer()
        atexit.register(tracer.write, argv[2])
    try:
        result = run_job(workload, input_seed, tracer,
                         expected=expected_answer(workload, input_seed))
    except Exception:
        result = {"problems": [traceback.format_exc()]}
    import numpy
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
