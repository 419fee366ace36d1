"""Record the reference answers that `job.py` checks jobs against.

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Runs the first `JOBS_PER_SEED` inputs of run seeds 0-9 of each named
workload (all by default) at the default size and stores their results
(`Workload.results`) in `reference.json`.  Results that do not depend on
the seed by construction are stored once, under "fixed", and are checked
on every seed.
"""

from __future__ import annotations

import json
import sys

import job
import workloads

SEEDS = range(10)
JOBS_PER_SEED = 10
FIXED_KEYS = {
    "count-random": ("m", "tuples_total"),
    "sphere-grid": ("m", "tuples_total"),
    "paper-constructions": ("hexgrid_vertices", "hexgrid_edges", "candidates"),
}


def record(workload: str) -> dict:
    results = workloads.WORKLOADS[workload].results
    answers = {}
    for seed in SEEDS:
        for i in range(JOBS_PER_SEED):
            result = job.run_job(workload, seed * 1000 + i)
            if result["problems"]:
                raise RuntimeError(f"{workload} {seed * 1000 + i}: "
                                   f"{result['problems']}")
            answers[str(seed * 1000 + i)] = {k: result["answer"][k]
                                             for k in results}
    keys = FIXED_KEYS[workload]
    fixed = {k: next(iter(answers.values()))[k] for k in keys}
    for input_seed, ans in answers.items():
        if any(ans[k] != fixed[k] for k in keys):
            raise RuntimeError(f"{workload} {input_seed}: {ans} vs {fixed}")
    return {"fixed": fixed,
            "by_seed": {s: {k: v for k, v in ans.items() if k not in keys}
                        for s, ans in answers.items()}}


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        answers = record(name)
        with open(job.REFERENCE_PATH) as fh:
            reference = json.load(fh)
        reference[name] = answers
        with open(job.REFERENCE_PATH, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
