"""Spans around the public functions of each `spacecross` module, taken
from outside the package, and the per-layer metrics computed from them.

A `Tracer` replaces module attributes with timing wrappers.  A function is
wrapped where callers look it up: `transversal_exists_segments` is wrapped
as `spacecross.counting.transversal_exists_segments` and as
`spacecross.linking.transversal_exists_segments`, because those modules
imported it by name.  `QuadExt.__init__` is counted, not timed: it runs
about a hundred thousand times per job.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span or None, ``info`` a small summary of the return value.
Spans stay in memory and `Tracer.write` stores them as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

JOB = "job"
COUNT = "counting.count_line_crossings"
LIFT = "counting.lift_to_sphere"
TRANSVERSAL = "geometry.transversal_exists_segments"
VERIFY = "geometry.verify_transversal"
LINKING_NUMBER = "linking.linking_number"
FIND_LINKED_PAIR = "linking.find_linked_pair"
THROUGH_CYCLES = "linking.transversal_through_cycles"
BISECTION = "pipeline.random_bisection"
K6_EXTRACT = "pipeline.extract_disjoint_subdivisions"
BOOST = "pipeline.boost_witness_pipeline"
HEXGRID = "pipeline.hexgrid_graph"
CANDIDATES = "stairs.count_candidate_quadruples"
INPUT_GENERATORS = ("generators.random_points", "generators.random_drawing")
QUADEXT_MADE = "scalars.quadext_made"


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, info: Any = None) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans must close in reverse order")
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = info

    def wrap(self, owner: Any, attr: str, name: str,
             info: Optional[Callable[[Any], Any]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span `name`."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, info(result) if info and result is not None
                         else None)

        setattr(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts its calls."""
        fn = getattr(owner, attr)
        self.counters[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def to_doc(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function the benchmark measures; unwrap on exit."""
    from spacecross import (counting, generators, geometry, linking, pipeline,
                            scalars, stairs)

    def report_info(r):
        return [r.tuples_total, r.tuples_after_prefilter, r.count]

    sites = [
        (counting, "count_line_crossings", COUNT, report_info),
        (counting, "lift_to_sphere", LIFT, None),
        (counting, "transversal_exists_segments", TRANSVERSAL, _exists),
        (linking, "transversal_exists_segments", TRANSVERSAL, _exists),
        (geometry, "verify_transversal", VERIFY, None),
        (linking, "linking_number", LINKING_NUMBER, None),
        (pipeline, "find_linked_pair", FIND_LINKED_PAIR, None),
        (pipeline, "transversal_through_cycles", THROUGH_CYCLES, None),
        (pipeline, "random_bisection", BISECTION, None),
        (pipeline, "extract_disjoint_subdivisions", K6_EXTRACT, len),
        (pipeline, "boost_witness_pipeline", BOOST, len),
        (pipeline, "hexgrid_graph", HEXGRID, None),
        (stairs, "count_candidate_quadruples", CANDIDATES, int),
    ] + [(generators, name.split(".")[1], name, None)
         for name in INPUT_GENERATORS]
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in sites]
    originals.append((scalars.QuadExt, "__init__", scalars.QuadExt.__init__))
    try:
        for owner, attr, name, info in sites:
            tracer.wrap(owner, attr, name, info)
        tracer.count_calls(scalars.QuadExt, "__init__", QUADEXT_MADE)
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _exists(result) -> bool:
    return bool(result.exists)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


# Per-layer metrics: name -> (unit, better).  Counts come from one traced
# job and repeat exactly for a seed; times are medians over traced jobs.
PER_LAYER = {
    "counting.tuples_total": ("count", "lower"),
    "counting.after_prefilter": ("count", "lower"),
    "counting.prefilter_keep_ratio": ("ratio", "lower"),
    "counting.positive_ratio": ("ratio", "higher"),
    "counting.self_s": ("s", "lower"),
    "geometry.transversal_calls": ("count", "lower"),
    "geometry.transversal_exists_ratio": ("ratio", "higher"),
    "geometry.transversal_pos_ms": ("ms", "lower"),
    "geometry.transversal_neg_ms": ("ms", "lower"),
    "geometry.transversal_self_s": ("s", "lower"),
    "geometry.verify_calls": ("count", "lower"),
    "geometry.verify_per_positive": ("ratio", "lower"),
    "geometry.verify_s": ("s", "lower"),
    "scalars.quadext_made": ("count", "lower"),
    "scalars.quadext_per_positive": ("ratio", "lower"),
    "linking.linking_number_calls": ("count", "lower"),
    "linking.linking_number_s": ("s", "lower"),
    "linking.find_linked_pair_s": ("s", "lower"),
    "linking.transversal_through_cycles_s": ("s", "lower"),
    "pipeline.bisection_calls": ("count", "lower"),
    "pipeline.k6_extract_s": ("s", "lower"),
    "pipeline.k6_found": ("count", "higher"),
    "pipeline.witnesses": ("count", "higher"),
    "pipeline.hexgrid_graph_s": ("s", "lower"),
    "stairs.candidate_count_s": ("s", "lower"),
    "stairs.candidate_count": ("count", "higher"),
    "counting.lift_s": ("s", "lower"),
    "generators.input_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Ratio metric -> the count it is divided by, and the workloads on which
# that count must be nonzero for the ratio to mean anything.
RATIO_BASES = {
    "counting.prefilter_keep_ratio":
        ("counting.tuples_total", ("count-random", "sphere-grid")),
    "counting.positive_ratio":
        ("counting.after_prefilter", ("count-random", "sphere-grid")),
    "geometry.transversal_exists_ratio":
        ("geometry.transversal_calls",
         ("count-random", "sphere-grid", "paper-constructions")),
    "geometry.transversal_pos_ms":
        ("geometry.transversal_positives",
         ("count-random", "paper-constructions")),
    "geometry.transversal_neg_ms":
        ("geometry.transversal_negatives",
         ("sphere-grid", "paper-constructions")),
    "geometry.verify_per_positive":
        ("geometry.transversal_positives",
         ("count-random", "paper-constructions")),
    "scalars.quadext_per_positive":
        ("geometry.transversal_positives", ("count-random",)),
}


def job_layer_values(doc: dict) -> Dict[str, float]:
    """Raw per-layer values of one traced job, including the ratio bases."""
    spans = doc["spans"]
    own = self_times(spans)

    def named(name: str) -> List[int]:
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name: str) -> float:
        return sum((spans[i][2] - spans[i][1] for i in named(name)), 0.0)

    def own_total(name: str) -> float:
        return sum((own[i] for i in named(name)), 0.0)

    counts = [spans[i][4] for i in named(COUNT)]
    tuples_total = sum(c[0] for c in counts)
    after_prefilter = sum(c[1] for c in counts)
    positives_counted = sum(c[2] for c in counts)
    transversal = named(TRANSVERSAL)
    pos = [spans[i][2] - spans[i][1] for i in transversal if spans[i][4]]
    neg = [spans[i][2] - spans[i][1] for i in transversal if not spans[i][4]]
    verify_calls = len(named(VERIFY))
    quadext = doc["counters"].get(QUADEXT_MADE, 0)
    return {
        "counting.tuples_total": tuples_total,
        "counting.after_prefilter": after_prefilter,
        "counting.prefilter_keep_ratio": _ratio(after_prefilter, tuples_total),
        "counting.positive_ratio": _ratio(positives_counted, after_prefilter),
        "counting.self_s": own_total(COUNT),
        "geometry.transversal_calls": len(transversal),
        "geometry.transversal_positives": len(pos),
        "geometry.transversal_negatives": len(neg),
        "geometry.transversal_exists_ratio": _ratio(len(pos), len(transversal)),
        "geometry.transversal_pos_ms": 1000 * _ratio(sum(pos), len(pos)),
        "geometry.transversal_neg_ms": 1000 * _ratio(sum(neg), len(neg)),
        "geometry.transversal_self_s": own_total(TRANSVERSAL),
        "geometry.verify_calls": verify_calls,
        "geometry.verify_per_positive": _ratio(verify_calls, len(pos)),
        "geometry.verify_s": total(VERIFY),
        "scalars.quadext_made": quadext,
        "scalars.quadext_per_positive": _ratio(quadext, len(pos)),
        "linking.linking_number_calls": len(named(LINKING_NUMBER)),
        "linking.linking_number_s": total(LINKING_NUMBER),
        "linking.find_linked_pair_s": total(FIND_LINKED_PAIR),
        "linking.transversal_through_cycles_s": total(THROUGH_CYCLES),
        "pipeline.bisection_calls": len(named(BISECTION)),
        "pipeline.k6_extract_s": total(K6_EXTRACT),
        "pipeline.k6_found": sum(spans[i][4] or 0 for i in named(K6_EXTRACT)),
        "pipeline.witnesses": sum(spans[i][4] or 0 for i in named(BOOST)),
        "pipeline.hexgrid_graph_s": total(HEXGRID),
        "stairs.candidate_count_s": total(CANDIDATES),
        "stairs.candidate_count": sum(spans[i][4] or 0
                                      for i in named(CANDIDATES)),
        "counting.lift_s": total(LIFT),
        "generators.input_s": sum(total(n) for n in INPUT_GENERATORS),
    }


def layer_metrics(docs: List[dict], untraced_wall: Iterable[float]
                  ) -> Dict[str, float]:
    """Per-layer metrics of a traced run: counts from the first job, times
    as medians over all jobs, and the overhead of tracing."""
    values = [job_layer_values(d) for d in docs]
    traced_wall = [s[2] - s[1] for d in docs for s in d["spans"]
                   if s[0] == JOB]
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        if unit in ("s", "ms"):
            metrics[name] = statistics.median(v[name] for v in values)
        else:
            metrics[name] = values[0][name]
    metrics["trace.overhead_ratio"] = (statistics.median(traced_wall)
                                       / statistics.median(untraced_wall))
    return metrics
