"""Inputs, jobs and correctness checks of the three benchmark workloads.

Every input is a pure function of (workload, input seed).  The seed moves
geometry only: the size of every input is a constant of its workload, so
the amount of work cannot drift with the seed.

Each workload is a `Workload` of four steps, called in this order by
`job.run_job`, and the names of its results:

* ``make_input(input_seed, size)`` -- set-up, not timed as the job;
* ``run(inp)`` -- the timed job; returns the raw outputs;
* ``answer(inp, out)`` -- a small JSON-able summary: the results and
  figures for the info line;
* ``check(inp, out, ans)`` -- invariants that hold on every seed; returns a
  list of problems.
* ``results`` -- the answer keys that are results of the job and are
  checked against `reference.json`.  The other keys, such as
  ``after_prefilter`` (how many tuples the float prefilter kept), describe
  how the work was done; a correct change to the program may move them, so
  they enter only the invariants and the info line.

Each step looks the package functions up through their module at call time
(``counting.count_line_crossings``), so a traced run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from spacecross import counting, generators, geometry, pipeline, stairs
from spacecross.drawing import Graph, SpatialDrawing

# Fixed matching of bottom cells to top cells in the count-random drawing.
# Keeping it fixed and drawing only the endpoints from the seed keeps the
# spread of the positive count across seeds small (CV 0.09 over the 100
# recorded 3x3 inputs, against about 0.45 for uniformly random points).
_BUNDLE_MATCH = (11, 10, 8, 1, 7, 9, 2, 3, 5, 4, 0, 6)

# Each size keeps a job between half a second and about two seconds, so a
# 40-s run holds a dozen jobs or more.  A job's time, even when scaled to a
# fixed host speed (see `job.py`), varies by about a tenth on a shared
# host; the median of that many jobs is steady where that of a few long
# jobs is not.
SIZES: Dict[str, dict] = {
    "count-random": {"rows": 3, "cols": 3},
    "sphere-grid": {"rows": 4, "cols": 4, "subdivision": 2},
    "paper-constructions": {"hexgrid_k": 2, "stairs_n": 24,
                            "pipeline_n": 40, "pipeline_p": 0.4},
}


@dataclass(frozen=True)
class Workload:
    make_input: Callable[[int, dict], dict]
    run: Callable[[dict], dict]
    answer: Callable[[dict, dict], dict]
    check: Callable[[dict, dict, dict], List[str]]
    results: Tuple[str, ...]

    def compare(self, ans: dict, expected: dict) -> List[str]:
        """Problems where a result differs from recorded reference values."""
        return [f"{key} = {ans.get(key)!r}, reference {expected[key]!r}"
                for key in self.results
                if key in expected and ans.get(key) != expected[key]]


# ---------------------------------------------------------------------------
# count-random: straight segments, many positives
# ---------------------------------------------------------------------------

def bundle_drawing(input_seed: int, rows: int, cols: int) -> SpatialDrawing:
    """rows*cols vertex-disjoint segments.  Segment t joins a point of
    bottom cell t (z in [0, 1/8]) to a point of top cell `_BUNDLE_MATCH[t]`
    (z in [rows, rows + 1/8]); each endpoint is uniform on a 1/256 lattice
    inside the middle quarter of its unit cell."""
    m = rows * cols
    if m > len(_BUNDLE_MATCH):
        raise ValueError(f"at most {len(_BUNDLE_MATCH)} segments")
    match = [t for t in _BUNDLE_MATCH if t < m]
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    jitter = generators.random_points(2 * m, input_seed,
                                      denominator_bound=1, span=64)
    pts = []
    for t in range(m):
        for end, (ci, cj), z0 in ((0, cells[t], 0), (1, cells[match[t]], rows)):
            x, y, z = jitter[2 * t + end]
            pts.append((ci + Fraction(3, 8) + x / 256,
                        cj + Fraction(3, 8) + y / 256, z0 + z / 512))
    return SpatialDrawing(Graph.from_edges(2 * m, [(2 * t, 2 * t + 1)
                                                   for t in range(m)]), pts)


def _count_run(inp: dict) -> dict:
    return {"report": counting.count_line_crossings(inp["drawing"], 4)}


def _count_answer(inp: dict, out: dict) -> dict:
    r = out["report"]
    return {"m": inp["drawing"].graph.m,
            "tuples_total": r.tuples_total,
            "after_prefilter": r.tuples_after_prefilter,
            "count": r.count}


def _count_check(inp: dict, out: dict, ans: dict) -> List[str]:
    if not ans["count"] <= ans["after_prefilter"] <= ans["tuples_total"]:
        return [f"count {ans['count']} <= after_prefilter "
                f"{ans['after_prefilter']} <= tuples_total "
                f"{ans['tuples_total']} fails"]
    return []


def _random_input(input_seed: int, size: dict) -> dict:
    return {"drawing": bundle_drawing(input_seed, size["rows"], size["cols"])}


# ---------------------------------------------------------------------------
# sphere-grid: crossing-free plane grid lifted to a sphere, no positives
# ---------------------------------------------------------------------------

def plane_grid(input_seed: int, rows: int, cols: int) -> SpatialDrawing:
    """rows x cols grid graph in z = 0; each vertex sits within 1/8 of its
    integer point, so no two edges cross."""
    jitter = generators.random_points(rows * cols, input_seed,
                                      denominator_bound=1, span=64)
    pts = [(i + Fraction(jitter[i * cols + j][0] - 32, 256),
            j + Fraction(jitter[i * cols + j][1] - 32, 256), Fraction(0))
           for i in range(rows) for j in range(cols)]
    edges = [(i * cols + j, i * cols + j + 1)
             for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j)
              for i in range(rows - 1) for j in range(cols)]
    return SpatialDrawing(Graph.from_edges(rows * cols, edges), pts)


def _sphere_input(input_seed: int, size: dict) -> dict:
    plane = plane_grid(input_seed, size["rows"], size["cols"])
    lifted = counting.lift_to_sphere(plane, subdivision=size["subdivision"],
                                     seed=input_seed)
    return {"drawing": lifted, "plane": plane}


def _sphere_check(inp: dict, out: dict, ans: dict) -> List[str]:
    problems = _count_check(inp, out, ans)
    if counting.count_planar_crossings(inp["plane"]) != 0:
        problems.append("the plane grid has a crossing")
    return problems


# ---------------------------------------------------------------------------
# paper-constructions: hexgrid graph, stair count, witness pipeline
# ---------------------------------------------------------------------------

def _paper_input(input_seed: int, size: dict) -> dict:
    return {"size": size,
            "drawing": generators.random_drawing(size["pipeline_n"],
                                                 size["pipeline_p"],
                                                 input_seed)}


def _paper_run(inp: dict) -> dict:
    size = inp["size"]
    n = size["stairs_n"]
    return {"hexgrid": pipeline.hexgrid_graph(size["hexgrid_k"]),
            "candidates": stairs.count_candidate_quadruples(n, 2 * n),
            "witnesses": pipeline.boost_witness_pipeline(inp["drawing"])}


def _paper_answer(inp: dict, out: dict) -> dict:
    return {"hexgrid_vertices": out["hexgrid"].graph.n,
            "hexgrid_edges": out["hexgrid"].graph.m,
            "candidates": out["candidates"],
            "witnesses": len(out["witnesses"])}


def _paper_check(inp: dict, out: dict, ans: dict) -> List[str]:
    """Every witness line meets each of its four edges, and the edges are
    pairwise vertex-disjoint; checked with `geometry.line_meets_segment`
    alone."""
    d = inp["drawing"]
    problems = []
    for w in out["witnesses"]:
        if len({v for e in w.edges for v in e}) != 8:
            problems.append(f"witness edges {w.edges} share a vertex")
        for e in w.edges:
            seg = d.edge_segments(e)[0]
            if not geometry.line_meets_segment(w.line, seg)[0]:
                problems.append(f"witness line misses edge {e}")
    return problems


_COUNT_RESULTS = ("m", "tuples_total", "count")

WORKLOADS: Dict[str, Workload] = {
    "count-random": Workload(_random_input, _count_run, _count_answer,
                             _count_check, _COUNT_RESULTS),
    "sphere-grid": Workload(_sphere_input, _count_run, _count_answer,
                            _sphere_check, _COUNT_RESULTS),
    "paper-constructions": Workload(_paper_input, _paper_run, _paper_answer,
                                    _paper_check,
                                    ("hexgrid_vertices", "hexgrid_edges",
                                     "candidates", "witnesses")),
}
