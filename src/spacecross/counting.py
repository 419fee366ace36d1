"""Crossing counts for spatial drawings.

``count_line_crossings`` counts vertex-disjoint k-tuples of edges (k = 3
or 4) admitting a common transversal line.  A two-level floating-point
filter runs before the exact predicate, and both levels apply the same
two vectorized tests, ``_collinear_possible`` on enclosing balls and, for
k = 4, ``_stab_batch``, a 2D stabbing test in a projection:

1. per edge tuple, on the edges' enclosing balls and on their straight
   chords fattened by the polyline width;
2. per segment combination (one segment of each edge), for all tuples
   that pass level 1 at once, on the segments themselves.

Every combination that passes goes to the exact predicate
``transversal_exists_segments``, tuple by tuple in lexicographic order of
the combinations, and a tuple stops at its first transversal.  The ball,
chord and 2D stabbing tests are the only float rejections; they carry
fixed slacks but are not certified.  ``prefilter=False`` runs none of
them and is the all-exact reference.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .drawing import Edge, Graph, SpatialDrawing
from .errors import ValidationError
from .geometry import (PluckerLine, Segment3, segments_intersect_2d,
                       transversal_exists_segments)

# rows (tuples or segment combinations) per vectorized filter batch
_CHUNK = 262144


@dataclass
class CrossingWitness:
    """A k-tuple of vertex-disjoint edges with a certified transversal."""

    edges: Tuple[Edge, ...]
    line: PluckerLine
    contacts: List[Tuple[Edge, int, object]]  # (edge, segment index, parameter)


@dataclass
class CrossingReport:
    k: int
    count: int
    witnesses: Optional[List[CrossingWitness]] = None
    elapsed: float = 0.0
    tuples_total: int = 0
    tuples_after_prefilter: int = 0


def enumerate_disjoint_tuples(g: Graph, k: int) -> Iterable[Tuple[Edge, ...]]:
    """All k-sets of pairwise vertex-disjoint edges, lexicographically."""
    for idx in enumerate_disjoint_index_tuples(g, k):
        yield tuple(g.edges[i] for i in idx)


def enumerate_disjoint_index_tuples(g: Graph, k: int) -> Iterable[Tuple[int, ...]]:
    edges = g.edges
    n_edges = len(edges)

    def rec(start: int, used: set, acc: List[int]):
        if len(acc) == k:
            yield tuple(acc)
            return
        # not enough edges left to finish
        for i in range(start, n_edges - (k - len(acc)) + 1):
            u, v = edges[i]
            if u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            acc.append(i)
            yield from rec(i + 1, used, acc)
            acc.pop()
            used.discard(u)
            used.discard(v)

    yield from rec(0, set(), [])


def count_planar_crossings(d: SpatialDrawing) -> int:
    """Pairs of vertex-disjoint straight edges crossing in the z = 0 plane."""
    if not d.is_straight() or not d.is_flat():
        raise ValidationError("planar crossing count needs a flat straight-line drawing")
    pts = [(p[0], p[1]) for p in d.positions]
    edges = d.graph.edges
    count = 0
    for i in range(len(edges)):
        u1, v1 = edges[i]
        for j in range(i + 1, len(edges)):
            u2, v2 = edges[j]
            if len({u1, v1, u2, v2}) < 4:
                continue
            a = (pts[u1], pts[v1])
            b = (pts[u2], pts[v2])
            if segments_intersect_2d(a, b) == "crossing":
                count += 1
    return count


# ---------------------------------------------------------------------------
# sphere lift
# ---------------------------------------------------------------------------

def _jitter(seed: int, e: Edge, idx: int, comp: int, scale: Fraction) -> Fraction:
    import random
    rng = random.Random(seed * 1000003 + e[0] * 8191 + e[1] * 131 + idx * 7 + comp)
    return Fraction(rng.randint(-2 ** 30, 2 ** 30), 2 ** 30) * scale


def lift_to_sphere(planar: SpatialDrawing, subdivision: int, seed: int = 0,
                   radius_factor: int = 2 ** 16,
                   jitter_scale: Fraction = Fraction(1, 2 ** 40)) -> SpatialDrawing:
    """Map a flat straight-line drawing onto a large rational sphere.

    Inverse stereographic projection from a pole far above the drawing:
    the image of a rational plane point is a rational sphere point.  Every
    edge becomes a polyline of ``subdivision`` chords whose interior
    vertices get a deterministic tiny rational jitter so that no point is
    shared by the interiors of vertex-disjoint edges.
    """
    if subdivision < 1:
        raise ValidationError("subdivision must be at least 1")
    if not planar.is_straight() or not planar.is_flat():
        raise ValidationError("sphere lift needs a flat straight-line drawing")
    xs = [p[0] for p in planar.positions]
    ys = [p[1] for p in planar.positions]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    extent = (max(xs) - min(xs)) + (max(ys) - min(ys))
    if extent == 0:
        extent = Fraction(1)
    radius = radius_factor * extent

    def to_sphere(p) -> Tuple[Fraction, Fraction, Fraction]:
        ux, uy = p[0] - cx, p[1] - cy
        denom = ux * ux + uy * uy + 4 * radius * radius
        return (cx + 4 * radius * radius * ux / denom,
                cy + 4 * radius * radius * uy / denom,
                2 * radius * (ux * ux + uy * uy) / denom)

    positions = [to_sphere(p) for p in planar.positions]
    polylines: Dict[Edge, List] = {}
    amp = jitter_scale * radius
    for e in planar.graph.edges:
        u, v = e
        pu, pv = planar.positions[u], planar.positions[v]
        interior = []
        for i in range(1, subdivision):
            t = Fraction(i, subdivision)
            flat = (pu[0] + t * (pv[0] - pu[0]), pu[1] + t * (pv[1] - pu[1]), 0)
            x, y, z = to_sphere(flat)
            interior.append((x + _jitter(seed, e, i, 0, amp),
                             y + _jitter(seed, e, i, 1, amp),
                             z + _jitter(seed, e, i, 2, amp)))
        if interior:
            polylines[e] = interior
    return SpatialDrawing(planar.graph, positions, polylines)


# ---------------------------------------------------------------------------
# the counting pipeline
# ---------------------------------------------------------------------------

@dataclass
class _EdgeData:
    segments: List[Segment3]
    seg_p: np.ndarray        # (s, 3) float endpoints
    seg_q: np.ndarray
    seg_center: np.ndarray   # (s, 3)
    seg_radius: np.ndarray   # (s,)
    center: np.ndarray       # (3,) enclosing ball of the whole edge
    radius: float
    chord_p: Tuple[float, float, float]   # straight chord between endpoints
    chord_q: Tuple[float, float, float]
    chord_width: float                    # max polyline deviation from it


def _edge_data(d: SpatialDrawing, e: Edge) -> _EdgeData:
    segs = d.edge_segments(e)
    p = np.array([[float(c) for c in s.p] for s in segs])
    q = np.array([[float(c) for c in s.q] for s in segs])
    mid = (p + q) / 2
    half = np.linalg.norm(q - p, axis=1) / 2
    rad = half * (1 + 1e-9) + 1e-12
    pts = np.vstack([p, q])
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2
    radius = float(np.linalg.norm(pts - center, axis=1).max())
    radius = radius * (1 + 1e-9) + 1e-12
    cp, cq = p[0], q[-1]
    axis = cq - cp
    alen = float(np.linalg.norm(axis))
    if alen > 0 and len(segs) > 1:
        diffs = pts - cp
        perp = diffs - np.outer(diffs @ axis / (alen * alen), axis)
        width = float(np.linalg.norm(perp, axis=1).max())
    else:
        width = 0.0
    width = width * (1 + 1e-9) + 1e-12
    return _EdgeData(segs, p, q, mid, rad, center, radius,
                     tuple(cp), tuple(cq), width)


def _stab_batch(P: np.ndarray, Q: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Vectorized necessary 2D stabbing test for four fattened segments.

    P, Q: (rows, 4, 3) segment endpoints, W: (rows, 4) widths by which
    each segment may be fattened.  For each row, project the segments
    along the axis most normal to them and ask whether some line through
    two projected endpoints stabs all four within their width slack; a
    transversal would project to such a stabber.  Returns a keep mask.
    """
    m = len(P)
    dirs = Q - P
    best = np.zeros((m, 3))
    best_n = np.zeros(m)
    for i in range(4):
        for j in range(i + 1, 4):
            ax = np.cross(dirs[:, i], dirs[:, j])
            n2 = np.einsum("ij,ij->i", ax, ax)
            take = n2 > best_n
            best[take] = ax[take]
            best_n[take] = n2[take]
    keep_parallel = best_n == 0.0   # all segments parallel: no useful axis
    nrm = np.sqrt(np.maximum(best_n, 1e-300))
    axis = best / nrm[:, None]
    # in-plane frame
    ex = np.abs(axis)
    e1 = np.zeros((m, 3))
    smallest = np.argmin(ex, axis=1)
    rows = np.arange(m)
    e1[rows, (smallest + 1) % 3] = -axis[rows, (smallest + 2) % 3]
    e1[rows, (smallest + 2) % 3] = axis[rows, (smallest + 1) % 3]
    e1 /= np.maximum(np.linalg.norm(e1, axis=1), 1e-300)[:, None]
    e2 = np.cross(axis, e1)
    ends = np.concatenate([P, Q], axis=1)              # (m, 8, 3)
    px = np.einsum("mkj,mj->mk", ends, e1)             # (m, 8)
    py = np.einsum("mkj,mj->mk", ends, e2)
    w8 = np.concatenate([W, W], axis=1)                # (m, 8)
    ok = np.zeros(m, dtype=bool)
    for a in range(8):
        for b in range(a + 1, 8):
            ux = px[:, b] - px[:, a]
            uy = py[:, b] - py[:, a]
            ln = np.sqrt(ux * ux + uy * uy)
            ln = np.maximum(ln, 1e-300)
            ux, uy = ux / ln, uy / ln
            slack0 = 2 * (w8[:, a] + w8[:, b]) + 1e-9
            good = np.ones(m, dtype=bool)
            for i in range(4):
                sp = (px[:, i] - px[:, a]) * uy - (py[:, i] - py[:, a]) * ux
                sq = (px[:, i + 4] - px[:, a]) * uy - (py[:, i + 4] - py[:, a]) * ux
                miss = (sp * sq > 0) & (np.minimum(np.abs(sp), np.abs(sq))
                                        > 2 * W[:, i] + slack0)
                good &= ~miss
            ok |= good
            if ok.all():
                return ok
    return ok | keep_parallel


def _collinear_possible(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Vectorized necessary condition for stabbing k balls with one line.

    centers: (m, k, 3), radii: (m, k).  Points q_i inside the balls can be
    collinear only if every centre triple is nearly collinear relative to
    the ball radii; returns a boolean keep-mask of shape (m,).
    """
    m, k, _ = centers.shape
    keep = np.ones(m, dtype=bool)
    for a, b, c in itertools.combinations(range(k), 3):
        ca, cb, cc = centers[:, a], centers[:, b], centers[:, c]
        ra, rb, rc = radii[:, a], radii[:, b], radii[:, c]
        dab = np.linalg.norm(cb - ca, axis=1)
        dac = np.linalg.norm(cc - ca, axis=1)
        resid = np.linalg.norm(np.cross(cb - ca, cc - ca), axis=1)
        slack = ((dab + ra + rb) * (ra + rc)
                 + (dac + ra + rc) * (ra + rb)
                 + (ra + rb) * (ra + rc))
        keep &= resid <= slack * (1 + 1e-6) + 1e-18
    return keep


def _stab_filter(idx: np.ndarray, centers, radii, ends_p, ends_q,
                 widths) -> np.ndarray:
    """Keep mask of the rows of ``idx`` (item indices, one row per tuple
    of items) that pass the ball test and, for k = 4, the 2D stabbing test.
    The items are edges (balls, chords and chord widths) or segments."""
    keep = _collinear_possible(centers[idx], radii[idx])
    if idx.shape[1] == 4 and keep.any():
        sub = idx[keep]
        keep[keep] = _stab_batch(ends_p[sub], ends_q[sub], widths[sub])
    return keep


def _segment_combinations(tuples: np.ndarray, first: np.ndarray):
    """Every choice of one segment per edge for every edge tuple.

    ``first[e]`` is the index of edge e's first segment and ``first[e+1]``
    one past its last.  Yields (tuple index, segment indices) blocks of at
    most ``_CHUNK`` rows, in tuple order and lexicographic order of the
    choices within a tuple.
    """
    sizes = (first[1:] - first[:-1])[tuples]        # (t, k)
    counts = sizes.prod(axis=1)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _CHUNK):
        flat = np.arange(lo, min(lo + _CHUNK, total))
        t = np.searchsorted(ends, flat, side="right")
        local = flat - (ends[t] - counts[t])
        segs = np.empty((len(flat), tuples.shape[1]), dtype=np.int64)
        for i in reversed(range(tuples.shape[1])):
            segs[:, i] = first[tuples[t, i]] + local % sizes[t, i]
            local //= sizes[t, i]
        yield t, segs


def count_line_crossings(d: SpatialDrawing, k: int,
                         want_witnesses: bool = False,
                         prefilter: bool = True) -> CrossingReport:
    """Count vertex-disjoint k-tuples of edges pierced by a common line.

    A tuple counts once no matter how many transversal lines it admits,
    and every counted tuple carries an exactly verified witness.  With
    ``prefilter`` the float ball, chord and 2D stabbing tests of the
    module docstring drop tuples, then segment combinations, before the
    exact predicate; ``tuples_after_prefilter`` counts the tuples the
    first level keeps.  These slack-padded tests are the only uncertified
    rejections.  ``prefilter=False`` turns them off: each combination of
    each tuple goes to the exact predicate, which makes it the all-exact
    reference.
    """
    if k not in (3, 4):
        raise ValueError("k must be 3 or 4")
    t0 = time.perf_counter()
    g = d.graph
    eds = [_edge_data(d, e) for e in g.edges]
    centers = np.array([ed.center for ed in eds])
    radii = np.array([ed.radius for ed in eds])
    chord_p = np.array([ed.chord_p for ed in eds])
    chord_q = np.array([ed.chord_q for ed in eds])
    chord_w = np.array([ed.chord_width for ed in eds])

    count = 0
    witnesses: List[CrossingWitness] = []

    n_edges = g.m
    if n_edges < k:
        return CrossingReport(k=k, count=0,
                              witnesses=[] if want_witnesses else None,
                              elapsed=time.perf_counter() - t0)
    combos = np.array(list(itertools.combinations(range(n_edges), k)),
                      dtype=np.int32)
    eu = np.array([e[0] for e in g.edges])
    ev = np.array([e[1] for e in g.edges])
    disjoint = ((eu[:, None] != eu[None, :]) & (eu[:, None] != ev[None, :])
                & (ev[:, None] != eu[None, :]) & (ev[:, None] != ev[None, :]))
    mask = np.ones(len(combos), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            mask &= disjoint[combos[:, i], combos[:, j]]
    tuples = combos[mask]
    tuples_total = len(tuples)

    survivors = tuples
    if prefilter and len(tuples):
        survivors = np.vstack([
            batch[_stab_filter(batch, centers, radii, chord_p, chord_q, chord_w)]
            for batch in (tuples[lo:lo + _CHUNK]
                          for lo in range(0, len(tuples), _CHUNK))])

    segments = [s for ed in eds for s in ed.segments]
    first = np.cumsum([0] + [len(ed.segments) for ed in eds])
    seg_p = np.vstack([ed.seg_p for ed in eds])
    seg_q = np.vstack([ed.seg_q for ed in eds])
    seg_center = np.vstack([ed.seg_center for ed in eds])
    seg_radius = np.concatenate([ed.seg_radius for ed in eds])
    seg_w = np.zeros(len(segments))
    found = np.zeros(len(survivors), dtype=bool)
    for t, segs in _segment_combinations(survivors, first):
        if prefilter:
            keep = _stab_filter(segs, seg_center, seg_radius, seg_p, seg_q, seg_w)
            t, segs = t[keep], segs[keep]
        for ti, row in zip(t.tolist(), segs.tolist()):
            if found[ti]:
                continue
            res = transversal_exists_segments([segments[i] for i in row])
            if not res.exists:
                continue
            found[ti] = True
            count += 1
            if want_witnesses:
                idx = survivors[ti].tolist()
                witnesses.append(CrossingWitness(
                    tuple(g.edges[j] for j in idx), res.line,
                    [(g.edges[j], row[i] - int(first[j]), res.params[i])
                     for i, j in enumerate(idx)]))

    return CrossingReport(
        k=k, count=count,
        witnesses=witnesses if want_witnesses else None,
        elapsed=time.perf_counter() - t0,
        tuples_total=tuples_total,
        tuples_after_prefilter=len(survivors))
