"""Crossing counts for spatial drawings.

``count_line_crossings`` counts vertex-disjoint k-tuples of edges (k = 3
or 4) admitting a common transversal line.  A two-level floating-point
filter runs before the exact predicate, and both levels apply the same
two vectorized tests, ``_collinear_possible`` on enclosing balls and, for
k = 4, ``_stab_batch``, a 2D stabbing test in a projection:

1. per edge tuple, on the edges' enclosing balls and on their straight
   chords fattened by the polyline width;
2. per segment combination (one segment of each edge), for all tuples
   that pass level 1 at once, on the segments themselves.  For k = 4 a
   combination that passes is also dropped when its numeric regulus
   margin (``_float_feasibility``) is clearly negative.

Every remaining combination goes to the exact predicate
``transversal_exists_segments``, tuple by tuple in lexicographic order of
the combinations, and a tuple stops at its first transversal.  The float
rejections carry safety margins but are not certified; with
``prefilter=False`` no float test runs and exact mode is all-exact.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .drawing import Edge, Graph, SpatialDrawing
from .errors import ValidationError
from .geometry import (PluckerLine, Segment3, segments_intersect_2d,
                       transversal_exists_segments)

# margin used by the float prefilter when rejecting; anything closer to
# feasibility than this goes to the exact path
REJECT_MARGIN = 1e-6

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
    mode: str
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


def _float_feasibility(ends_p, ends_q) -> float:
    """Numeric feasibility margin for a 4-segment transversal.

    ends_p, ends_q: the four segments' float endpoints.  Positive margins
    indicate a likely transversal, strongly negative ones safe rejection;
    +inf means the supporting lines are too close to degenerate for float
    arithmetic and the caller must decide exactly.  Coordinates are
    centred and rescaled so thresholds are honest absolute constants.
    """
    pts = ends_p + ends_q
    cx = sum(p[0] for p in pts) / 8
    cy = sum(p[1] for p in pts) / 8
    cz = sum(p[2] for p in pts) / 8
    spread = max(max(abs(p[0] - cx), abs(p[1] - cy), abs(p[2] - cz))
                 for p in pts) or 1e-300

    def norm(v):
        return ((v[0] - cx) / spread, (v[1] - cy) / spread, (v[2] - cz) / spread)

    p = [norm(v) for v in pts[:4]]
    q = [norm(v) for v in pts[4:]]
    d = [_fsub(qq, pp) for pp, qq in zip(p, q)]
    mo = [_fcross(pp, qq) for pp, qq in zip(p, q)]

    def rel_side(i, j):
        val = _fdot(d[i], mo[j]) + _fdot(d[j], mo[i])
        ref = (_fnrm(d[i]) * _fnrm(mo[j]) + _fnrm(d[j]) * _fnrm(mo[i]) + 1e-300)
        return abs(val) / ref

    best_order, best_s = None, 0.0
    for last in range(3, -1, -1):
        rest = [i for i in range(4) if i != last]
        s_min = min(rel_side(rest[0], rest[1]), rel_side(rest[0], rest[2]),
                    rel_side(rest[1], rest[2]))
        if s_min > best_s:
            best_s, best_order = s_min, (*rest, last)
    if best_s > 1e-5:
        return _regulus_feasibility(p, q, d, mo, best_order)
    if best_s > 1e-8:
        # marginally skew: the regulus margins carry an error that grows
        # like 1/skew^2, so reject only beyond that uncertainty
        margin = _regulus_feasibility(p, q, d, mo, best_order)
        uncertainty = 1e-14 / (best_s * best_s) + 1e-9
        if uncertainty <= 0.3 and -math.inf < margin < -uncertainty:
            return margin
    return math.inf


def _fsub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _fcross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _fdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _fnrm(v):
    return abs(v[0]) + abs(v[1]) + abs(v[2])


def _faxpy(a, s, b):
    return (a[0] + s * b[0], a[1] + s * b[1], a[2] + s * b[2])


def _regulus_feasibility(p, q, d, mo, order) -> float:
    """Margin via the transversal quadratic on a well-conditioned triple."""
    i1, i2, i3, i4 = order
    p1, d1 = p[i1], d[i1]
    A2 = _faxpy(mo[i2], 1.0, _fcross(d[i2], p1))
    B2 = _fcross(d[i2], d1)
    a2, b2 = -_fdot(mo[i2], p1), -_fdot(mo[i2], d1)
    A3 = _faxpy(mo[i3], 1.0, _fcross(d[i3], p1))
    B3 = _fcross(d[i3], d1)
    a3, b3 = -_fdot(mo[i3], p1), -_fdot(mo[i3], d1)
    d4, m4 = d[i4], mo[i4]
    qa = _fdot(_fcross(B2, B3), m4) + b2 * _fdot(d4, B3) - b3 * _fdot(d4, B2)
    qb = (_fdot(_fcross(A2, B3), m4) + _fdot(_fcross(B2, A3), m4)
          + a2 * _fdot(d4, B3) + b2 * _fdot(d4, A3)
          - a3 * _fdot(d4, B2) - b3 * _fdot(d4, A2))
    qc = _fdot(_fcross(A2, A3), m4) + a2 * _fdot(d4, A3) - a3 * _fdot(d4, A2)
    nd4, nm4 = _fnrm(d4), _fnrm(m4)
    nA2, nB2, nA3, nB3 = _fnrm(A2), _fnrm(B2), _fnrm(A3), _fnrm(B3)
    sa = nB2 * nB3 * nm4 + abs(b2) * nd4 * nB3 + abs(b3) * nd4 * nB2 + 1e-300
    sb = ((nA2 * nB3 + nB2 * nA3) * nm4 + abs(a2) * nd4 * nB3
          + abs(b2) * nd4 * nA3 + abs(a3) * nd4 * nB2 + abs(b3) * nd4 * nA2
          + 1e-300)
    sc = nA2 * nA3 * nm4 + abs(a2) * nd4 * nA3 + abs(a3) * nd4 * nA2 + 1e-300
    if abs(qa) <= 1e-9 * sa and abs(qb) <= 1e-9 * sb:
        if abs(qc) <= 1e-9 * sc:
            return math.inf  # possibly an infinite family: decide exactly
        return -1.0
    if abs(qa) <= 1e-12 * sa:
        roots = [-qc / qb]
    else:
        disc = qb * qb - 4 * qa * qc
        if disc < -1e-9 * (qb * qb + 4 * abs(qa * qc) + 1e-300):
            return -1.0
        disc = max(disc, 0.0)
        roots = [(-qb + math.sqrt(disc)) / (2 * qa),
                 (-qb - math.sqrt(disc)) / (2 * qa)]
    best = -math.inf
    for t in roots:
        margin = min(t, 1 - t)
        for (A, B, al, be, j) in ((A3, B3, a3, b3, i2), (A2, B2, a2, b2, i3),
                                  (A2, B2, a2, b2, i4)):
            n = _faxpy(A, t, B)
            e = al + t * be
            den = _fdot(n, d[j])
            num = -(_fdot(n, p[j]) + e)
            den_ref = _fnrm(n) * _fnrm(d[j]) + 1e-300
            if abs(den) <= 1e-9 * den_ref:
                num_ref = _fnrm(n) * _fnrm(p[j]) + abs(e) + 1e-300
                if abs(num) <= 1e-6 * num_ref:
                    margin = math.inf  # trace degenerates: decide exactly
                    break
                margin = -math.inf    # transversal misses the line affinely
                break
            u = num / den
            margin = min(margin, u, 1 - u)
        best = max(best, margin)
    return best


def count_line_crossings(d: SpatialDrawing, k: int, mode: str = "exact",
                         want_witnesses: bool = False, tol: float = 1e-9,
                         prefilter: bool = True) -> CrossingReport:
    """Count vertex-disjoint k-tuples of edges pierced by a common line.

    A tuple counts once no matter how many transversal lines it admits.
    With ``prefilter`` the two-level float filter of the module docstring
    drops tuples, then segment combinations, before the exact predicate;
    ``tuples_after_prefilter`` counts the tuples the first level keeps.
    ``prefilter=False`` turns every float test off: each combination of
    each tuple goes to the exact predicate, so exact mode is all-exact.
    In exact mode every counted tuple carries an exactly verified witness.
    Float mode decides a k = 4 tuple of straight edges by the numeric
    feasibility margin against ``tol`` when that margin is finite, and
    everything else as exact mode does.
    """
    if k not in (3, 4):
        raise ValueError("k must be 3 or 4")
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
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
        return CrossingReport(mode=mode, k=k, count=0,
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
    straight = (first[1:] - first[:-1] == 1)[survivors].all(axis=1)
    found = np.zeros(len(survivors), dtype=bool)
    for t, segs in _segment_combinations(survivors, first):
        if prefilter:
            keep = _stab_filter(segs, seg_center, seg_radius, seg_p, seg_q, seg_w)
            t, segs = t[keep], segs[keep]
        for ti, row in zip(t.tolist(), segs.tolist()):
            if found[ti]:
                continue
            by_margin = mode == "float" and straight[ti]
            if k == 4 and (prefilter or by_margin):
                margin = _float_feasibility(seg_p[row].tolist(),
                                            seg_q[row].tolist())
                if by_margin and margin != math.inf:
                    if margin > -tol:
                        found[ti] = True
                        count += 1
                    continue
                if margin < -REJECT_MARGIN:
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
        mode=mode, k=k, count=count,
        witnesses=witnesses if want_witnesses else None,
        elapsed=time.perf_counter() - t0,
        tuples_total=tuples_total,
        tuples_after_prefilter=len(survivors))
