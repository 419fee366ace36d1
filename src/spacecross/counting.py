"""Crossing counts for spatial drawings.

``count_line_crossings`` counts vertex-disjoint k-tuples of edges (k = 3
or 4) admitting a common transversal line.  ``_disjoint_blocks`` streams
the disjoint tuples (the ``enumerate`` stage: C(m, k) in, never built) in
blocks, each filtered as it comes, so memory is bounded by the survivors.
With ``prefilter`` each tuple passes a funnel of three steps, and
``CrossingReport.stages`` reports rows in, rows out and seconds of each:

1. The tuple filter, ``_triple_filter``, once per disjoint edge triple: a
   line test on the edges' enclosing balls (``_collinear_possible``) and a
   2D stabbing test of the straight chords fattened by the largest
   distance of the polyline from its chord segment (``_stab_batch``).  For
   k = 4 ``_join_triples`` then grows the kept triples into the 4-tuples
   whose four triples all pass (the apriori candidate join of Agrawal &
   Srikant, 1994).  Its tests carry fixed slacks and are not certified;
   they are the only uncertified rejection.
2. The certified filter, ``_certified_decide``, for k = 4: over blocks of
   segment combinations (one segment of each edge) of the surviving
   tuples, it evaluates in float64 the signs that the exact kernel takes
   on its skew-triple branch, each step only on the rows it can still
   change.  Rows with finite coordinates, whose input errors stay within
   the row's extent, test supporting lines 0, 1, 2 for being pairwise
   skew; rows where that is not certain test the pairs with line 3, and
   those with another certainly skew triple are reordered.  Every row
   with a skew triple gets the regulus quadratic, its discriminant and
   the two range tests of each root (0 < t < 1).  Only rows with two
   certainly real roots, not both certainly out of range, go on to the
   three trace tests.  It rejects a combination when the signs prove that
   no transversal exists, and accepts it when they prove that one does;
   without ``want_witnesses`` an accepted combination counts its tuple,
   whose other combinations are then skipped.  On a block of a few
   hundred rows its cost is the number of numpy calls, not of rows, so
   independent instances of one program run once over their rows stacked
   end to end: the four supporting lines, the planes through lines 2 and
   3, the two range forms and the three traces.  Each value carries its
   error bound as two programs on non-negative numbers, so a product
   costs three array multiplications and a sum three additions (the
   error bound below).
3. The exact predicate ``transversal_exists_segments`` on every
   combination left (with ``want_witnesses`` also the accepted ones),
   tuple by tuple in lexicographic order of the combinations; a tuple
   stops at its first transversal.

``prefilter=False`` runs neither filter and is the all-exact reference.
Rejected combinations have no transversal and accepted ones have one, so
both give the same counts, and with ``want_witnesses`` the same
witnesses.

Why an accepted combination has a transversal.  The filter runs the
kernel's regulus functions (``geometry._plane``,
``_incidence_quadratic``, ``_trace``) on three pairwise skew supporting
lines: P(t) = p1 + t d1 runs along line 1, and T(t) is the meet of
plane 2(t), through P(t) and line 2, with plane 3(t), through P(t) and
line 3.  Both planes are proper, since P(t) lies on neither skew line,
and distinct, since one plane holding lines 2 and 3 would make them
coplanar; so T(t) is a line through P(t), and its Pluecker coordinates
(n2 x n3, n3 e2 - n2 e3) do not vanish.  The regulus quadratic is the
side product of T(t) with line 4.  With qa != 0 and a positive
discriminant each root t is real and T(t) is coplanar with line 4.  If,
at that root, 0 < t < 1, T(t) meets segment 1 inside it.  A trace
num/den is the parameter at which a segment's line crosses plane 3 (for
segment 2) or plane 2 (segments 3 and 4).  With den != 0 the line
crosses the plane in exactly one point.  Line 2 lies in plane 2, so its
crossing with plane 3 lies on T(t); likewise for line 3.  Line 4 is
coplanar with T(t) and, as den != 0, not parallel to plane 2, which
holds T(t), so it meets T(t), and only at its crossing with plane 2.
With 0 < num/den < 1 each of these points lies inside its segment.  These
conditions are the strict form of ``geometry._in_unit_range``, and
den != 0 rules out the 0/0 and parallel cases that leave ``_certify``
something to decide.  The filter evaluates them on the translated,
scaled exact coordinates, which have a transversal exactly when the
originals do; the error bound below makes every sign it uses certain.

Error bound of the certified filter.  Let u = 2^-53 and U = 4 u, the
``_ERR_UNIT``.  A coordinate x of a drawing becomes the double x~ with
|x~ - x| <= u |x| (beyond the double range it becomes +-inf, below the
normal range nan; such rows are left undecided).  Each row is moved by
its first float endpoint o, an exact translation, to x' = fl(x~ - o); x'
is off y = x - o by at most u |x| + u |x'| / (1 - u), below the input error
e_in = fl(U (|x~| + |x'|)).  A row whose largest e_in exceeds its extent,
the largest |x'|, is left undecided; the others are scaled by a power of
two that brings every |x'| and e_in below 1, exactly but for underflow.
A polynomial P is evaluated by the kernel's own program (its regulus
functions, ``v_dot``, ``v_cross``) on ``_Approx`` values (v, a, b, n).
Let A be the absolute-value program: inputs and constants taken
absolutely, every subtraction made an addition.  v runs P on x', a runs
A on |x'|, b runs A on b_in = fl(|x'| + e_in), and n counts the
roundings on a path from an input: 0 at an input or constant,
max(n, n') + 1 for a sum or difference, n + n' + 1 for a product.  Four
facts give the bound.

(1) In exact arithmetic b is B = A(|x'| + e_in), and B - A(|x'|) bounds
    |P(x') - P(y)| for every y within e_in of x', by induction: for a
    sum both sides add, and for a product, as |x1| <= A1 and
    |y2| <= |x2| + |x2 - y2| <= B2,
    |x1 x2 - y1 y2| <= A1 (B2 - A2) + (B1 - A1) B2 = B1 B2 - A1 A2.
    So b = a + e for the usual bound e (e + e' for a sum, a e' + e (a' +
    e') for a product), and every ring operation acts componentwise.
(2) a and b are programs on non-negative values, so their rounding is
    relative: each monomial of the result takes at most n factors
    (1 + d), |d| <= u (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3).  Hence a <= A(|x'|) (1 + u)^n, and
    |v - P(x')| <= gamma_n A(|x'|), gamma_n = n u / (1 - n u), is the
    classical bound.  Rounding is monotone and b_in >= |x'|, so b >= a
    holds in floats too.
(3) The degree of a program is at most n + 1 (1 at an input; a sum keeps
    the larger degree, a product adds them).  The one rounding of b_in
    moves each input by a factor (1 + d), so each monomial by a factor
    of at least (1 - u)^(n + 1): b >= B (1 - u)^(2n + 1), as if b's
    rounding count were 2n + 1.
(4) By (1) to (3), with a <= b,
    |v - P(y)| <= B - A(|x'|) + gamma_n A(|x'|)
               <= (b - a) + (gamma_(2n+1) + gamma_n + n u) b,
    below (b - a) + (4 n + 1) u b (1 + 2^-40), as n <= 40 in the
    filter's programs.  The threshold that ``sign`` computes, (b - a) +
    (n + 2) U b + ``_ERR_TINY``, adds 7 u b more: the +2 covers the
    rounding of b - a (which is >= 0 by (2)) and of the threshold's two
    additions, 3 u b in all, and the second-order terms.

A sign counts only when |v| exceeds the threshold.  ``_ERR_TINY`` absorbs
underflow: after scaling every input |x'| and e_in is below 1, so b_in
<= 2, the intermediates of v, a and b stay below 2^40 and there are
under 2^10 operations, so underflow costs below 2^-1000.  Stacking
changes none of this: each entry of a stacked array meets the float
operations it would meet alone, in the same order, and ``_join`` stacks
only values with one rounding count n, so every row keeps its own v, a,
b and n.  This is a semi-static filter in the sense of Shewchuk,
"Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
Predicates" (1997), and Bronnimann, Burnikel & Pion, "Interval
arithmetic yields efficient dynamic filters" (2001).
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .drawing import Edge, Graph, SpatialDrawing
from .errors import ValidationError
from .geometry import (PluckerLine, _incidence_quadratic, _int_triple, _plane,
                       _trace, segments_intersect_2d,
                       transversal_exists_segments, v_dot)
from .scalars import _Record

# rows (tuples or segment combinations) per vectorized filter batch; small
# enough that a batch's arrays stay in cache (the certified filter runs
# about twice as fast per row at 4,096 rows as at 262,144)
_CHUNK = 4096

# seconds between progress lines of a count on the ``spacecross`` logger
_PROGRESS_S = 5.0


class CrossingWitness(_Record):
    """A k-tuple of vertex-disjoint edges with a certified transversal;
    ``contacts`` are (edge, segment index, parameter) triples."""

    def __init__(self, edges: Tuple[Edge, ...], line: PluckerLine,
                 contacts: List[Tuple[Edge, int, object]]):
        self.edges = edges
        self.line = line
        self.contacts = contacts


class CrossingReport(_Record):
    # ``stages``: (name, rows in, rows out, seconds) of each step of the
    # funnel, in edge k-tuples; each step's rows out are the next one's
    # rows in.  ``tuple_filter`` covers the triple tests and, for k = 4,
    # ``_join_triples``; ``certified_filter`` puts out the tuples
    # it did not refute, and ``exact`` puts out ``count``, including tuples
    # that the certified filter accepted

    def __init__(self, k: int, count: int,
                 witnesses: Optional[List[CrossingWitness]] = None,
                 elapsed: float = 0.0, tuples_total: int = 0,
                 tuples_after_prefilter: int = 0,
                 stages: Optional[List[Tuple[str, int, int, float]]] = None):
        self.k = k
        self.count = count
        self.witnesses = witnesses
        self.elapsed = elapsed
        self.tuples_total = tuples_total
        self.tuples_after_prefilter = tuples_after_prefilter
        self.stages = [] if stages is None else stages


def _disjoint_later(g: Graph) -> np.ndarray:
    """``later[i, j]``: j > i and edges i and j share no vertex."""
    e = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    shares = (e[:, None, :, None] == e[None, :, None, :]).any(axis=(2, 3))
    return np.triu(~shares, 1)


def _disjoint_blocks(later: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """Every k-set of pairwise vertex-disjoint edges as rows of edge indices,
    lexicographically, in non-empty int arrays of at most ``_CHUNK`` rows.
    A block of prefixes grows by every edge ``later`` than all its entries;
    row-major ``nonzero`` keeps the order.  A k = 4 count with the tuple
    filter stops it at triples and grows the kept ones in
    ``_join_triples``, counting the disjoint 4-sets as the triples pass."""
    def grow(rows: np.ndarray) -> Iterator[np.ndarray]:
        for lo in range(0, len(rows), _CHUNK):
            block = rows[lo:lo + _CHUNK]
            if block.shape[1] == k:
                yield block
                continue
            r, c = np.nonzero(later[block].all(axis=1))
            yield from grow(np.column_stack([block[r], c]))

    yield from grow(np.empty((1, 0), dtype=np.intp))


def _join_triples(kept: np.ndarray, later: np.ndarray) -> np.ndarray:
    """The 4-sets of disjoint edges whose four triples are all rows of
    ``kept`` (sorted, lexicographic), in that order: the apriori join of
    Agrawal & Srikant, 1994.  Each kept triple (a, b, c), in blocks of at
    most ``_CHUNK``, grows by every edge d ``later`` than all three with
    (a, b, d), (a, c, d) and (b, c, d) kept."""
    feasible = np.zeros((len(later),) * 3, dtype=bool)
    feasible[tuple(kept.T)] = True
    rows = [np.empty((0, 4), dtype=np.intp)]
    for lo in range(0, len(kept), _CHUNK):
        block = kept[lo:lo + _CHUNK]
        a, b, c = block.T
        r, d = np.nonzero(later[a] & later[b] & later[c] & feasible[a, b]
                          & feasible[a, c] & feasible[b, c])
        rows.append(np.column_stack([block[r], d]))
    return np.vstack(rows)


def count_planar_crossings(d: SpatialDrawing) -> int:
    """Pairs of vertex-disjoint straight edges crossing in the z = 0 plane."""
    if not d.is_straight() or not d.is_flat():
        raise ValidationError("planar crossing count needs a flat straight-line drawing")
    pts = [(p[0], p[1]) for p in d.positions]
    pairs = itertools.combinations(d.graph.edges, 2)
    return sum(1 for (u1, v1), (u2, v2) in pairs
               if len({u1, v1, u2, v2}) == 4 and segments_intersect_2d(
                   (pts[u1], pts[v1]), (pts[u2], pts[v2])) == "crossing")


# ---------------------------------------------------------------------------
# sphere lift
# ---------------------------------------------------------------------------

def _jitter(seed: int, e: Edge, idx: int, comp: int, scale: Fraction) -> Fraction:
    import random
    rng = random.Random(seed * 1000003 + e[0] * 8191 + e[1] * 131 + idx * 7 + comp)
    return Fraction(rng.randint(-2 ** 30, 2 ** 30), 2 ** 30) * scale


# sphere radius per unit of drawing extent, and jitter per unit of radius
_RADIUS_FACTOR = 2 ** 16
_JITTER_SCALE = Fraction(1, 2 ** 40)


def lift_to_sphere(planar: SpatialDrawing, subdivision: int,
                   seed: int = 0) -> SpatialDrawing:
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
    if not planar.positions:
        return planar
    xs = [p[0] for p in planar.positions]
    ys = [p[1] for p in planar.positions]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    extent = (max(xs) - min(xs)) + (max(ys) - min(ys))
    if extent == 0:
        extent = Fraction(1)
    radius = _RADIUS_FACTOR * extent

    def to_sphere(p) -> Tuple[Fraction, Fraction, Fraction]:
        ux, uy = p[0] - cx, p[1] - cy
        denom = ux * ux + uy * uy + 4 * radius * radius
        return (cx + 4 * radius * radius * ux / denom,
                cy + 4 * radius * radius * uy / denom,
                2 * radius * (ux * ux + uy * uy) / denom)

    positions = [to_sphere(p) for p in planar.positions]
    polylines: Dict[Edge, List] = {}
    amp = _JITTER_SCALE * radius
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

def _to_float(c: Fraction) -> float:
    """Nearest double of c: +-inf beyond the double range, nan for a nonzero
    c below the normal range, where the relative error bound fails."""
    try:
        f = float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf
    if c and abs(f) < sys.float_info.min:
        return math.nan
    return f


def _edge_arrays(d: SpatialDrawing):
    """Float geometry of every edge of d, in one pass over its points.

    Each vertex position and polyline point is converted once.  Returns
    ``seg_p``, ``seg_q``: (segments, 3) float endpoints, edge by edge;
    ``first``: the index of each edge's first segment, then one past the
    last; and the per-edge arrays that the tuple stage reads: ``finite``
    (every coordinate held to full relative precision), the centre and
    radius of a ball enclosing the edge, the ends of its straight chord and
    the largest distance of the polyline from that chord segment (0 for a
    straight edge).  Radius and width carry a small relative and absolute
    slack.
    """
    edges = d.graph.edges
    inner = [d.polylines.get(e, []) for e in edges]
    points = [*d.positions, *(p for pts in inner for p in pts)]
    floats = np.array([[_to_float(c) for c in p] for p in points]).reshape(-1, 3)
    sizes = np.array([len(pts) + 1 for pts in inner], dtype=np.intp)
    first = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
    # every edge's points in order, u, its polyline, v: edge i's start at
    # start[i] and its end at stop[i]
    start = first[:-1] + np.arange(len(edges))
    stop = start + sizes
    uv = np.array(edges, dtype=np.intp).reshape(-1, 2)
    pts = np.empty((first[-1] + len(edges), 3))
    ends = np.zeros(len(pts), dtype=bool)
    ends[start] = ends[stop] = True
    pts[start], pts[stop] = floats[uv[:, 0]], floats[uv[:, 1]]
    pts[~ends] = floats[d.graph.n:]
    seg_p, seg_q = np.delete(pts, stop, axis=0), np.delete(pts, start, axis=0)
    # (edges, most points, 3), short edges padded with their last point
    pad = np.minimum(np.arange(sizes.max(initial=0) + 1), sizes[:, None])
    per_edge = pts[start[:, None] + pad]
    finite = np.isfinite(per_edge).all(axis=(1, 2))
    cp, cq = pts[start], pts[stop]
    with np.errstate(all="ignore"):   # non-finite edges are never rejected
        center = (per_edge.min(axis=1) + per_edge.max(axis=1)) / 2
        radius = np.linalg.norm(per_edge - center[:, None], axis=2).max(axis=1)
        # to the chord segment, not its line: a polyline may overshoot.
        # ``@`` keeps the rounding of dot and matrix-vector products, which
        # an elementwise sum of products would change in the last bits
        axis = cq - cp
        alen = np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0, 0]
        diffs = per_edge - cp[:, None]
        t = np.clip((diffs @ axis[:, :, None])[..., 0]
                    / (alen * alen)[:, None], 0.0, 1.0)
        width = np.linalg.norm(diffs - t[..., None] * axis[:, None],
                               axis=2).max(axis=1)
    width = np.where((alen > 0) & (sizes > 1), width, 0.0)
    return seg_p, seg_q, first, (
        finite, center, radius * (1 + 1e-9) + 1e-12, cp, cq,
        width * (1 + 1e-9) + 1e-12)


def _stab_batch(P: np.ndarray, Q: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Vectorized necessary 2D stabbing test for n fattened segments, in
    the tuple stage the three chords of an edge triple (15 endpoint pairs).

    P, Q: (rows, n, 3) segment endpoints, W: (rows, n) widths by which
    each segment may be fattened.  For each row, project the segments
    along the axis most normal to them and ask whether some line through
    two projected endpoints stabs all n within their width slack; a
    transversal would project to such a stabber.  Returns a keep mask.
    """
    m, n = W.shape
    dirs = Q - P
    best = np.zeros((m, 3))
    best_n = np.zeros(m)
    for i, j in itertools.combinations(range(n), 2):
        ax = np.cross(dirs[:, i], dirs[:, j])
        n2 = np.einsum("ij,ij->i", ax, ax)
        take = n2 > best_n
        best[take] = ax[take]
        best_n[take] = n2[take]
    keep_parallel = best_n == 0.0   # all segments parallel: no useful axis
    axis = best / np.sqrt(np.maximum(best_n, 1e-300))[:, None]
    # in-plane frame
    e1 = np.cross(np.eye(3)[np.argmin(np.abs(axis), axis=1)], axis)
    e1 /= np.maximum(np.linalg.norm(e1, axis=1), 1e-300)[:, None]
    e2 = np.cross(axis, e1)
    ends = np.concatenate([P, Q], axis=1)              # (m, 2n, 3)
    px = np.einsum("mkj,mj->mk", ends, e1)             # (m, 2n)
    py = np.einsum("mkj,mj->mk", ends, e2)
    ok = np.zeros(m, dtype=bool)
    for a, b in itertools.combinations(range(2 * n), 2):
        ux = px[:, b] - px[:, a]
        uy = py[:, b] - py[:, a]
        ln = np.maximum(np.sqrt(ux * ux + uy * uy), 1e-300)
        ux, uy = ux / ln, uy / ln
        slack0 = 2 * (W[:, a % n] + W[:, b % n]) + 1e-9
        good = np.ones(m, dtype=bool)
        for i in range(n):
            if i == a % n:   # ends at point a: sp or sq is 0 (nan), no miss
                continue
            sp = (px[:, i] - px[:, a]) * uy - (py[:, i] - py[:, a]) * ux
            sq = (px[:, i + n] - px[:, a]) * uy - (py[:, i + n] - py[:, a]) * ux
            miss = (sp * sq > 0) & (np.minimum(np.abs(sp), np.abs(sq))
                                    > 2 * W[:, i] + slack0)
            good &= ~miss
        ok |= good
        if ok.all():
            return ok
    return ok | keep_parallel


def _collinear_possible(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Vectorized necessary condition for stabbing three balls with one line.

    centers: (m, 3, 3), radii: (m, 3).  Points q_i inside the balls can be
    collinear only if the centres are nearly collinear relative to the ball
    radii; returns a boolean keep-mask of shape (m,).
    """
    (ca, cb, cc), (ra, rb, rc) = centers.transpose(1, 0, 2), radii.T
    u, v = cb - ca, cc - ca
    dab, dac, resid = (np.linalg.norm(x, axis=1)
                       for x in (u, v, np.cross(u, v)))
    slack = ((dab + ra + rb) * (ra + rc)
             + (dac + ra + rc) * (ra + rb)
             + (ra + rb) * (ra + rc))
    return ~(resid > slack * (1 + 1e-6) + 1e-18)   # nan keeps


def _triple_filter(idx: np.ndarray, finite, centers, radii, chord_p, chord_q,
                   chord_w) -> np.ndarray:
    """Keep mask of the edge triples ``idx`` (rows of edge indices): the
    ball test and the 2D stabbing test on the chords fattened by the
    polyline width.  A triple with a non-finite edge is always kept."""
    keep = ~finite[idx].all(axis=1)
    sub = idx[~keep]
    with np.errstate(all="ignore"):
        test = _collinear_possible(centers[sub], radii[sub])
        s = sub[test]
        test[test] = _stab_batch(chord_p[s], chord_q[s], chord_w[s])
    keep[~keep] = test
    return keep


# ---------------------------------------------------------------------------
# certified float filter
# ---------------------------------------------------------------------------

# Four times the unit roundoff of float64; the factor of every error bound
# of the certified filter (module docstring).
_ERR_UNIT = 2.0 ** -51
# absolute slack for underflow, far above what it can cost once a row's
# coordinates and their errors are scaled below 1
_ERR_TINY = 2.0 ** -960


class _Approx:
    """float64 values of one polynomial over many rows, with what bounds
    their error.

    ``v`` holds the computed values and ``a`` the same program run on
    absolute values with every subtraction made an addition.  ``b`` is that
    absolute-value program run on each input's absolute value plus its
    error bound, so b - a bounds how far the inputs' errors move the exact
    result; ``n`` is the largest number of roundings on a path from an
    input.  Every ring operation acts componentwise on (v, a, b): a product
    is three multiplications and a sum or difference three additions or
    subtractions.  The geometry kernel's vector helpers and regulus
    functions run on it unchanged, so the filter evaluates the kernel's
    own polynomials.  An exact constant c is (c, |c|, |c|) with n = 0, as
    floats.
    """

    __slots__ = ("v", "a", "b", "n")

    def __init__(self, v, a, b, n):
        self.v, self.a, self.b, self.n = v, a, b, n

    def __add__(self, o):
        return _Approx(self.v + o.v, self.a + o.a, self.b + o.b,
                       max(self.n, o.n) + 1)

    def __sub__(self, o):
        return _Approx(self.v - o.v, self.a + o.a, self.b + o.b,
                       max(self.n, o.n) + 1)

    def __mul__(self, o):
        return _Approx(self.v * o.v, self.a * o.a, self.b * o.b,
                       self.n + o.n + 1)

    def __neg__(self):
        return _Approx(-self.v, self.a, self.b, self.n)

    def take(self, rows) -> "_Approx":
        """The values at ``rows`` only."""
        return _Approx(self.v[rows], self.a[rows], self.b[rows], self.n)

    def sign(self) -> np.ndarray:
        """Per row +1 or -1 where the sign is certain, |v| above
        (b - a) + (n + 2) U b + ``_ERR_TINY`` (module docstring), else 0
        (nan too)."""
        err = (self.b - self.a) + (self.n + 2) * _ERR_UNIT * self.b + _ERR_TINY
        return (np.asarray(self.v > err, dtype=np.int8)
                - np.asarray(self.v < -err, dtype=np.int8))


_ONE, _TWO, _FOUR = (_Approx(c, c, c, 0) for c in (1.0, 2.0, 4.0))


def _root_signs(qa, qb, qc, sa, l1, l0):
    """Certain signs (0 if not) of h * L(t) at the roots t = T / h,
    T = -qb +- sqrt(D), h = 2 qa, D = qb^2 - 4 qa qc, of the quadratic, for
    the linear form L(t) = l1 t + l0; ``sa`` is the certain sign of qa.

    h L(t) = a + b sqrt(D) with a = 2 l0 qa - l1 qb and b = +-l1, and
    a^2 - b^2 D = 4 qa R with R = qa l0^2 - qb l0 l1 + qc l1^2, so the sign
    that ``_zsign`` takes comes from a, l1 and R, with no cancelling
    subtraction of a^2 and b^2 D.
    """
    a = (l0 * qa) * _TWO - l1 * qb
    r = (qa * l0 - qb * l1) * l0 + (qc * l1) * l1
    s_a, s_l, s_x = a.sign(), l1.sign(), sa * r.sign()
    out = []
    for root in (1, -1):
        s_b = root * s_l
        out.append(np.where((s_a != 0) & ((s_a == s_b) | (s_x > 0)), s_a,
                            np.where((s_b != 0) & (s_x < 0), s_b, 0)))
    return out


def _take(x, rows):
    """``x``, an ``_Approx`` or nested lists and tuples of them, at ``rows``
    only."""
    if isinstance(x, _Approx):
        return x.take(rows)
    return [_take(y, rows) for y in x]


def _join(*xs):
    """The rows of each of ``xs`` in turn, leaf by leaf.  Joined values
    must have the same rounding count n: a stacked row must keep its own
    error bound, never take a looser one."""
    x = xs[0]
    if isinstance(x, _Approx):
        if any(y.n != x.n for y in xs):
            raise ValueError(f"joined values have rounding counts "
                             f"{[y.n for y in xs]}")
        return _Approx(*(np.concatenate(leaf) for leaf in zip(
            *((y.v, y.a, y.b) for y in xs))), x.n)
    return [_join(*ys) for ys in zip(*xs)]


def _lines_of(P, Q, eP, eQ):
    """The supporting lines of the four segments of each row (P, Q:
    (rows, 4, 3) endpoints, eP, eQ their errors) from one ``_int_triple``:
    the stack (p, d, m), line i of row r at i * rows + r, and its four
    lines."""
    n = len(P)
    ends = []
    for X, E in ((P, eP), (Q, eQ)):
        X, E = (Y.transpose(2, 1, 0).reshape(3, 4 * n) for Y in (X, E))
        A = np.abs(X)
        B = A + E
        ends.append(tuple(_Approx(X[j], A[j], B[j], 0) for j in range(3)))
    stack = _int_triple(*ends)
    return stack, [_take(stack, slice(i * n, (i + 1) * n)) for i in range(4)]


def _planes_of(stack, line):
    """Planes 2 and 3 along the first of ``_lines_of``'s lines, through the
    second and third, from one ``_plane`` run over those two lines: the
    planes stacked, then each."""
    n = len(line[0][0][0].v)
    planes = _plane(*_join(line[0][:2], line[0][:2]),
                    _take(stack, slice(n, 3 * n)))
    return (planes,
            *(_take(planes, slice(i * n, (i + 1) * n)) for i in range(2)))


def _range_signs(q, sa):
    """Per root of q = (qa, qb, qc), the ``_root_signs`` of h t (row 0)
    and h (t - 1) (row 1): l1 = 1 and l0 = 0, then -1, over the rows
    twice."""
    n = len(sa)
    a0 = np.repeat([0.0, 1.0], n)
    l0 = _Approx(np.repeat([0.0, -1.0], n), a0, a0, 0)
    return [s.reshape(2, n)
            for s in _root_signs(*_join(q, q), np.tile(sa, 2), _ONE, l0)]


def _trace_signs(planes, stack, q, sa, live):
    """Per form (num, den, num - den) and root, the ``_root_signs`` at rows
    ``live`` of the traces of the second line on plane 3 (row 0) and of
    the third and fourth on plane 2 (rows 1, 2): one ``_trace`` over
    ``_planes_of``'s stacked planes."""
    n = len(sa)
    num, den = _trace(
        _take(planes, np.concatenate([live + n, live, live])),
        _take(stack, np.concatenate([live + n, live + 2 * n, live + 3 * n])))
    diff = (num[0] - den[0], num[1] - den[1])
    q, sa = _take(q, np.tile(live, 3)), np.tile(sa[live], 3)
    return [[s.reshape(3, len(live)) for s in _root_signs(*q, sa, *form)]
            for form in (num, den, diff)]


def _certified_decide(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Decide rows of four segments, P, Q: (rows, 4, 3) float endpoints,
    by certain float signs: -1 where no common transversal line exists,
    +1 where one does, 0 where the signs do not settle it.

    The signs are those ``transversal_exists_segments`` takes on its
    skew-triple branch: the skew tests of three supporting lines, the
    regulus quadratic (qa, qb, qc) along the first, its discriminant and
    the range tests of each root.  Both answers need qa certainly nonzero.
    A row is rejected when the discriminant is certainly negative, or
    certainly positive and each root certainly fails a range test; it is
    accepted when the discriminant is certainly positive and, for one
    root, every range test certainly holds strictly (the module
    docstring says why that proves a transversal).  Rows with a
    non-finite coordinate, no certainly skew triple or an uncertain sign
    are undecided.  Each step runs only on the rows it can still change,
    and a row's answer does not depend on the other rows.

    Independent instances of one program run once over their rows stacked
    end to end (``_lines_of``, ``_planes_of``, ``_range_signs``,
    ``_trace_signs``); each value, bound and sign is the one the program
    gives a row alone (module docstring).
    """
    decide = np.zeros(len(P), dtype=np.int8)
    # move each row's first endpoint to the origin; each coordinate then
    # carries its conversion error plus the rounding of the subtraction
    with np.errstate(all="ignore"):
        P0, Q0 = P - P[:, :1], Q - P[:, :1]
        aP, aQ = np.abs(P0), np.abs(Q0)
        eP = _ERR_UNIT * (np.abs(P) + aP)
        eQ = _ERR_UNIT * (np.abs(Q) + aQ)
        big = np.maximum(aP.max(axis=(1, 2)), aQ.max(axis=(1, 2)))
        del aP, aQ
        # rows with a non-finite coordinate, or an error beyond the row's
        # extent, stay undecided
        rows = np.flatnonzero((np.maximum(eP.max(axis=(1, 2)),
                                          eQ.max(axis=(1, 2))) <= big)
                              & (big < np.inf))
    if not len(rows):
        return decide
    if len(rows) < len(P):
        P0, Q0, eP, eQ, big = P0[rows], Q0[rows], eP[rows], eQ[rows], big[rows]
    # an exact power of two per row brings every coordinate and error
    # below 1, so no product overflows and underflow stays far below
    # _ERR_TINY
    shift = -np.frexp(big)[1][:, None, None]
    P0, Q0, eP, eQ = (np.ldexp(X, shift) for X in (P0, Q0, eP, eQ))

    stack, line = _lines_of(P0, Q0, eP, eQ)

    def skew(i, j):
        return (v_dot(line[i][1], line[j][2])
                + v_dot(line[j][1], line[i][2])).sign() != 0

    # the first triple of certainly skew supporting lines goes first.  Rows
    # where that is (0, 1, 2) keep their lines; the others test the pairs
    # with line 3, and those with a skew triple get their lines reordered
    # (the first such triple in lexicographic order, as in the kernel)
    sk = {ij: skew(*ij) for ij in ((0, 1), (0, 2), (1, 2))}
    in_order = sk[0, 1] & sk[0, 2] & sk[1, 2]
    if not in_order.all():
        sk.update({(i, 3): skew(i, 3) for i in range(3)})
        order = np.zeros((len(rows), 4), dtype=np.intp)
        has = np.zeros(len(rows), dtype=bool)
        for tri in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            ok = sk[tri[0], tri[1]] & sk[tri[0], tri[2]] & sk[tri[1], tri[2]]
            order[ok] = (*tri, *(i for i in range(4) if i not in tri))
            has |= ok
        rows = rows[has]
        if not len(rows):
            return decide
        pick = (np.flatnonzero(has)[:, None], order[has])
        stack, line = _lines_of(P0[pick], Q0[pick], eP[pick], eQ[pick])
    # the regulus and range steps set the peak memory: free the endpoints,
    # then the moments m, which no step after the quadratic reads
    del P0, Q0, eP, eQ
    planes, plane2, plane3 = _planes_of(stack, line)
    q = qa, qb, qc = _incidence_quadratic(plane2, plane3, line[3])
    stack, line = stack[:2], None
    sa = qa.sign()
    s_disc = (qb * qb - (qa * qc) * _FOUR).sign()
    # per root: some range test certainly fails, or all certainly hold
    t_range = _range_signs(q, sa)
    out = [(s[0] * sa < 0) | (s[1] * sa > 0) for s in t_range]
    inside = [(s[0] * sa > 0) & (s[1] * sa < 0) for s in t_range]
    real = (sa != 0) & (s_disc > 0)
    decide[rows[(sa != 0) & ((s_disc < 0) | (real & out[0] & out[1]))]] = -1
    # the traces can settle only the rows with two real roots that have not
    # both failed: a reject needs both to fail, an accept one inside
    live = np.flatnonzero(real & ~(out[0] & out[1]))
    if not len(live):
        return decide
    signs = _trace_signs(planes, stack, q, sa, live)
    for r in range(2):
        s_n, s_d, s_nd = (s[r] for s in signs)
        out[r] = out[r][live] | ((s_d != 0) & (
            (s_n * s_d < 0) | (s_nd * s_d > 0))).any(axis=0)
        inside[r] = inside[r][live] & (
            (s_n * s_d > 0) & (s_nd * s_d < 0)).all(axis=0)
    decide[rows[live]] = ((inside[0] | inside[1]).astype(np.int8)
                          - (out[0] & out[1]))
    return decide


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

    A tuple counts once no matter how many transversal lines it admits.
    With ``want_witnesses`` every counted tuple carries an exactly
    verified witness; without, a tuple may also be counted on a
    transversal proved by certain float signs.  Tuples are streamed in
    blocks and only the tuple filter's survivors are kept.  With
    ``prefilter`` the funnel of the module docstring runs: the tuple
    filter (ball and 2D stabbing tests on each edge triple, then for k = 4
    the join of the feasible triples; ``tuples_after_prefilter`` counts
    the k-tuples it keeps), then, for k = 4, the certified float filter on
    every segment combination, then the exact predicate on what is left.
    The tuple filter's slack-padded tests are the only uncertified
    rejections; the certified filter decides a combination only when float
    signs beyond their error bounds prove that it has, or has not, a
    transversal.
    ``prefilter=False`` turns both off: each combination of each tuple goes
    to the exact predicate, which makes it the all-exact reference.
    ``stages`` gives rows in, rows out and seconds of each step, all
    counted in edge tuples.  The ``spacecross`` logger gets an INFO line
    with blocks done, tuples seen and the count so far at most every
    ``_PROGRESS_S`` seconds.
    """
    if k not in (3, 4):
        raise ValueError("k must be 3 or 4")
    t0 = time.perf_counter()
    g = d.graph
    seg_p, seg_q, first, edge_arrays = _edge_arrays(d)
    t_enum = time.perf_counter()
    n_tuples, n_blocks, tuple_s = 0, 0, 0.0
    next_log = t_enum + _PROGRESS_S
    found = np.zeros(0, dtype=bool)

    def progress():
        """Log blocks done, tuples seen and the count at most every
        ``_PROGRESS_S`` seconds; called once per block."""
        nonlocal n_blocks, next_log
        n_blocks += 1
        now = time.perf_counter()
        if now >= next_log:
            next_log = now + _PROGRESS_S
            # imported here: only long counts log, and importing logging
            # after numpy adds about 3 ms to a process start
            # (``python -X importtime``)
            import logging
            logging.getLogger("spacecross").info(
                "count_line_crossings k=%d: %d blocks done, %d tuples seen, "
                "count %d so far", k, n_blocks, n_tuples, int(found.sum()))

    later = _disjoint_later(g)
    width = 3 if prefilter else k
    kept = [np.empty((0, width), dtype=np.intp)]
    for block in _disjoint_blocks(later, width):
        n_tuples += (len(block) if width == k
                     else int(later[block].all(axis=1).sum()))
        if prefilter:
            ta = time.perf_counter()
            block = block[_triple_filter(block, *edge_arrays)]
            tuple_s += time.perf_counter() - ta
        kept.append(block)
        progress()
    survivors = np.vstack(kept)
    if width < k:
        ta = time.perf_counter()
        survivors = _join_triples(survivors, later)
        tuple_s += time.perf_counter() - ta
    enum_s = time.perf_counter() - t_enum - tuple_s

    witnesses: List[CrossingWitness] = []
    filter_s = exact_s = 0.0
    # every edge's segments, built on the first row that reaches the exact
    # predicate; with the certified filter most counts have none
    segments: List = []
    reached = np.zeros(len(survivors), dtype=bool)
    found = np.zeros(len(survivors), dtype=bool)
    for t, segs in _segment_combinations(survivors, first):
        ta = time.perf_counter()
        if prefilter and k == 4:
            decide = _certified_decide(seg_p[segs], seg_q[segs])
            keep = decide >= 0
            reached[t[keep]] = True
            if not want_witnesses:
                # a transversal proved by float signs counts its tuple;
                # witnesses come from the exact predicate alone, in order
                found[t[decide > 0]] = True
                keep = decide == 0
            t, segs = t[keep], segs[keep]
        else:
            reached[t] = True
        tb = time.perf_counter()
        for ti, row in zip(t.tolist(), segs.tolist()):
            if found[ti]:
                continue
            if not segments:
                segments = [s for e in g.edges for s in d.edge_segments(e)]
            res = transversal_exists_segments([segments[i] for i in row])
            if not res.exists:
                continue
            found[ti] = True
            if want_witnesses:
                idx = survivors[ti].tolist()
                witnesses.append(CrossingWitness(
                    tuple(g.edges[j] for j in idx), res.line,
                    [(g.edges[j], row[i] - int(first[j]), res.params[i])
                     for i, j in enumerate(idx)]))
        filter_s += tb - ta
        exact_s += time.perf_counter() - tb
        progress()

    count = int(found.sum())
    n_reached = int(reached.sum())
    return CrossingReport(
        k=k, count=count,
        witnesses=witnesses if want_witnesses else None,
        elapsed=time.perf_counter() - t0,
        tuples_total=n_tuples,
        tuples_after_prefilter=len(survivors),
        stages=[("enumerate", math.comb(g.m, k), n_tuples, enum_s),
                ("tuple_filter", n_tuples, len(survivors), tuple_s),
                ("certified_filter", len(survivors), n_reached, filter_s),
                ("exact", n_reached, count, exact_s)])
