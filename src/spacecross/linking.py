"""Linking numbers of polygonal cycles and intrinsic linking of K6.

Each cycle scales its points to integers once, by the least common
denominator of their coordinates (its ``scale``).  Two cycles meet at the
least common multiple of their scales, a positive factor, which changes no
sign below.  The linking number is the sum of crossing signs in the
projection along w = (1, t, t^2) for the first t = 1, 2, ... that is
generic.  Every decision on the way (a segment whose image collapses,
images that touch, the sign of a crossing, which strand passes over) is
the sign of one integer determinant det(u, v, w) = (u x v) . w, so results
are exact integers.

Each projection reads its side tests from two tables: for each segment of
one cycle, from a along u with g = w x u, and each vertex x of the other,
g . x - g . a.  The same pass decides disjointness.  Two segments whose
images strictly cross meet exactly when their preimages of the crossing
coincide, a zero determinant; images that touch or overlap go to the exact
``_segments_meet`` on that pair.  So ``NotDisjoint`` is raised exactly
when the cycles share a point, without an all-pairs test in front.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import DegeneratePosition, NotDisjoint, ValidationError
from .geometry import (Segment3, _family_samples, _int_triple,
                       _plane_image, _public_transversal, _regulus,
                       _regulus_transversal, _scaled_int_points,
                       _scaled_regulus, _skew_triple_order,
                       segments_intersect_2d, transversal_exists_segments,
                       v_cross, v_dot, v_scale, v_sub)
from .scalars import rat

Vec3 = Tuple
_ZERO = (0, 0, 0)


@dataclass(frozen=True)
class PolygonalCycle:
    """Closed polygonal curve given by at least three ordered points.

    ``int_points`` are the points times ``scale``, the least common
    denominator of their coordinates.  These, and the ``ends`` that the
    cycle scan reads, follow from ``points`` and enter neither equality,
    hashing nor the repr.
    """

    points: Tuple[Vec3, ...]
    int_points: Tuple[Tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = self.points
        if len(pts) < 3:
            raise ValidationError("cycle needs at least three points")
        for i in range(len(pts)):
            if pts[i] == pts[(i + 1) % len(pts)]:
                raise ValidationError(f"repeated consecutive point {i}")
        ints, scale = _scaled_int_points([tuple(map(rat, p)) for p in pts])
        _check_simple(_int_segments(ints))
        object.__setattr__(self, "int_points", tuple(ints))
        object.__setattr__(self, "scale", scale)

    def __len__(self):
        return len(self.points)

    @cached_property
    def ends(self):
        """(p, q, s) for each segment: its integer endpoints times s, the
        least common denominator of its own coordinates.  Built once, on
        first use."""
        scale = self.scale
        out = []
        for p, q in _int_segments(self.int_points):
            g = gcd(scale, *p, *q)
            out.append((tuple(x // g for x in p), tuple(x // g for x in q),
                        scale // g))
        return tuple(out)

    def segment(self, i: int) -> Segment3:
        pts = self.points
        return Segment3(pts[i], pts[(i + 1) % len(pts)])

    def segments(self) -> List[Segment3]:
        return [self.segment(i) for i in range(len(self))]

    def int_segments(self, scale: int):
        """Integer endpoint pairs of the segments with the points times
        ``scale``, a multiple of ``self.scale``."""
        f = scale // self.scale
        pts = self.int_points
        if f != 1:
            pts = [(x * f, y * f, z * f) for x, y, z in pts]
        return _int_segments(pts)


def _int_segments(pts):
    return list(zip(pts, [*pts[1:], pts[0]]))


def _det(u, v, w):
    return v_dot(v_cross(u, v), w)


def _segments_meet(s, r) -> bool:
    """Whether two closed segments with integer endpoints share a point."""
    (a, b), (c, d) = s, r
    u, ac = v_sub(b, a), v_sub(c, a)
    n = v_cross(u, v_sub(d, c))
    if n == _ZERO:
        if v_cross(u, ac) != _ZERO:
            return False                  # distinct parallel lines
        # all four ends on one line, which lies in a plane with normal n
        n = (u[1], -u[0], 0) if u[0] or u[1] else (1, 0, 0)
    elif v_dot(n, ac) != 0:
        return False                      # skew lines
    a, b, c, d = _plane_image(n, (a, b, c, d))
    return segments_intersect_2d((a, b), (c, d)) != "disjoint"


def _check_simple(segs):
    """Raise ValidationError unless the closed polygon with the integer
    endpoint pairs ``segs`` is simple."""
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                # consecutive segments may only share the common vertex;
                # collinear back-tracking would repeat interior points
                (a, b), (c, d) = segs[i], segs[j]
                if v_cross(v_sub(b, a), v_sub(d, c)) == _ZERO:
                    shared, other, prev = (b, d, a) if j == i + 1 else (a, c, b)
                    if v_dot(v_sub(other, shared), v_sub(prev, shared)) > 0:
                        raise ValidationError(
                            f"cycle backtracks at point {j}")
                continue
            if _segments_meet(segs[i], segs[j]):
                raise ValidationError(
                    f"cycle self-intersects between segments {i} and {j}")


# ---------------------------------------------------------------------------
# linking numbers from generic projections
# ---------------------------------------------------------------------------

def _linking_along(S1, S2, t: int) -> Optional[int]:
    """Linking number of two cycles, given as integer endpoint pairs, from
    the projection along w = (1, t, t^2); None when that projection is not
    generic.  Raises NotDisjoint when the cycles share a point.

    For a segment from a along u, let g = w x u.  Then
    det(u, x - a, w) = g . x - g . a tells on which side of the segment's
    image the image of x lies, and g = 0 when the image collapses.
    """
    w = (1, t, t * t)
    segs = [[(a, b, v_sub(b, a), v_cross(w, v_sub(b, a))) for a, b in S]
            for S in (S1, S2)]
    if any(g == _ZERO for S in segs for *_, g in S):
        return None
    sides1, sides2 = _side_table(segs[0], S2), _side_table(segs[1], S1)
    total = 0
    for i, (a, b, u1, g1) in enumerate(segs[0]):
        side1 = sides1[i]
        for j, (c, d, u2, _) in enumerate(segs[1]):
            s1, s2 = side1[j], side1[j + 1]
            s3, s4 = sides2[j][i], sides2[j][i + 1]
            if ((s1 > 0 and s2 > 0) or (s1 < 0 and s2 < 0)
                    or (s3 > 0 and s4 > 0) or (s3 < 0 and s4 < 0)):
                continue                  # images disjoint
            if not (s1 and s2 and s3 and s4):
                # images touch or overlap
                if _segments_meet((a, b), (c, d)):
                    raise NotDisjoint("cycles share a point")
                if (v_cross(u1, v_sub(c, a)) == _ZERO
                        and v_cross(u1, v_sub(d, a)) == _ZERO):
                    # disjoint segments of one line in space: g1 != 0
                    # makes the projection one to one on that line
                    continue
                return None
            # the images cross at p1 on (a, b) and p2 on (c, d), where
            # p1 - p2 = (lam / den) w with den = det(u1, u2, w) != 0
            lam = _det(u1, u2, v_sub(a, c))
            if not lam:
                raise NotDisjoint("cycles share a point")
            den = v_dot(g1, u2)
            if (lam > 0) == (den > 0):    # (a, b) passes over (c, d)
                total -= 1 if den > 0 else -1
    return total


def _side_table(segs, S):
    """g_i . x_j - g_i . a_i for each segment i = (a_i, b_i, u_i, g_i) of
    one cycle and each vertex x_j of the other, given as its segments S;
    each row ends with its first entry again, so that entries j and j + 1
    belong to the ends of segment j."""
    pts = [p for p, _ in S]
    pts.append(pts[0])
    table = []
    for a, _, _, (g0, g1, g2) in segs:
        ga = g0 * a[0] + g1 * a[1] + g2 * a[2]
        table.append([g0 * x + g1 * y + g2 * z - ga for x, y, z in pts])
    return table


def linking_number(c1: PolygonalCycle, c2: PolygonalCycle) -> int:
    """Sum of crossing signs where the first cycle passes over the second.

    Sign convention: with the right-handed frame, the positively oriented
    polygonal Hopf pair links to +1.  Raises NotDisjoint when the cycles
    share a point.
    """
    scale = lcm(c1.scale, c2.scale)
    S1, S2 = c1.int_segments(scale), c2.int_segments(scale)
    for t in range(1, 10000):
        lk = _linking_along(S1, S2, t)
        if lk is not None:
            return lk
    raise AssertionError("generic projection search exhausted")


# ---------------------------------------------------------------------------
# intrinsic linking of K6
# ---------------------------------------------------------------------------

@dataclass
class ConwayGordonResult:
    odd_pair: Tuple[Tuple[int, int, int], Tuple[int, int, int]]
    parity_sum: int
    linking_numbers: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]


def triangle_pairs_of_k6() -> List[Tuple[Tuple[int, int, int], Tuple[int, int, int]]]:
    pairs = []
    for tri in itertools.combinations(range(6), 3):
        other = tuple(v for v in range(6) if v not in tri)
        if tri < other:
            pairs.append((tri, other))
    return pairs


def conway_gordon_check(points: Sequence[Vec3]) -> ConwayGordonResult:
    """Linking parity of the ten disjoint triangle pairs on six points.

    The mod-2 sum of the ten linking numbers is always 1, so some pair of
    vertex-disjoint triangles is linked in every generic configuration.
    """
    if len(points) != 6:
        raise ValidationError("need exactly six points")
    ints, _ = _scaled_int_points(points)
    for quad in itertools.combinations(range(6), 4):
        p, q, r, s = (ints[i] for i in quad)
        if _det(v_sub(q, p), v_sub(r, p), v_sub(s, p)) == 0:
            raise DegeneratePosition(f"points {quad} are coplanar")
    lks = {}
    odd_pair = None
    parity = 0
    for tri1, tri2 in triangle_pairs_of_k6():
        c1 = PolygonalCycle(tuple(points[i] for i in tri1))
        c2 = PolygonalCycle(tuple(points[i] for i in tri2))
        lk = linking_number(c1, c2)
        lks[(tri1, tri2)] = lk
        parity ^= lk & 1
        if lk % 2 != 0 and odd_pair is None:
            odd_pair = (tri1, tri2)
    if parity != 1 or odd_pair is None:
        raise AssertionError("linking parity invariant failed; this is a bug")
    return ConwayGordonResult(odd_pair, parity, lks)


@dataclass
class LinkedCyclePair:
    cycle1: PolygonalCycle
    cycle2: PolygonalCycle
    loop1: Tuple[int, ...]      # drawing vertex ids along cycle1
    loop2: Tuple[int, ...]
    tri1: Tuple[int, int, int]  # underlying K6 triangles
    tri2: Tuple[int, int, int]
    lk: int


def find_linked_pair(drawing, embedding) -> LinkedCyclePair:
    """Odd-linking cycle pair of a drawn K6 subdivision.

    ``embedding`` provides six branch vertices and a path of drawing
    vertices for each of the 15 K6 edges; each disjoint triangle pair maps
    to a pair of cycles through those paths.  Returns the first pair with
    odd linking number together with the triangles that produced it.
    """
    validate_embedding(drawing.graph, embedding)
    paths = embedding.paths
    positions = drawing.positions
    for tri1, tri2 in triangle_pairs_of_k6():
        cycles = []
        loops = []
        for tri in (tri1, tri2):
            loop: List[int] = []
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                seg = paths[(min(a, b), max(a, b))]
                if a > b:
                    seg = list(reversed(seg))
                loop.extend(seg[:-1])
            loops.append(tuple(loop))
            cycles.append(PolygonalCycle(tuple(positions[v] for v in loop)))
        lk = linking_number(cycles[0], cycles[1])
        if lk % 2 != 0:
            return LinkedCyclePair(cycles[0], cycles[1], loops[0], loops[1],
                                   tri1, tri2, lk)
    raise AssertionError("no odd pair found; this contradicts linking parity")


def validate_embedding(g, emb):
    """Check that ``emb`` (six branch vertices and one path per pair of
    them) is a K6 subdivision in graph ``g``; raise ValidationError if not."""
    branch = emb.branch_vertices
    if len(branch) != 6 or len(set(branch)) != 6:
        raise ValidationError("need six distinct branch vertices")
    if set(emb.paths) != {(i, j) for i in range(6) for j in range(i + 1, 6)}:
        raise ValidationError("need one path per pair of branches")
    edge_set = set(g.edges)
    interior_seen: Set[int] = set()
    for (i, j), path in emb.paths.items():
        if len(path) < 2 or path[0] != branch[i] or path[-1] != branch[j]:
            raise ValidationError(f"path {(i, j)} does not join its branches")
        if len(set(path)) != len(path):
            raise ValidationError(f"path {(i, j)} repeats a vertex")
        for a, b in zip(path, path[1:]):
            if (min(a, b), max(a, b)) not in edge_set:
                raise ValidationError(f"path {(i, j)} uses a missing edge")
        for v in path[1:-1]:
            if v in branch or v in interior_seen:
                raise ValidationError(f"paths share interior vertex {v}")
        interior_seen.update(path[1:-1])


# ---------------------------------------------------------------------------
# transversals through four linked cycles
# ---------------------------------------------------------------------------

def transversal_through_cycles(cycles: Sequence[PolygonalCycle]):
    """``(indices, result)`` for the first segment of each cycle, in
    ``itertools.product`` order, that one line meets, or None:
    ``indices[c]`` indexes ``cycles[c].segments()`` and ``result`` is the
    exact ``SegmentTransversal`` of those segments.  Linked first and last
    pairs guarantee a transversal, so finding none then raises (a defect
    in the search, not in the mathematics).

    The scan takes one head, a segment of each of the first three cycles,
    at a time.  When the head's supporting lines are pairwise skew, its
    regulus is built once, on the integers of the head's own scale, and a
    head whose family of transversals accepts no sample site (the exact
    refutation of ``transversal_exists_segments`` for three segments) is
    skipped: no line meets its segments, so none meets a row under it.
    ``_row_transversal`` then decides each row in turn.  A row is scaled
    exactly as ``transversal_exists_segments`` scales it, so each answer,
    and the first row met with its result, is that function's."""
    if len(cycles) != 4:
        raise ValidationError("need exactly four cycles")
    for head in itertools.product(*(range(len(c)) for c in cycles[:3])):
        head_ends = [c.ends[i] for c, i in zip(cycles, head)]
        scale = lcm(*(s for _, _, s in head_ends))
        lines = [_int_line(e, scale) for e in head_ends]
        regulus = None
        if _skew_triple_order([(d, m) for _, d, m in lines]) is not None:
            regulus = _regulus(lines)
            if next(_family_samples(regulus[2]), None) is None:
                continue
        for i in range(len(cycles[3])):
            res = _row_transversal(cycles, (*head, i), regulus, lines, scale)
            if res is not None:
                return (*head, i), res
    lk12 = linking_number(cycles[0], cycles[1])
    lk34 = linking_number(cycles[2], cycles[3])
    if lk12 != 0 and lk34 != 0:
        raise AssertionError(
            "linked pairs guarantee a transversal; none found (bug)")
    return None


def _int_line(ends, scale):
    """Integer line (p, d, m) of a segment (p, q, s) of
    ``PolygonalCycle.ends`` with its points times ``scale``, a multiple of
    s."""
    p, q, s = ends
    return _int_triple(v_scale(p, scale // s), v_scale(q, scale // s))


def _row_transversal(cycles, row, regulus, lines, scale):
    """The ``SegmentTransversal`` of the four segments ``row`` of the
    cycles, one per cycle, if one line meets them, else None.

    ``lines`` are the integer lines of the first three segments with their
    points times ``scale``, the least common denominator of their
    coordinates, and ``regulus`` is their ``_regulus``, or None when they
    are not pairwise skew; such rows go to ``transversal_exists_segments``.
    The row's scale is that of ``transversal_exists_segments`` on it, and
    the skew-branch decision then runs on that function's own integers."""
    if regulus is None:
        res = transversal_exists_segments(
            [cycle.segment(i) for cycle, i in zip(cycles, row)])
        return res if res.exists else None
    fourth = cycles[3].ends[row[3]]
    row_scale = lcm(scale, fourth[2])
    c = row_scale // scale
    if c != 1:
        regulus = _scaled_regulus(regulus, c)
        lines = [(v_scale(p, c), v_scale(d, c), v_scale(m, c * c))
                 for p, d, m in lines]
    line4 = _int_line(fourth, row_scale)
    found = _regulus_transversal(regulus, [*lines, line4], line4)
    return None if found is None else _public_transversal(*found, row_scale)
