"""Linking numbers of polygonal cycles and intrinsic linking of K6.

The linking number is computed from signed crossings in an exactly
validated generic projection; all over/under decisions compare rational
depth coordinates, so results are exact integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import (DegenerateInput, DegeneratePosition, NotDisjoint,
                     ValidationError)
from .geometry import (PluckerLine, Segment3, line_through_points,
                       plucker_from_segment, transversal_exists_segments,
                       v_cross, v_dot, v_sub, v_is_zero)
from .scalars import rat, sign_of

Vec3 = Tuple


@dataclass(frozen=True)
class PolygonalCycle:
    """Closed polygonal curve given by at least three ordered points."""

    points: Tuple[Vec3, ...]

    def __post_init__(self):
        pts = self.points
        if len(pts) < 3:
            raise ValidationError("cycle needs at least three points")
        for i in range(len(pts)):
            if pts[i] == pts[(i + 1) % len(pts)]:
                raise ValidationError(f"repeated consecutive point {i}")
        _check_simple(pts)

    def __len__(self):
        return len(self.points)

    def segments(self) -> List[Segment3]:
        pts = self.points
        return [Segment3(pts[i], pts[(i + 1) % len(pts)])
                for i in range(len(pts))]


def _segments_meet_3d(s: Segment3, r: Segment3) -> bool:
    """Exact test whether two closed 3D segments share a point."""
    line_r = plucker_from_segment(r)
    d_s = s.direction
    w = v_cross(d_s, line_r.direction)
    if v_is_zero(w):
        # parallel or collinear
        if not v_is_zero(v_sub(v_cross(s.p, line_r.direction), line_r.moment)):
            return False
        comp = next(i for i in range(3) if sign_of(d_s[i]) != 0)
        u0 = (r.p[comp] - s.p[comp]) / d_s[comp]
        u1 = (r.q[comp] - s.p[comp]) / d_s[comp]
        lo, hi = min(u0, u1), max(u0, u1)
        return lo <= 1 and hi >= 0
    ok, u = _line_param_hit(s, r)
    return ok


def _line_param_hit(s: Segment3, r: Segment3):
    """Intersection of the supporting lines clipped to both segments."""
    d1, d2 = s.direction, r.direction
    n = v_cross(d1, d2)
    diff = v_sub(r.p, s.p)
    if sign_of(v_dot(diff, n)) != 0:
        return False, None  # skew
    denom = v_dot(n, n)
    u = v_dot(v_cross(diff, d2), n) / denom
    t = v_dot(v_cross(diff, d1), n) / denom
    if 0 <= u <= 1 and 0 <= t <= 1:
        return True, (u, t)
    return False, None


def _check_simple(pts):
    n = len(pts)
    segs = [Segment3(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                # consecutive segments may only share the common vertex;
                # collinear back-tracking would repeat interior points
                a, b = segs[i], segs[j]
                if v_is_zero(v_cross(a.direction, b.direction)):
                    shared = a.q if j == i + 1 else a.p
                    other = b.q if j == i + 1 else b.p
                    prev = a.p if j == i + 1 else a.q
                    back = sign_of(v_dot(v_sub(other, shared),
                                         v_sub(prev, shared)))
                    if back > 0:
                        raise ValidationError(
                            f"cycle backtracks at point {j}")
                continue
            if _segments_meet_3d(segs[i], segs[j]):
                raise ValidationError(
                    f"cycle self-intersects between segments {i} and {j}")


# ---------------------------------------------------------------------------
# generic projections
# ---------------------------------------------------------------------------

@dataclass
class _Projection:
    w: Vec3          # direction projected out (depth axis)
    a: Vec3          # first image coordinate
    b: Vec3          # second image coordinate

    def image(self, p) -> Tuple[Fraction, Fraction]:
        return (v_dot(p, self.a), v_dot(p, self.b))

    def depth(self, p) -> Fraction:
        return v_dot(p, self.w)


def _projection_for(t: int) -> _Projection:
    t = Fraction(t)
    w = (Fraction(1), t, t * t)
    return _Projection(w, (-t, Fraction(1), Fraction(0)),
                       (-t * t, Fraction(0), Fraction(1)))


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _projection_is_generic(proj, c1: PolygonalCycle, c2: PolygonalCycle) -> bool:
    for cycle in (c1, c2):
        pts = cycle.points
        for i in range(len(pts)):
            p, q = pts[i], pts[(i + 1) % len(pts)]
            if proj.image(p) == proj.image(q):
                return False  # segment collapses
    for s in c1.segments():
        sp, sq = proj.image(s.p), proj.image(s.q)
        for r in c2.segments():
            rp, rq = proj.image(r.p), proj.image(r.q)
            d1 = _cross2(v_sub2(sq, sp), v_sub2(rp, sp))
            d2 = _cross2(v_sub2(sq, sp), v_sub2(rq, sp))
            d3 = _cross2(v_sub2(rq, rp), v_sub2(sp, rp))
            d4 = _cross2(v_sub2(rq, rp), v_sub2(sq, rp))
            crossing = d1 * d2 < 0 and d3 * d4 < 0
            disjoint = (d1 * d2 > 0) or (d3 * d4 > 0)
            if not crossing and not disjoint:
                return False  # endpoint contact or collinear overlap
    return True


def v_sub2(a, b):
    return (a[0] - b[0], a[1] - b[1])


def find_generic_projection(c1: PolygonalCycle, c2: PolygonalCycle,
                            start: int = 1, limit: int = 10000) -> _Projection:
    """First valid direction from the deterministic family (1, t, t^2)."""
    for t in range(start, limit):
        proj = _projection_for(t)
        if _projection_is_generic(proj, c1, c2):
            return proj
    raise RuntimeError("generic projection search exhausted")


def linking_number(c1: PolygonalCycle, c2: PolygonalCycle,
                   projection: Optional[_Projection] = None) -> int:
    """Sum of crossing signs where the first cycle passes over the second.

    Sign convention: with the right-handed frame, the positively oriented
    polygonal Hopf pair links to +1.
    """
    for s in c1.segments():
        for r in c2.segments():
            if _segments_meet_3d(s, r):
                raise NotDisjoint("cycles share a point")
    proj = projection or find_generic_projection(c1, c2)
    total = 0
    for s in c1.segments():
        sp, sq = proj.image(s.p), proj.image(s.q)
        u1 = v_sub2(sq, sp)
        for r in c2.segments():
            rp, rq = proj.image(r.p), proj.image(r.q)
            u2 = v_sub2(rq, rp)
            den = _cross2(u1, u2)
            if den == 0:
                continue
            alpha = _cross2(v_sub2(rp, sp), u2) / den
            beta = _cross2(v_sub2(rp, sp), u1) / den
            if not (0 < alpha < 1 and 0 < beta < 1):
                continue
            p1 = tuple(s.p[i] + alpha * s.direction[i] for i in range(3))
            p2 = tuple(r.p[i] + beta * r.direction[i] for i in range(3))
            h = sign_of(proj.depth(v_sub(p1, p2)))
            if h == 0:
                raise NotDisjoint("cycles share a point at a crossing")
            if h > 0:
                total -= sign_of(den)
    return total


# ---------------------------------------------------------------------------
# intrinsic linking of K6
# ---------------------------------------------------------------------------

def _coplanar(p, q, r, s) -> bool:
    return sign_of(v_dot(v_sub(q, p), v_cross(v_sub(r, p), v_sub(s, p)))) == 0


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
    for quad in itertools.combinations(range(6), 4):
        if _coplanar(*(points[i] for i in quad)):
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

def transversal_through_cycles(cycles: Sequence[PolygonalCycle],
                               check_guarantee: bool = True):
    """A line meeting all four cycles, or None.

    Sweeps all quadruples of one segment per cycle through the exact
    predicate.  When the first two and the last two cycles are linked a
    transversal must exist; failing to find one then raises, since it
    would indicate a defect in the search, not in the mathematics.
    """
    if len(cycles) != 4:
        raise ValidationError("need exactly four cycles")
    seg_lists = [c.segments() for c in cycles]
    for combo in itertools.product(*seg_lists):
        res = transversal_exists_segments(list(combo))
        if res.exists:
            return res.line
    if check_guarantee:
        lk12 = linking_number(cycles[0], cycles[1])
        lk34 = linking_number(cycles[2], cycles[3])
        if lk12 != 0 and lk34 != 0:
            raise AssertionError(
                "linked pairs guarantee a transversal; none found (bug)")
    return None
