import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from spacecross import linking, pipeline
from spacecross.errors import (DegeneratePosition, NotDisjoint, ValidationError)
from spacecross.geometry import (_scaled_int_segments, point3,
                                 segments_intersect_2d,
                                 transversal_exists_segments, v_add,
                                 verify_transversal)
from spacecross.linking import (PolygonalCycle, conway_gordon_check,
                                find_linked_pair, linking_number,
                                transversal_through_cycles, _linking_along,
                                _segments_meet)
from spacecross.drawing import Graph, SpatialDrawing
from spacecross.generators import hopf_pair, random_drawing, stacked_pairs
from spacecross.pipeline import SubdivisionEmbedding, boost_witness_pipeline


# ---------------------------------------------------------------------------
# the numeric Gauss-integral oracle
# ---------------------------------------------------------------------------

def _solid_angle(a, b, c):
    # van Oosterom-Strackee: signed solid angle of the spherical triangle
    na, nb, nc = (math.sqrt(sum(x * x for x in v)) for v in (a, b, c))
    det = (a[0] * (b[1] * c[2] - b[2] * c[1])
           - a[1] * (b[0] * c[2] - b[2] * c[0])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    dab = sum(x * y for x, y in zip(a, b))
    dac = sum(x * y for x, y in zip(a, c))
    dbc = sum(x * y for x, y in zip(b, c))
    denom = na * nb * nc + dab * nc + dac * nb + dbc * na
    return 2 * math.atan2(det, denom)


def gauss_linking_numeric(c1: PolygonalCycle, c2: PolygonalCycle) -> float:
    total = 0.0
    pts1 = [tuple(map(float, p)) for p in c1.points]
    pts2 = [tuple(map(float, p)) for p in c2.points]
    n1, n2 = len(pts1), len(pts2)
    for i in range(n1):
        a0, a1 = pts1[i], pts1[(i + 1) % n1]
        for j in range(n2):
            b0, b1 = pts2[j], pts2[(j + 1) % n2]
            r = [tuple(x - y for x, y in zip(p, q))
                 for p, q in ((a0, b0), (a1, b0), (a1, b1), (a0, b1))]
            omega = _solid_angle(r[0], r[1], r[2]) + _solid_angle(r[0], r[2], r[3])
            total += omega
    return total / (4 * math.pi)


# ---------------------------------------------------------------------------
# linking numbers
# ---------------------------------------------------------------------------

def test_hopf_pair_is_plus_one():
    c1, c2 = hopf_pair()
    assert linking_number(c1, c2) == 1
    assert linking_number(c2, c1) == 1


def test_mirrored_hopf_is_minus_one():
    c1, c2 = hopf_pair()
    m1 = PolygonalCycle(tuple((x, y, -z) for x, y, z in c1.points))
    m2 = PolygonalCycle(tuple((x, y, -z) for x, y, z in c2.points))
    assert linking_number(m1, m2) == -1


def test_split_link_is_zero():
    c1, _ = hopf_pair()
    far = PolygonalCycle((point3(10, 0, 0), point3(11, 0, 0), point3(11, 1, 0)))
    assert linking_number(c1, far) == 0


@pytest.mark.parametrize("first, second, lk", [
    # the first edges of both triangles lie on the x axis
    (((0, 0, 0), (1, 0, 0), (0, 1, 0)), ((2, 0, 0), (3, 0, 0), (2, 0, 1)), 0),
    # the loop's first edge runs on the line of the square's first edge
    (((0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)),
     ((6, 0, 0), (8, 0, 0), (2, 2, -1), (2, 2, 1)), -1),
])
def test_linking_with_collinear_edges(first, second, lk):
    c1, c2 = (PolygonalCycle(tuple(point3(*p) for p in pts))
              for pts in (first, second))
    assert linking_number(c1, c2) == lk
    assert linking_number(c2, c1) == lk
    assert round(gauss_linking_numeric(c1, c2)) == lk


def test_double_wrap_is_two_and_matches_gauss_integral():
    big = PolygonalCycle((point3(3, 3, 0), point3(-3, 3, 0),
                          point3(-3, -3, 0), point3(3, -3, 0)))
    wrap = PolygonalCycle(tuple(point3(*p) for p in [
        (1, 0, 1), (1, 0, -1), (5, 0, -1), (5, 0, 5), (-1, 1, 5),
        (-1, 1, -1), (6, 1, -1), (6, 1, 6), (1, 0, 6)]))
    lk = linking_number(big, wrap)
    assert abs(lk) == 2
    numeric = gauss_linking_numeric(big, wrap)
    assert abs(numeric - lk) < 1e-6


def test_gauss_integral_agrees_on_random_pairs():
    rng = random.Random(4)
    for _ in range(10):
        pts1 = [point3(rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 8))
                for _ in range(4)]
        pts2 = [point3(rng.randint(0, 8) + Fraction(1, 3),
                       rng.randint(0, 8) + Fraction(1, 5),
                       rng.randint(0, 8) + Fraction(1, 7)) for _ in range(4)]
        try:
            c1, c2 = PolygonalCycle(tuple(pts1)), PolygonalCycle(tuple(pts2))
            lk = linking_number(c1, c2)
        except (ValidationError, NotDisjoint):
            continue
        assert abs(gauss_linking_numeric(c1, c2) - lk) < 1e-6


def test_linking_independent_of_direction():
    c1, c2 = hopf_pair()
    ints, _ = _scaled_int_segments(c1.segments() + c2.segments())
    values = [_linking_along(ints[:len(c1)], ints[len(c1):], t)
              for t in range(1, 40)]
    generic = [v for v in values if v is not None]
    assert len(generic) >= 10 and set(generic) == {1}


def _subdivide_cycle(cycle, rng):
    pts = list(cycle.points)
    i = rng.randrange(len(pts))
    a, b = pts[i], pts[(i + 1) % len(pts)]
    t = Fraction(rng.randint(1, 7), 8)
    mid = v_add(a, tuple(t * (x - y) for x, y in zip(b, a)))
    pts.insert(i + 1, mid)
    return PolygonalCycle(tuple(pts))


def test_linking_invariant_under_edge_subdivision():
    rng = random.Random(5)
    c1, c2 = hopf_pair()
    for _ in range(100):
        if rng.random() < 0.5:
            c1 = _subdivide_cycle(c1, rng)
        else:
            c2 = _subdivide_cycle(c2, rng)
    assert linking_number(c1, c2) == 1


def test_linking_flips_under_reflection_and_survives_positive_affine():
    c1, c2 = hopf_pair()

    def refl(c):
        return PolygonalCycle(tuple((x, y, -z) for x, y, z in c.points))

    assert linking_number(refl(c1), refl(c2)) == -1

    def pos_affine(c):
        return PolygonalCycle(tuple(
            (2 * x + y + 1, y - z, x + 3 * z - Fraction(1, 2))
            for x, y, z in c.points))  # determinant 10 > 0

    assert linking_number(pos_affine(c1), pos_affine(c2)) == 1


def test_intersecting_cycles_rejected():
    c1 = PolygonalCycle((point3(0, 0, 0), point3(2, 0, 0), point3(1, 2, 0)))
    c2 = PolygonalCycle((point3(1, 0, -1), point3(1, 0, 1), point3(3, 3, 1)))
    with pytest.raises(NotDisjoint):
        linking_number(c1, c2)


_BASE_TRIANGLE = ((0, 0, 0), (4, 0, 0), (2, 3, 0))
_MEETING_TRIANGLES = {
    # a vertex inside an edge of the base triangle
    "T-junction": ((2, 0, 0), (2, -1, 1), (2, -1, -1)),
    "shared vertex": ((4, 0, 0), (5, 1, 1), (5, -1, 1)),
    # an edge through an inner point of an edge of the base triangle
    "interior crossing": ((1, -1, -2), (1, 1, 2), (3, -2, 2)),
    "collinear overlap": ((3, 0, 0), (6, 0, 0), (5, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(_MEETING_TRIANGLES))
def test_cycles_that_share_a_point_are_rejected(name):
    base, other = (PolygonalCycle(tuple(point3(*p) for p in pts))
                   for pts in (_BASE_TRIANGLE, _MEETING_TRIANGLES[name]))
    for c1, c2 in ((base, other), (other, base)):
        with pytest.raises(NotDisjoint):
            linking_number(c1, c2)


def _image_along_111(p):
    """Image of p in the projection along w = (1, 1, 1), in the basis
    (1, -1, 0), (1, 1, -2) of the plane orthogonal to w."""
    x, y, z = p
    return (x - y, x + y - 2 * z)


def test_shared_point_found_past_a_touching_first_projection():
    # The first segments do not meet, but along w = (1, 1, 1) the end
    # (3, 1, 1) of the second's projects onto (2, 0, 0), inside the first
    # one's image, so that projection is not generic.  The vertex (0, 0, 2)
    # of the second cycle lies on the last segment of the first.
    first = ((0, 0, 0), (4, 0, 0), (0, 0, 4))
    second = ((3, 1, 1), (3, 3, 3), (0, 0, 2))
    assert not _segments_meet(first[:2], second[:2])
    assert segments_intersect_2d(
        tuple(map(_image_along_111, first[:2])),
        tuple(map(_image_along_111, second[:2]))) == "touching"
    c1, c2 = (PolygonalCycle(tuple(point3(*p) for p in pts))
              for pts in (first, second))
    for a, b in ((c1, c2), (c2, c1)):
        with pytest.raises(NotDisjoint):
            linking_number(a, b)


def _small_cycle(rng):
    return tuple(tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
                       for _ in range(3)) for _ in range(rng.randint(3, 5)))


def test_linking_outcomes_on_small_integer_cycles_are_pinned():
    """Linking numbers in both orders, or NotDisjoint, on seeded pairs of
    small cycles with many touching, collinear and shared points; the
    digest was recorded with an all-pairs disjointness test in front of
    the projections."""
    rng = random.Random(2026)
    outcomes = []
    while len(outcomes) < 3000:
        try:
            c1 = PolygonalCycle(_small_cycle(rng))
            c2 = PolygonalCycle(_small_cycle(rng))
        except ValidationError:
            continue
        try:
            outcomes.append((linking_number(c1, c2), linking_number(c2, c1)))
        except NotDisjoint:
            with pytest.raises(NotDisjoint):
                linking_number(c2, c1)
            outcomes.append("NotDisjoint")
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]
    assert (outcomes.count("NotDisjoint"), digest) == (589, "b579d7fd5f9f1e48")


_SEGMENT_PAIRS = {
    "skew": (((0, 0, 0), (2, 0, 0)), ((1, -1, 1), (1, 1, 1))),
    "coplanar crossing": (((0, 0, 0), (2, 2, 2)), ((0, 2, 2), (2, 0, 0))),
    "coplanar apart": (((0, 0, 0), (2, 0, 2)), ((3, 0, 0), (4, 0, 3))),
    "T-junction": (((0, 0, 0), (4, 0, 0)), ((2, 0, 0), (2, 3, 1))),
    "lines meet outside": (((0, 0, 0), (4, 0, 0)), ((2, 1, 0), (2, 3, 0))),
    "shared endpoint": (((0, 0, 0), (1, 2, 3)), ((1, 2, 3), (3, 1, 0))),
    "parallel": (((0, 0, 0), (1, 1, 0)), ((0, 0, 1), (2, 2, 1))),
    "collinear overlapping": (((0, 0, 0), (3, 3, 3)), ((2, 2, 2), (5, 5, 5))),
    "collinear nested": (((0, 1, 0), (0, 5, 0)), ((0, 4, 0), (0, 2, 0))),
    "collinear touching": (((1, 0, 0), (3, 1, 0)), ((5, 2, 0), (3, 1, 0))),
    "collinear disjoint": (((0, 0, 1), (0, 0, 2)), ((0, 0, 3), (0, 0, 7))),
}


@pytest.mark.parametrize("name", sorted(_SEGMENT_PAIRS))
def test_segments_meet_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    s, r = _SEGMENT_PAIRS[name]
    expected = bool(sympy.Segment3D(*s).intersection(sympy.Segment3D(*r)))
    for a, b in ((s, r), (r, s), (s[::-1], r), (s, r[::-1])):
        assert _segments_meet(a, b) == expected


def test_segments_meet_matches_sympy_on_random_pairs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    checked = 0
    while checked < 150:
        a, b, c, d = (tuple(rng.randint(0, 2) for _ in range(3))
                      for _ in range(4))
        if a == b or c == d:
            continue
        expected = bool(sympy.Segment3D(a, b).intersection(
            sympy.Segment3D(c, d)))
        assert _segments_meet((a, b), (c, d)) == expected
        checked += 1


def test_cycle_validation():
    with pytest.raises(ValidationError):
        PolygonalCycle((point3(0, 0, 0), point3(1, 0, 0)))
    with pytest.raises(ValidationError):
        PolygonalCycle((point3(0, 0, 0), point3(0, 0, 0), point3(1, 1, 1)))
    # figure-eight style self intersection
    with pytest.raises(ValidationError):
        PolygonalCycle((point3(0, 0, 0), point3(2, 2, 0), point3(2, 0, 0),
                        point3(0, 2, 0)))


def test_cycle_validation_on_scaled_points():
    third = Fraction(1, 3)
    with pytest.raises(ValidationError, match="backtracks"):
        PolygonalCycle((point3(0, 0, 0), point3(2 * third, 0, 0),
                        point3(third, 0, 0), point3(0, Fraction(1, 7), 0)))
    with pytest.raises(ValidationError, match="self-intersects"):
        PolygonalCycle((point3(0, 0, 0), point3(2 * third, 2 * third, 0),
                        point3(2 * third, 0, 0), point3(0, 2 * third, 0)))


def test_cycles_with_equal_points_are_equal():
    pts = (point3(Fraction(1, 2), 0, 0), point3(0, Fraction(1, 3), 0),
           point3(0, 0, Fraction(5, 64)))
    a = PolygonalCycle(pts)
    b = PolygonalCycle(tuple(tuple(Fraction(c) for c in p) for p in pts))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"PolygonalCycle(points={pts!r})"
    ints = PolygonalCycle(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert ints == PolygonalCycle(tuple(point3(*p) for p in ints.points))
    assert hash(ints) == hash(PolygonalCycle(
        tuple(point3(*p) for p in ints.points)))
    assert a != ints


def _fraction_scaled_linking(c1, c2):
    """Linking number with the segments of both cycles scaled to integers
    together, from their Fraction endpoints."""
    ints, _ = _scaled_int_segments(c1.segments() + c2.segments())
    S1, S2 = ints[:len(c1)], ints[len(c1):]
    return next(lk for lk in (_linking_along(S1, S2, t)
                              for t in itertools.count(1)) if lk is not None)


def test_linking_matches_fraction_scaled_reference():
    rng = random.Random(13)

    def cycle():
        # each cycle draws its own denominators, so the two scales differ
        dens = [rng.randint(1, 64) for _ in range(3)]
        return PolygonalCycle(tuple(
            tuple(Fraction(rng.randint(0, 4 * b), b) for b in dens)
            for _ in range(rng.randint(3, 5))))

    checked, linked = 0, 0
    while checked < 150:
        try:
            c1, c2 = cycle(), cycle()
            lk = linking_number(c1, c2)
        except (ValidationError, NotDisjoint):
            continue
        assert lk == _fraction_scaled_linking(c1, c2)
        assert linking_number(c2, c1) == _fraction_scaled_linking(c2, c1)
        checked += 1
        linked += lk != 0
    assert linked >= 10


# ---------------------------------------------------------------------------
# intrinsic linking of K6
# ---------------------------------------------------------------------------

def octahedron_points(rng):
    base = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    return [point3(Fraction(64 * x + rng.randint(-5, 5), 64),
                   Fraction(64 * y + rng.randint(-5, 5), 64),
                   Fraction(64 * z + rng.randint(-5, 5), 64))
            for x, y, z in base]


def test_conway_gordon_octahedron():
    rng = random.Random(6)
    pts = octahedron_points(rng)
    res = conway_gordon_check(pts)
    assert res.parity_sum == 1
    lk = res.linking_numbers[res.odd_pair]
    assert lk % 2 == 1
    # numeric cross-check of every pair
    for (t1, t2), val in res.linking_numbers.items():
        c1 = PolygonalCycle(tuple(pts[i] for i in t1))
        c2 = PolygonalCycle(tuple(pts[i] for i in t2))
        assert abs(gauss_linking_numeric(c1, c2) - val) < 1e-6


def test_conway_gordon_rejects_coplanar():
    pts = [point3(i, i * i, 0) for i in range(6)]
    with pytest.raises(DegeneratePosition):
        conway_gordon_check(pts)


def test_conway_gordon_parity_on_random_configurations():
    rng = random.Random(7)
    accepted = 0
    for _ in range(50):
        pts = [point3(Fraction(rng.randint(0, 64), 64),
                      Fraction(rng.randint(0, 64), 64),
                      Fraction(rng.randint(0, 64), 64)) for _ in range(6)]
        try:
            res = conway_gordon_check(pts)
        except DegeneratePosition:
            continue
        assert res.parity_sum == 1
        accepted += 1
    assert accepted >= 45


# ---------------------------------------------------------------------------
# linked pairs in subdivisions
# ---------------------------------------------------------------------------

def identity_k6_embedding():
    paths = {(i, j): [i, j] for i in range(6) for j in range(i + 1, 6)}
    return SubdivisionEmbedding(tuple(range(6)), paths)


def test_find_linked_pair_on_plain_k6():
    rng = random.Random(8)
    pts = octahedron_points(rng)
    g = Graph.from_edges(6, itertools.combinations(range(6), 2))
    d = SpatialDrawing(g, pts)
    pair = find_linked_pair(d, identity_k6_embedding())
    assert pair.lk % 2 == 1
    res = conway_gordon_check(pts)
    assert res.linking_numbers[tuple(sorted((pair.tri1, pair.tri2)))] % 2 == 1


def test_find_linked_pair_on_subdivided_k6():
    rng = random.Random(9)
    base = octahedron_points(rng)
    positions = list(base)
    paths = {}
    edges = []
    nxt = 6
    for i in range(6):
        for j in range(i + 1, 6):
            mid = tuple((base[i][c] + base[j][c]) / 2 for c in range(3))
            mid = tuple(mid[c] + Fraction(rng.randint(-3, 3), 2048)
                        for c in range(3))
            positions.append(mid)
            paths[(i, j)] = [i, nxt, j]
            edges += [(i, nxt), (nxt, j)]
            nxt += 1
    g = Graph.from_edges(nxt, edges)
    d = SpatialDrawing(g, positions)
    emb = SubdivisionEmbedding(tuple(range(6)), paths)
    pair = find_linked_pair(d, emb)
    assert pair.lk % 2 == 1
    assert len(pair.cycle1) == 6 and len(pair.cycle2) == 6


def test_find_linked_pair_rejects_broken_embedding():
    rng = random.Random(10)
    pts = octahedron_points(rng)
    g = Graph.from_edges(6, itertools.combinations(range(6), 2))
    d = SpatialDrawing(g, pts)
    emb = identity_k6_embedding()
    del emb.paths[(0, 1)]
    with pytest.raises(ValidationError):
        find_linked_pair(d, emb)


# ---------------------------------------------------------------------------
# transversals through cycles
# ---------------------------------------------------------------------------

def test_stacked_hopf_pairs_admit_transversal():
    cycles = list(stacked_pairs())
    indices, res = transversal_through_cycles(cycles)
    segs = [c.segments()[i] for c, i in zip(cycles, indices)]
    assert verify_transversal(res.line, segs) == res.params
    # the first met combination in product order
    firsts = itertools.product(*(range(len(c)) for c in cycles))
    assert all(not transversal_exists_segments(
        [c.segments()[i] for c, i in zip(cycles, idx)]).exists
        for idx in itertools.takewhile(lambda t: t != indices, firsts))


def test_linked_pairs_without_transversal_raise(monkeypatch):
    monkeypatch.setattr(linking, "_row_transversal", lambda *row: None)
    with pytest.raises(AssertionError, match="guarantee a transversal"):
        transversal_through_cycles(list(stacked_pairs()))


def _coplanar_triangles():
    tris = []
    for i in range(4):
        x = 3 * i
        tris.append(PolygonalCycle((point3(x, -1, 0), point3(x + 1, 1, 0),
                                    point3(x - 1, 1, 0))))
    return tris


def _far_triangles():
    rng = random.Random(11)
    tris = []
    for i in range(4):
        cx, cy, cz = 50 * i, 37 * i * i % 91, (13 * i) % 17
        pts = tuple(point3(Fraction(cx * 64 + rng.randint(-8, 8), 64),
                           Fraction(cy * 64 + rng.randint(-8, 8), 64),
                           Fraction(cz * 64 + rng.randint(-8, 8), 64))
                    for _ in range(3))
        tris.append(PolygonalCycle(pts))
    return tris


def test_four_coplanar_triangles_crossing_axis():
    assert transversal_through_cycles(_coplanar_triangles()) is not None


def test_far_unlinked_triangles_have_none():
    assert transversal_through_cycles(_far_triangles()) is None


def _shifted_stacked_pairs():
    """``stacked_pairs`` with the last cycle moved by a small vector whose
    denominators no other point has, so that each row's scale is a proper
    multiple of its head's."""
    *first, last = stacked_pairs()
    shift = (Fraction(1, 97), Fraction(-1, 89), Fraction(1, 83))
    return [*first, PolygonalCycle(tuple(v_add(p, shift)
                                         for p in last.points))]


def _brute_force_scan(cycles):
    """``transversal_through_cycles`` as a plain loop: the first row in
    ``itertools.product`` order that ``transversal_exists_segments`` meets,
    as (indices, repr of the result), or None."""
    seg_lists = [c.segments() for c in cycles]
    for indices in itertools.product(*(range(len(s)) for s in seg_lists)):
        res = transversal_exists_segments(
            [segs[i] for segs, i in zip(seg_lists, indices)])
        if res.exists:
            return indices, repr(res)
    return None


def _scan(cycles):
    found = transversal_through_cycles(cycles)
    return None if found is None else (found[0], repr(found[1]))


@pytest.mark.parametrize("cycles", [stacked_pairs, _shifted_stacked_pairs,
                                    _coplanar_triangles, _far_triangles])
def test_cycle_scan_matches_brute_force(cycles):
    cycles = list(cycles())
    assert _scan(cycles) == _brute_force_scan(cycles)


def test_cycle_scan_matches_brute_force_on_pipeline_quadruples(monkeypatch):
    quadruples = []

    def scan(cycles):
        quadruples.append(list(cycles))
        return transversal_through_cycles(cycles)

    monkeypatch.setattr(pipeline, "transversal_through_cycles", scan)
    for seed in range(7000, 7010):
        boost_witness_pipeline(random_drawing(40, 0.4, seed))
    assert len(quadruples) == 31
    for cycles in quadruples:
        assert _scan(cycles) == _brute_force_scan(cycles)
