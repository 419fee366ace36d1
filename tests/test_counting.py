import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spacecross import counting, generators, geometry
from spacecross.counting import (count_line_crossings, count_planar_crossings,
                                 enumerate_disjoint_tuples, lift_to_sphere)
from spacecross.drawing import Graph, SpatialDrawing
from spacecross.errors import ValidationError
from spacecross.geometry import (PluckerLine, Segment3, _incidence_quadratic,
                                 _int_triple, _plane, _trace, point3,
                                 transversal_exists_segments)
from spacecross.linking import PolygonalCycle
from spacecross.pipeline import (boost_witness_pipeline, hexgrid_construction,
                                 hexgrid_graph)


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def convex_drawing(n):
    # points on a parabola are in convex position
    return SpatialDrawing(complete_graph(n),
                          [point3(i, i * i, 0) for i in range(n)])


def disjoint_combinations(g, k):
    """Reference enumeration: k-subsets of edge indices, lexicographically,
    that are pairwise vertex-disjoint."""
    return [c for c in itertools.combinations(range(g.m), k)
            if len({v for i in c for v in g.edges[i]}) == 2 * k]


ENUMERATION_GRAPHS = [
    complete_graph(4), complete_graph(6), complete_graph(8), complete_graph(9),
    Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),      # m < 4
    Graph.from_edges(5, []),
    hexgrid_graph(1).graph,
]


def test_enumerate_disjoint_tuples_counts():
    assert sum(1 for _ in enumerate_disjoint_tuples(complete_graph(4), 4)) == 0
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    tuples = list(enumerate_disjoint_tuples(g, 4))
    assert tuples == [((0, 1), (2, 3), (4, 5), (6, 7))]
    assert sum(1 for _ in enumerate_disjoint_tuples(complete_graph(8), 4)) == 105
    assert sum(1 for _ in enumerate_disjoint_tuples(complete_graph(6), 3)) == 15
    for g in ENUMERATION_GRAPHS:
        for k in (3, 4):
            assert list(enumerate_disjoint_tuples(g, k)) == [
                tuple(g.edges[i] for i in c) for c in disjoint_combinations(g, k)]


def test_enumeration_is_lexicographic_and_disjoint(monkeypatch):
    g = complete_graph(8)
    seen = list(enumerate_disjoint_tuples(g, 4))
    assert seen == sorted(seen)
    for tup in seen:
        assert len({v for e in tup for v in e}) == 8
    for chunk in (counting._CHUNK, 3):
        monkeypatch.setattr(counting, "_CHUNK", chunk)
        for g in ENUMERATION_GRAPHS:
            for k in range(5):
                blocks = list(counting._disjoint_blocks(g, k))
                assert all(1 <= len(b) <= chunk and b.shape[1] == k
                           and seen == len(b) for b, seen in blocks)
                rows = [tuple(r) for b, _ in blocks for r in b.tolist()]
                assert rows == disjoint_combinations(g, k)


def test_join_keeps_the_tuples_whose_triples_are_all_feasible(monkeypatch):
    for chunk in (counting._CHUNK, 3):
        monkeypatch.setattr(counting, "_CHUNK", chunk)
        for g in ENUMERATION_GRAPHS:
            disjoint = disjoint_combinations(g, 4)
            for seed, p in ((0, 0.0), (1, 0.5), (2, 0.9), (3, 1.0)):
                feasible = np.random.default_rng(seed).random((g.m,) * 3) < p
                blocks = list(counting._disjoint_blocks(g, 4, feasible))
                assert all(len(b) <= chunk and b.shape[1] == 4
                           and (seen == len(b) or not len(b))
                           for b, seen in blocks)
                rows = [tuple(r) for b, _ in blocks for r in b.tolist()]
                assert rows == [
                    c for c in disjoint
                    if all(feasible[t] for t in itertools.combinations(c, 3))]
                assert sum(seen for _, seen in blocks) == len(disjoint)


def test_planar_crossings_examples():
    assert count_planar_crossings(convex_drawing(4)) == 1
    assert count_planar_crossings(convex_drawing(5)) == 5
    path = SpatialDrawing(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                          [point3(i, (-1) ** i, 0) for i in range(4)])
    assert count_planar_crossings(path) == 0


def test_planar_crossing_count_vs_bruteforce_pairs():
    rng = random.Random(3)
    for trial in range(5):
        n = 8
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.5])
        pts = [point3(Fraction(rng.randint(0, 128), 8),
                      Fraction(rng.randint(0, 128), 8), 0) for _ in range(n)]
        d = SpatialDrawing(g, pts)
        expect = 0
        for e1, e2 in itertools.combinations(g.edges, 2):
            if set(e1) & set(e2):
                continue
            s1 = d.edge_segments(e1)[0]
            s2 = d.edge_segments(e2)[0]
            res = transversal_exists_segments  # placeholder to keep names used
            from spacecross.geometry import segments_intersect_2d
            a = ((s1.p[0], s1.p[1]), (s1.q[0], s1.q[1]))
            b = ((s2.p[0], s2.p[1]), (s2.q[0], s2.q[1]))
            if segments_intersect_2d(a, b) == "crossing":
                expect += 1
        assert count_planar_crossings(d) == expect


def test_planar_requires_flat_straight():
    g = Graph.from_edges(2, [(0, 1)])
    d = SpatialDrawing(g, [point3(0, 0, 0), point3(1, 0, 1)])
    with pytest.raises(ValidationError):
        count_planar_crossings(d)


def test_count_k4_always_zero():
    d = convex_drawing(4)
    assert count_line_crossings(d, 4).count == 0


def test_four_edges_through_axis_counts_once_with_witness():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    pts = []
    for i, (n, dd) in enumerate([(0, 1), (1, 2), (1, 1), (2, 1)], start=1):
        s = n * n + dd * dd
        c, sn = Fraction(dd * dd - n * n, s), Fraction(2 * n * dd, s)
        pts += [point3(c, sn, i), point3(-c, -sn, i)]
    d = SpatialDrawing(g, pts)
    rep = count_line_crossings(d, 4, want_witnesses=True)
    assert rep.count == 1
    w = rep.witnesses[0]
    assert len(w.edges) == 4
    segs = [d.edge_segments(e)[0] for e in w.edges]
    assert transversal_exists_segments(segs).exists


def oracle_count(d, k):
    """Tuples with a transversal through some choice of one segment per
    edge, decided by the exact predicate alone."""
    return sum(
        1 for tup in enumerate_disjoint_tuples(d.graph, k)
        if any(transversal_exists_segments(list(segs)).exists
               for segs in itertools.product(*map(d.edge_segments, tup))))


def sphere_lifted_drawing(seed, subdivision=2, n=9, p=0.4):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < p])
    pts = [point3(Fraction(rng.randint(0, 256), 16),
                  Fraction(rng.randint(0, 256), 16), 0) for _ in range(n)]
    return lift_to_sphere(SpatialDrawing(g, pts), subdivision, seed=seed)


def polyline_drawing(seed, n=8, p=0.6):
    """Random 3-D drawing whose edges bend once at a random interior point."""
    rng = random.Random(seed)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < p])
    pts = [point3(*(Fraction(rng.randint(0, 64), 16) for _ in range(3)))
           for _ in range(n)]
    bends = {(u, v): [tuple((a + b) / 2 + Fraction(rng.randint(-32, 32), 16)
                            for a, b in zip(pts[u], pts[v]))]
             for u, v in g.edges}
    return SpatialDrawing(g, pts, bends)


def overshooting_drawing():
    """Edge (0, 1) bends at (5, 0, 1/1000), far past the end of its chord
    from (0, 0, 0) to (1, 0, 0), and the line L(s) through (3, 0, 3/5000)
    meets it there; edges (2, 3), (4, 5), (6, 7) cross L at s = 2, 4, 6."""
    base, direction = (3, 0, Fraction(3, 5000)), (Fraction(1, 2), 1, -1)
    pts = [point3(0, 0, 0), point3(1, 0, 0)]
    for s, dv in ((2, (Fraction(1, 8), 0, 0)),
                  (4, (Fraction(1, 8), Fraction(1, 8), 0)),
                  (6, (Fraction(1, 8), 0, Fraction(1, 8)))):
        c = [b + s * t for b, t in zip(base, direction)]
        pts += [point3(*(x - y for x, y in zip(c, dv))),
                point3(*(x + y for x, y in zip(c, dv)))]
    return SpatialDrawing(Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
                          pts, {(0, 1): [point3(5, 0, Fraction(1, 1000))]})


def test_count_matches_direct_oracle_on_k8():
    rng = random.Random(7)
    drawings = []
    for trial in range(3):
        pts = [point3(Fraction(rng.randint(0, 64), 64),
                      Fraction(rng.randint(0, 64), 64),
                      Fraction(rng.randint(0, 64), 64)) for _ in range(8)]
        drawings.append(SpatialDrawing(complete_graph(8), pts))
    drawings += [sphere_lifted_drawing(1), polyline_drawing(1),
                 overshooting_drawing()]
    for d in drawings:
        oracle = oracle_count(d, 4)
        assert count_line_crossings(d, 4).count == oracle
        assert count_line_crossings(d, 4, prefilter=False).count == oracle


def near_degenerate_lifted_drawing():
    """Four lifted edges whose quadruple is close to co-spherical."""
    lifted = sphere_lifted_drawing(1, subdivision=3)
    keep = [(1, 3), (2, 4), (5, 6), (7, 8)]
    return SpatialDrawing(Graph.from_edges(9, keep), lifted.positions,
                          {e: lifted.polylines[e] for e in keep})


def test_sphere_lift_keeps_near_degenerate_crossing():
    # the lifted quadruple is close to co-spherical and its only
    # transversal passes through segment combination (2, 0, 1, 2)
    rep = count_line_crossings(near_degenerate_lifted_drawing(), 4,
                               want_witnesses=True)
    assert rep.count == 1
    assert [c[1] for c in rep.witnesses[0].contacts] == [2, 0, 1, 2]


def test_count_k3_mode():
    rng = random.Random(11)
    pts = [point3(Fraction(rng.randint(0, 64), 64),
                  Fraction(rng.randint(0, 64), 64),
                  Fraction(rng.randint(0, 64), 64)) for _ in range(6)]
    d = SpatialDrawing(complete_graph(6), pts)
    rep = count_line_crossings(d, 3)
    oracle = sum(
        1 for tup in enumerate_disjoint_tuples(d.graph, 3)
        if transversal_exists_segments(
            [d.edge_segments(e)[0] for e in tup]).exists)
    assert rep.count == oracle


def _segment_drawing(pairs):
    """Each (p, q) endpoint pair as its own edge (2i, 2i + 1)."""
    pos = [p for pair in pairs for p in pair]
    return SpatialDrawing(
        Graph.from_edges(len(pos), [(2 * i, 2 * i + 1) for i in range(len(pairs))]),
        pos)


def near_coplanar_drawing(seed, n_segments=6):
    """Segments through seeded points of the line y = x/2 + 1 in z = 0,
    tilted out of that plane by +-2^-e, e in 10..40."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_segments):
        x = Fraction(rng.randint(-64, 64), 8)
        c = (x, x / 2 + 1, Fraction(0))
        v = (Fraction(rng.randint(-32, 32), 16), Fraction(rng.randint(-32, 32), 16),
             Fraction(rng.choice((-1, 1)), 2 ** rng.randint(10, 40)))
        a, b = Fraction(rng.randint(1, 8), 8), Fraction(rng.randint(1, 8), 8)
        pairs.append((tuple(ci + a * vi for ci, vi in zip(c, v)),
                      tuple(ci - b * vi for ci, vi in zip(c, v))))
    return _segment_drawing(pairs)


def test_near_coplanar_crossings_are_counted():
    # an exact transversal meets these four at params 5/8, 1, 1, 1, but in
    # doubles their regulus quadratic loses its t^2 and t terms to
    # rounding, so no float margin on it may reject the tuple
    F = Fraction
    fixture = _segment_drawing([
        ((F(-75, 16), F(95, 16), F(-35, 2 ** 20)),
         (F(-125, 16), F(141, 16), F(21, 2 ** 20))),
        ((F(-2369, 256), F(2015, 256), F(1, 2 ** 17)),
         (F(-1889, 256), F(2239, 256), F(0))),
        ((F(-161, 32), F(221, 32), F(1, 2 ** 17)),
         (F(-145, 32), F(155, 32), F(0))),
        ((F(-477, 256), F(931, 256), F(0)),
         (F(-701, 256), F(611, 256), F(0))),
    ])
    # in the corpus one line meets every segment, so all C(6, 4) tuples cross
    cases = [(fixture, 1)] + [(near_coplanar_drawing(s), 15) for s in range(32)]
    for i, (d, expect) in enumerate(cases):
        assert count_line_crossings(d, 4).count == expect, i
        assert count_line_crossings(d, 4, prefilter=False).count == expect, i


def test_affine_invariance_of_count():
    rng = random.Random(17)
    pts = [point3(Fraction(rng.randint(0, 32), 32),
                  Fraction(rng.randint(0, 32), 32),
                  Fraction(rng.randint(0, 32), 32)) for _ in range(8)]
    d = SpatialDrawing(complete_graph(8), pts)
    base = count_line_crossings(d, 4).count

    def apply(p):
        return point3(2 * p[0] + p[1] + Fraction(1, 3),
                      p[1] - p[2] + 1,
                      p[0] + 3 * p[2])

    d2 = SpatialDrawing(d.graph, [apply(p) for p in pts])
    assert count_line_crossings(d2, 4).count == base


# ---------------------------------------------------------------------------
# sphere lift
# ---------------------------------------------------------------------------

def test_lift_points_lie_exactly_on_sphere():
    d = convex_drawing(4)
    lifted = lift_to_sphere(d, 4)
    xs = [p[0] for p in d.positions]
    ys = [p[1] for p in d.positions]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    radius = 2 ** 16 * ((max(xs) - min(xs)) + (max(ys) - min(ys)))
    for p in lifted.positions:
        r2 = (p[0] - cx) ** 2 + (p[1] - cy) ** 2 + (p[2] - radius) ** 2
        assert r2 == radius * radius


def test_lift_crossing_free_drawing_has_no_space_crossings():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    pts = [point3(i % 4, i // 4, 0) for i in range(8)]
    d = SpatialDrawing(g, pts)
    assert count_planar_crossings(d) == 0
    lifted = lift_to_sphere(d, 4)
    assert count_line_crossings(lifted, 4).count == 0


def test_lift_k4_single_crossing_gives_zero():
    d = convex_drawing(4)
    assert count_planar_crossings(d) == 1
    lifted = lift_to_sphere(d, 8)
    assert count_line_crossings(lifted, 4).count == 0


def test_lift_k5_recorded_value():
    d = convex_drawing(5)
    cr = count_planar_crossings(d)
    assert cr == 5
    lifted = lift_to_sphere(d, 8)
    space = count_line_crossings(lifted, 4).count
    assert space <= cr * (cr - 1) // 2
    # no vertex-disjoint quadruple exists on five vertices at all
    assert space == 0


def test_lift_bound_on_random_crossing_drawings():
    rng = random.Random(23)
    done = 0
    for seed in range(10):
        rng2 = random.Random(seed)
        n = 8
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng2.random() < 0.35])
        if g.m < 4:
            continue
        pts = [point3(Fraction(rng2.randint(0, 256), 16),
                      Fraction(rng2.randint(0, 256), 16), 0)
               for _ in range(n)]
        d = SpatialDrawing(g, pts)
        cr = count_planar_crossings(d)
        lifted = lift_to_sphere(d, 8)
        space = count_line_crossings(lifted, 4).count
        assert space <= cr * (cr - 1) // 2
        done += 1
    assert done >= 5


def test_lift_determinism():
    d = convex_drawing(4)
    a = lift_to_sphere(d, 4, seed=5)
    b = lift_to_sphere(d, 4, seed=5)
    c = lift_to_sphere(d, 4, seed=6)
    assert a.polylines == b.polylines
    assert a.polylines != c.polylines


# ---------------------------------------------------------------------------
# parity with recorded witnesses
# ---------------------------------------------------------------------------

def bundle_drawing(seed, match=(4, 2, 5, 0, 3, 1)):
    """Six vertex-disjoint segments; segment t joins a point of cell t of a
    3x2 grid near z = 0 to a point of cell match[t] near z = 2."""
    rng = random.Random(seed)
    pts = []
    for t, top in enumerate(match):
        for cell, z in ((t, 0), (top, 2)):
            pts.append(point3(cell % 3 + Fraction(rng.randint(1, 3), 4),
                              cell // 3 + Fraction(rng.randint(1, 3), 4),
                              z + Fraction(rng.randint(0, 1), 8)))
    return SpatialDrawing(Graph.from_edges(12, [(2 * t, 2 * t + 1)
                                                for t in range(6)]), pts)


def small_lifted_drawing(seed=1, n=8):
    rng = random.Random(seed)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < 0.5])
    pts = [point3(Fraction(rng.randint(0, 16), 4),
                  Fraction(rng.randint(0, 16), 4), 0) for _ in range(n)]
    return lift_to_sphere(SpatialDrawing(g, pts), 2, seed=seed)


def _witness_digest(rep):
    """Digest of the exact witness lines and contact parameters, types
    included (the lifted lines run to thousands of digits)."""
    text = repr([(w.line.direction, w.line.moment, [c[2] for c in w.contacts])
                 for w in rep.witnesses])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_Q = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11))
_B = {name: (_Q[a], _Q[b], _Q[c], _Q[d]) for name, (a, b, c, d) in {
    "0135": (0, 1, 3, 5), "0145": (0, 1, 4, 5), "0235": (0, 2, 3, 5),
    "0245": (0, 2, 4, 5), "2345": (2, 3, 4, 5)}.items()}

# drawing, then (edges, segment indices) of each witness and the digest
WITNESS_PARITY = [
    (lambda: bundle_drawing(0),
     [(_B[k], [0, 0, 0, 0]) for k in ("0135", "0145", "0235", "0245")],
     "2777521a341c4dd2"),
    (lambda: bundle_drawing(1),
     [(_B[k], [0, 0, 0, 0]) for k in ("0145", "0235", "2345")],
     "5f5412499a555ac4"),
    (lambda: bundle_drawing(2),
     [(_B[k], [0, 0, 0, 0]) for k in ("0135", "0235")],
     "6d9a6ec06db3d435"),
    (lambda: bundle_drawing(3),
     [(_B[k], [0, 0, 0, 0]) for k in ("0135", "0145", "0235", "0245")],
     "b7cc25f1cb0f9a16"),
    (small_lifted_drawing,
     [(((0, 5), (1, 3), (2, 4), (6, 7)), [1, 0, 0, 1]),
      (((0, 6), (1, 3), (2, 4), (5, 7)), [0, 1, 0, 0]),
      (((0, 6), (1, 4), (2, 3), (5, 7)), [1, 0, 1, 1])],
     "d4107c621823ab7e"),
]


@pytest.mark.parametrize("case", range(len(WITNESS_PARITY)))
def test_witnesses_match_recorded_values(case):
    make, witnesses, digest = WITNESS_PARITY[case]
    d = make()
    rep = count_line_crossings(d, 4, want_witnesses=True)
    assert rep.count == len(witnesses)
    assert [(w.edges, [c[1] for c in w.contacts])
            for w in rep.witnesses] == witnesses
    assert _witness_digest(rep) == digest
    assert count_line_crossings(d, 4, prefilter=False).count == rep.count


# a straight random drawing, random_drawing(14, .5, seed=1): every counted
# row is certified in the kernel's skew branch.  k, then the count and the
# digest of the lines and contacts
STRAIGHT_WITNESSES = [
    (4, 1214, "25255dc42d1e57ea"),
    (3, 2565, "e7ee7b1d93c98584"),
]


@pytest.mark.parametrize("k, count, digest", STRAIGHT_WITNESSES)
def test_straight_witnesses_match_recorded_values(k, count, digest):
    rep = count_line_crossings(generators.random_drawing(14, .5, seed=1), k,
                               want_witnesses=True)
    assert (rep.count, _witness_digest(rep)) == (count, digest)


# flat random drawings: every row goes to the degenerate case analysis.
# (n, k), then the count and the digest of edges, line and contacts
FLAT_WITNESSES = [
    ((8, 3), 32, "8e5efc3e45012414"),
    ((10, 3), 181, "a5ed2c6c649896da"),
    ((10, 4), 72, "d4116767bf2f9fe6"),
]


@pytest.mark.parametrize("case", range(len(FLAT_WITNESSES)))
def test_flat_witnesses_match_recorded_values(case):
    (n, k), count, digest = FLAT_WITNESSES[case]
    rep = count_line_crossings(generators.random_drawing(n, .5, 0, flat=True),
                               k, want_witnesses=True)
    assert rep.count == count
    text = repr([(w.edges, w.line.direction, w.line.moment, w.contacts)
                 for w in rep.witnesses])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_witness_lines_pass_the_full_pluecker_check(monkeypatch):
    """``_public_line`` checks a certified line on the kernel's integers;
    on every parity and pipeline witness its line is the one that
    ``PluckerLine`` builds with its own checks."""
    checked = {}
    public_line = geometry._public_line

    def full_check(line, t, scale):
        public = public_line(line, t, scale)
        da, db, ma, mb = line
        hh = t.h * t.h
        full = PluckerLine(
            tuple(t.scalar(a, b, hh) for a, b in zip(da, db)),
            tuple(t.scalar(a, b, hh * scale) for a, b in zip(ma, mb)))
        assert repr(public) == repr(full)
        checked[id(public)] = public
        return public

    monkeypatch.setattr(geometry, "_public_line", full_check)
    witnesses = []
    for make, _, _ in WITNESS_PARITY:
        witnesses += count_line_crossings(make(), 4,
                                          want_witnesses=True).witnesses
    for seed in range(3):
        witnesses += boost_witness_pipeline(generators.four_k6_drawing(seed))
    for seed in (7000, 7001, 7002):
        witnesses += boost_witness_pipeline(
            generators.random_drawing(40, 0.4, seed))
    assert len(witnesses) == 30
    assert all(id(w.line) in checked for w in witnesses)


# ---------------------------------------------------------------------------
# the filter funnel: stages, certified rejections, error bound, huge values
# ---------------------------------------------------------------------------

STAGES = ["enumerate", "tuple_filter", "certified_filter", "exact"]


@pytest.mark.parametrize("k,prefilter", [(4, True), (4, False), (3, True)])
def test_stages_chain_from_tuples_to_count(k, prefilter):
    for d in (small_lifted_drawing(), bundle_drawing(0), polyline_drawing(1)):
        rep = count_line_crossings(d, k, prefilter=prefilter)
        assert [s[0] for s in rep.stages] == STAGES
        for (_, _, rows_out, _), (_, rows_in, _, _) in zip(rep.stages,
                                                           rep.stages[1:]):
            assert rows_out == rows_in
        assert all(rows_in >= rows_out >= 0 and seconds >= 0
                   for _, rows_in, rows_out, seconds in rep.stages)
        assert rep.stages[0][1] == math.comb(d.graph.m, k)
        assert rep.stages[0][2] == rep.tuples_total
        assert rep.stages[1][2] == rep.tuples_after_prefilter
        assert rep.stages[-1][2] == rep.count
        if not prefilter:
            assert rep.stages[0][2] == rep.stages[-1][1]


def test_count_is_independent_of_block_size(monkeypatch):
    drawings = [small_lifted_drawing(), polyline_drawing(1), bundle_drawing(0)]
    for k in (3, 4):
        for d in drawings:
            reps = []
            for chunk in (counting._CHUNK, 3):
                monkeypatch.setattr(counting, "_CHUNK", chunk)
                reps.append(count_line_crossings(d, k, want_witnesses=True))
            a, b = reps
            assert (a.count, a.tuples_total, a.tuples_after_prefilter) == \
                (b.count, b.tuples_total, b.tuples_after_prefilter)
            assert _witness_digest(a) == _witness_digest(b)


def certified_decisions(d, want_witnesses=True):
    """Segment combinations the certified filter rejects and accepts while
    d is counted (k = 4), as lists of segments, and the report."""
    segments = [s for e in d.graph.edges for s in d.edge_segments(e)]
    blocks, rejected, accepted = [], [], []
    combinations, decide = (counting._segment_combinations,
                            counting._certified_decide)

    def recorded_combinations(*args):
        for t, segs in combinations(*args):
            blocks.append(segs)
            yield t, segs

    def recorded_decide(P, Q):
        out = decide(P, Q)
        for rows, mask in ((rejected, out < 0), (accepted, out > 0)):
            rows.extend([segments[i] for i in row]
                        for row in blocks[-1][mask].tolist())
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_segment_combinations", recorded_combinations)
        mp.setattr(counting, "_certified_decide", recorded_decide)
        rep = count_line_crossings(d, 4, want_witnesses=want_witnesses)
    return rep, rejected, accepted


# drawing, and its (count, tuples_total) where the all-exact count is too
# slow to compare with (466,288 exact calls for the hexgrid)
AUDIT_CORPUS = (
    [(make, None) for make, _, _ in WITNESS_PARITY]
    + [(lambda s=s: near_coplanar_drawing(s), None) for s in range(32)]
    + [(lambda: sphere_lifted_drawing(1), None),
       (near_degenerate_lifted_drawing, None),
       (lambda: hexgrid_construction(1, 2).drawing, (0, 29143))])


@pytest.mark.parametrize("case", range(len(AUDIT_CORPUS)))
def test_certified_rejections_have_no_transversal(case):
    make, recorded = AUDIT_CORPUS[case]
    d = make()
    rep, rejected, _ = certified_decisions(d)
    # the hexgrid rejects about 25,000 rows; every third keeps this quick
    stride = 3 if len(rejected) > 5000 else 1
    for row in rejected[::stride]:
        assert transversal_exists_segments(row).exists is False
    if recorded:
        assert (rep.count, rep.tuples_total) == recorded
        return
    exact = count_line_crossings(d, 4, want_witnesses=True, prefilter=False)
    assert (rep.count, rep.tuples_total) == (exact.count, exact.tuples_total)
    assert _witness_digest(rep) == _witness_digest(exact)


@pytest.mark.parametrize("case", range(len(AUDIT_CORPUS)))
def test_certified_acceptances_have_a_transversal(case):
    make, recorded = AUDIT_CORPUS[case]
    d = make()
    rep, _, accepted = certified_decisions(d, want_witnesses=False)
    for row in accepted:
        assert transversal_exists_segments(row).exists is True
    if recorded:
        assert (rep.count, rep.tuples_total) == recorded
        return
    exact = count_line_crossings(d, 4, prefilter=False)
    assert (rep.count, rep.tuples_total) == (exact.count, exact.tuples_total)


def recorded_filters(d):
    """The (P, Q, answers) blocks of the certified filter and the six
    per-edge arrays that the tuple stage reads, while d is counted (k = 4)."""
    blocks, arrays = [], []
    decide, test = counting._certified_decide, counting._triple_filter

    def recorded_decide(P, Q):
        out = decide(P, Q)
        blocks.append((P, Q, out))
        return out

    def recorded_test(idx, *edge_arrays):
        if not arrays:
            arrays.extend(edge_arrays)
        return test(idx, *edge_arrays)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_certified_decide", recorded_decide)
        mp.setattr(counting, "_triple_filter", recorded_test)
        count_line_crossings(d, 4)
    return blocks, arrays


@pytest.mark.parametrize("case", range(len(AUDIT_CORPUS)))
def test_certified_answers_do_not_depend_on_the_block(case):
    # the filter drops settled rows between its steps and reorders the
    # lines of some rows; a slip there would tie a row's answer to the
    # other rows of its block.  A row alone takes about 2 ms, and the
    # hexgrid rejects about 24,000: every 40th of those, and every row it
    # does not reject
    make, recorded = AUDIT_CORPUS[case]
    stride = 40 if recorded else 1
    for P, Q, out in recorded_filters(make())[0]:
        for i in range(len(out)):
            if out[i] >= 0 or i % stride == 0:
                alone = counting._certified_decide(P[i:i + 1], Q[i:i + 1])
                assert alone[0] == out[i], i


def lifted_grid(seed, rows=4, cols=4):
    """A rows x cols grid graph in z = 0 whose vertices are moved by
    seeded multiples of 1/256, lifted with two segments per edge."""
    rng = random.Random(seed)
    pts = [point3(i + Fraction(rng.randint(-32, 32), 256),
                  j + Fraction(rng.randint(-32, 32), 256), 0)
           for i in range(rows) for j in range(cols)]
    edges = ([(i * cols + j, i * cols + j + 1)
              for i in range(rows) for j in range(cols - 1)]
             + [(i * cols + j, (i + 1) * cols + j)
                for i in range(rows - 1) for j in range(cols)])
    return lift_to_sphere(SpatialDrawing(Graph.from_edges(rows * cols, edges),
                                         pts), 2, seed=seed)


def bent_drawing(seed, n=9, p=0.5):
    """Random 3-D drawing whose edges bend 0 to 3 times."""
    rng = random.Random(seed)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                             if rng.random() < p])

    def point():
        return point3(*(Fraction(rng.randint(-64, 64), rng.randint(1, 9))
                        for _ in range(3)))
    return SpatialDrawing(g, [point() for _ in range(n)],
                          {e: [point() for _ in range(rng.randint(0, 3))]
                           for e in g.edges})


def reference_edge_arrays(d):
    """``counting._edge_arrays`` computed one edge at a time, from the float
    ends of that edge's segments: the one-pass form must equal it bit for
    bit."""
    per_edge = []
    for e in d.graph.edges:
        segs = d.edge_segments(e)
        p, q = (np.array([[counting._to_float(c) for c in getattr(s, end)]
                          for s in segs]) for end in "pq")
        pts = np.vstack([p, q])
        with np.errstate(all="ignore"):
            center = (pts.min(axis=0) + pts.max(axis=0)) / 2
            radius = float(np.linalg.norm(pts - center, axis=1).max())
            cp, cq = p[0], q[-1]
            axis = cq - cp
            alen = float(np.linalg.norm(axis))
            width = 0.0
            if alen > 0 and len(segs) > 1:
                diffs = pts - cp
                t = np.clip(diffs @ axis / (alen * alen), 0.0, 1.0)
                width = float(np.linalg.norm(diffs - np.outer(t, axis),
                                             axis=1).max())
        per_edge.append((p, q, bool(np.isfinite(pts).all()), center,
                         radius * (1 + 1e-9) + 1e-12, cp, cq,
                         width * (1 + 1e-9) + 1e-12))
    p, q, *arrays = zip(*per_edge)
    return (np.vstack(p), np.vstack(q), np.cumsum([0] + [len(x) for x in p]),
            tuple(np.array(a) for a in arrays))


@pytest.mark.parametrize("make", [
    overshooting_drawing, lambda: polyline_drawing(1), lambda: lifted_grid(1),
    lambda: sphere_lifted_drawing(2, subdivision=3),
    lambda: moved(bent_drawing(0), Fraction(1, 2 ** 40), 10 ** 9),
    lambda: hexgrid_construction(1, 2).drawing,
    *(lambda s=s: bent_drawing(s) for s in range(4))], ids=[
    "overshooting", "polyline", "lifted_grid", "subdivision_3", "moved",
    "hexgrid_1_2", *(f"bent_{s}" for s in range(4))])
def test_edge_arrays_equal_the_edge_by_edge_reference(make):
    d = make()
    seg_p, seg_q, first, arrays = counting._edge_arrays(d)
    ref_p, ref_q, ref_first, ref_arrays = reference_edge_arrays(d)
    assert first.tolist() == ref_first.tolist()
    for got, ref in zip((seg_p, seg_q, *arrays), (ref_p, ref_q, *ref_arrays)):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()


def filter_digests(d):
    """sha256 prefixes of the certified filter's answers and of the six
    per-edge arrays that the tuple stage reads, while d is counted (k = 4)."""
    blocks, arrays = recorded_filters(d)
    answers, edges = hashlib.sha256(), hashlib.sha256()
    for _, _, out in blocks:
        answers.update(out.tobytes())
    for a in arrays:
        edges.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return answers.hexdigest()[:16], edges.hexdigest()[:16]


# drawing, then the digests of ``filter_digests``.  The values are float64
# results of numpy's elementwise operations and, for the chord widths of
# polyline edges, of its BLAS dot and matrix-vector products
FILTER_DIGESTS = [
    (lambda: lifted_grid(0), ("e5b1a2f18106628e", "96ac48e9c072d6d0")),
    (lambda: hexgrid_construction(1, 2).drawing,
     ("42e85b4c7eff2263", "56159859ad6cb704")),
] + [(lambda s=s: near_coplanar_drawing(s), digests) for s, digests in (
    (0, ("69801b353a8f248b", "9432bcdc7e31ca7f")),
    (1, ("86caca7279c2dbdc", "8d11225e24321788")),
    (2, ("214b6ed4a752760b", "8d21510a30a2a858")),
    (3, ("69801b353a8f248b", "4f5801f1b545e653")))]


@pytest.mark.parametrize("case", range(len(FILTER_DIGESTS)))
def test_filter_answers_and_edge_arrays_match_recorded_digests(case):
    make, digests = FILTER_DIGESTS[case]
    assert filter_digests(make()) == digests


def triple_rejections(d):
    """Edge triples that the tuple stage rejects while d is counted (k = 3),
    each as the list of its segment combinations, and the report."""
    rejected = []
    test = counting._triple_filter

    def recorded_test(idx, *arrays):
        keep = test(idx, *arrays)
        rejected.extend(idx[~keep].tolist())
        return keep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_triple_filter", recorded_test)
        rep = count_line_crossings(d, 3)
    edges = [d.edge_segments(e) for e in d.graph.edges]
    return rep, [list(itertools.product(*(edges[i] for i in row)))
                 for row in rejected]


# AUDIT_CORPUS with the hexgrids' k = 3 (count, tuples_total), which the
# all-exact count gives in 40,000 exact calls for subdivision 2
TRIPLE_AUDIT_CORPUS = (
    [(make, None) for make, recorded in AUDIT_CORPUS if recorded is None]
    + [(lambda s=s: hexgrid_construction(1, s).drawing, (60, 5259))
       for s in (1, 2)])


@pytest.mark.parametrize("case", range(len(TRIPLE_AUDIT_CORPUS)))
def test_triple_rejections_have_no_transversal(case):
    # a 4-tuple with a rejected triple is never grown, so this covers k = 4
    make, recorded = TRIPLE_AUDIT_CORPUS[case]
    d = make()
    rep, rejected = triple_rejections(d)
    # the hexgrids reject about 3,500 triples; every third keeps this quick
    stride = 3 if len(rejected) > 1000 else 1
    for combinations in rejected[::stride]:
        assert not any(transversal_exists_segments(list(segs)).exists
                       for segs in combinations)
    if recorded:
        assert (rep.count, rep.tuples_total) == recorded
        return
    exact = count_line_crossings(d, 3, prefilter=False)
    assert (rep.count, rep.tuples_total) == (exact.count, exact.tuples_total)


small = st.integers(-4, 4)


@st.composite
def near_degenerate_segments(draw):
    """Four segments with small integer endpoints in a special position
    (coplanar, concurrent, parallel, or ending on one line), each endpoint
    coordinate then moved by -1, 0 or 1 times 2^-e."""
    kind = draw(st.sampled_from(["coplanar", "concurrent", "parallel", "ends"]))
    vec = st.tuples(small, small, small)
    base, axis = draw(vec), draw(vec)
    assume(any(axis))
    pairs = []
    for i in range(4):
        a, b = draw(small), draw(small)
        if kind == "coplanar":
            p, q = draw(vec)[:2] + (0,), draw(vec)[:2] + (0,)
        elif kind == "concurrent":
            v = draw(vec)
            p = tuple(o + a * x for o, x in zip(base, v))
            q = tuple(o + b * x for o, x in zip(base, v))
        elif kind == "parallel":
            p = draw(vec)
            q = tuple(x + b * y for x, y in zip(p, axis))
        else:
            p = draw(vec)
            q = tuple(o + i * x for o, x in zip(base, axis))
        pairs.append((p, q))
    e = draw(st.integers(1, 60))
    tilt = st.sampled_from([-1, 0, 1])
    segs = []
    for p, q in pairs:
        p = tuple(Fraction(x) + Fraction(draw(tilt), 2 ** e) for x in p)
        q = tuple(Fraction(x) + Fraction(draw(tilt), 2 ** e) for x in q)
        assume(p != q)
        segs.append(Segment3(p, q))
    return segs


def decide_row(segs):
    """``_certified_decide`` on one row of four segments."""
    P, Q = (np.array([[[counting._to_float(c) for c in getattr(s, end)]
                       for s in segs]]) for end in "pq")
    return counting._certified_decide(P, Q)[0]


@given(near_degenerate_segments())
@settings(max_examples=300, deadline=None)
def test_certified_rejection_implies_no_transversal(segs):
    if decide_row(segs) < 0:
        assert transversal_exists_segments(segs).exists is False


@given(near_degenerate_segments())
@settings(max_examples=300, deadline=None)
def test_certified_acceptance_implies_a_transversal(segs):
    if decide_row(segs) > 0:
        assert transversal_exists_segments(segs).exists is True


def mixed_floats(rng, size):
    """float64 values of both signs and many magnitudes, with +-0, +-1e-300
    and +-1e30 among them."""
    x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    pick = rng.random(size) < 0.3
    x[pick] = rng.choice([0.0, -0.0, 1e-300, -1e-300, 1e30, -1e30], pick.sum())
    return x


def random_approx(rng, size, exact=False):
    """An ``_Approx`` of ``mixed_floats``: v of both signs and 0 <= a <= b;
    an exact constant (c, |c|, |c|) of floats when ``exact``."""
    if exact:
        c = float(mixed_floats(rng, 1)[0])
        return counting._Approx(c, abs(c), abs(c), 0)
    a = np.abs(mixed_floats(rng, size))
    return counting._Approx(mixed_floats(rng, size), a,
                            a + np.abs(mixed_floats(rng, size)),
                            int(rng.integers(0, 40)))


def same_bytes(x, ref):
    v, a, b, n = ref
    assert x.n == n
    for got, want in zip((x.v, x.a, x.b), (v, a, b)):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_ring_operations_act_componentwise():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = random_approx(rng, 97)
        for y in (random_approx(rng, 97), random_approx(rng, 97, exact=True),
                  counting._ONE, counting._TWO, counting._FOUR,
                  -counting._ONE):
            n = max(x.n, y.n) + 1
            same_bytes(x * y, (x.v * y.v, x.a * y.a, x.b * y.b, x.n + y.n + 1))
            same_bytes(y * x, (y.v * x.v, y.a * x.a, y.b * x.b, x.n + y.n + 1))
            same_bytes(x + y, (x.v + y.v, x.a + y.a, x.b + y.b, n))
            same_bytes(x - y, (x.v - y.v, x.a + y.a, x.b + y.b, n))
            same_bytes(y - x, (y.v - x.v, y.a + x.a, y.b + x.b, n))
        same_bytes(-x, (-x.v, x.a, x.b, x.n))


def test_sign_threshold_matches_the_formula():
    rng = np.random.default_rng(12)
    for _ in range(50):
        y = random_approx(rng, 97)
        y.v[:3] = np.nan, np.inf, -np.inf
        y.b[3] = np.inf
        err = ((y.b - y.a) + (y.n + 2) * counting._ERR_UNIT * y.b
               + counting._ERR_TINY)
        want = (y.v > err).astype(np.int8) - (y.v < -err).astype(np.int8)
        assert y.sign().tobytes() == want.tobytes()
        assert not y.sign()[[0, 3]].any()


def random_program(rng, rows, inputs=6, steps=60):
    """The values of a random program of sums, differences, products and
    negations on ``_Approx`` inputs below 1 with relative errors of 2^-52
    to 2^-20, each with its exact value per row, the program run on exact
    inputs anywhere within the errors."""
    A = counting._Approx
    pool = []
    for _ in range(inputs):
        x = rng.uniform(-1, 1, rows) * 2.0 ** rng.integers(-30, 1, rows)
        e = np.abs(x) * 2.0 ** rng.integers(-52, -19, rows)
        pool.append((A(x, np.abs(x), np.abs(x) + e, 0), [
            Fraction(xi) + Fraction(ei) * Fraction(int(k), 64)
            for xi, ei, k in zip(x, e, rng.integers(-64, 65, rows))]))
    ops = [(lambda x, y: x + y), (lambda x, y: x - y), (lambda x, y: x * y),
           (lambda x, y: -x)]
    for _ in range(steps):
        (x, ex), (y, ey) = (pool[i] for i in rng.integers(0, len(pool), 2))
        op = ops[rng.integers(0, len(ops))]
        z = op(x, y)
        if z.n <= 40:       # the filter's programs stay within 40 roundings
            pool.append((z, [op(p, q) for p, q in zip(ex, ey)]))
    return pool


def test_random_programs_keep_their_exact_values_within_the_threshold():
    # b >= a holds in floats, as rounding is monotone; the threshold of
    # ``sign`` bounds how far v is from the exact value, so a value less
    # its exact value, rounded and taken as one more input, has no
    # certain sign
    rng = np.random.default_rng(15)
    for _ in range(8):
        for z, exact in random_program(rng, 24):
            assert (z.b >= z.a).all()
            err = ((z.b - z.a) + (z.n + 2) * counting._ERR_UNIT * z.b
                   + counting._ERR_TINY)
            for v, t, want in zip(z.v, err, exact):
                assert abs(Fraction(v) - want) <= Fraction(t)
            f = np.array([float(w) for w in exact])
            rounded = counting._Approx(f, np.abs(f),
                                       np.abs(f) * (1 + 2.0 ** -52), 0)
            assert not (z - rounded).sign().any()


def test_join_needs_equal_rounding_counts():
    x, y = (counting._Approx(np.ones(2), np.ones(2), np.zeros(2), n)
            for n in (3, 4))
    joined = counting._join(x, x, x)
    assert (joined.n, len(joined.v)) == (3, 6)
    with pytest.raises(ValueError):
        counting._join(x, y)
    with pytest.raises(ValueError):
        counting._join([x, x], [x, y])


def scaled_block(rng, rows):
    """Rows of four segments as ``_certified_decide`` hands them to its
    programs: coordinates below 1 and their errors, which grow by up to
    2^40 from row to row so that some signs are left uncertain."""
    P, Q = (rng.uniform(-1, 1, (rows, 4, 3)) for _ in range(2))
    grow = 2.0 ** rng.integers(0, 40, (rows, 1, 1))
    eP, eQ = (counting._ERR_UNIT * np.abs(X) * grow for X in (P, Q))
    return P, Q, eP, eQ


def integer_block(rng, rows):
    """Rows of four segments with integer coordinates |x| <= 4 and no
    errors, on which every float value of the filter's programs is exact."""
    P, Q = (rng.integers(-4, 5, (rows, 4, 3)).astype(float) for _ in range(2))
    return P, Q, np.zeros_like(P), np.zeros_like(Q)


def kernel_forms(P, Q, r):
    """The quadratic and the trace forms of the kernel, on Python ints, of
    row r: flat lists of (qa, qb, qc), then num and den of each trace."""
    lines = [_int_triple(*(tuple(int(c) for c in X[r, i]) for X in (P, Q)))
             for i in range(4)]
    plane2, plane3 = (_plane(*lines[0][:2], x) for x in lines[1:3])
    q = _incidence_quadratic(plane2, plane3, lines[3])
    return list(q), [c for num, den in (
        _trace(plane3, lines[1]), _trace(plane2, lines[2]),
        _trace(plane2, lines[3])) for c in (*num, *den)]


def unstacked_signs(P, Q, eP, eQ):
    """The quadratic and the range and trace signs of the unstacked
    program, the reference of the stacked one: one ``_int_triple`` per
    line, one ``_plane`` call per plane, one ``_root_signs`` call per
    form."""
    A = counting._Approx
    lines = [_int_triple(*(
        tuple(A(X[:, i, j], np.abs(X[:, i, j]),
                np.abs(X[:, i, j]) + E[:, i, j], 0)
              for j in range(3)) for X, E in ((P, eP), (Q, eQ))))
        for i in range(4)]
    plane2, plane3 = (_plane(*lines[0][:2], x) for x in lines[1:3])
    q = _incidence_quadratic(plane2, plane3, lines[3])
    sa = q[0].sign()
    ranges = [counting._root_signs(*q, sa, counting._ONE, l0)
              for l0 in (A(0.0, 0.0, 0.0, 0), -counting._ONE)]
    traces = []
    for num, den in (_trace(plane3, lines[1]), _trace(plane2, lines[2]),
                     _trace(plane2, lines[3])):
        diff = (num[0] - den[0], num[1] - den[1])
        traces.append([counting._root_signs(*q, sa, *form)
                       for form in (num, den, diff)])
    return q, ranges, traces


def test_stacked_range_and_trace_signs_match_the_loop():
    rng = np.random.default_rng(13)
    zeros = 0
    blocks = [(scaled_block, rows) for rows in (1, 2, 7, 126, 300)]
    for make, rows in blocks + [(integer_block, 60)]:
        P, Q, eP, eQ = make(rng, rows)
        ref_q, ref_ranges, ref_traces = unstacked_signs(P, Q, eP, eQ)
        stack, line = counting._lines_of(P, Q, eP, eQ)
        planes, plane2, plane3 = counting._planes_of(stack, line)
        q = _incidence_quadratic(plane2, plane3, line[3])
        for got, want in zip(q, ref_q):
            same_bytes(got, (want.v, want.a, want.b, want.n))
        sa = q[0].sign()
        ranges = counting._range_signs(q, sa)
        for root in range(2):
            for k in range(2):
                assert (ranges[root][k] == ref_ranges[k][root]).all()
        live = np.flatnonzero(rng.random(rows) < 0.7)
        traces = counting._trace_signs(planes, stack, q, sa, live)
        for j in range(3):
            for form in range(3):
                for root in range(2):
                    want = ref_traces[j][form][root][live]
                    assert (traces[form][root][j] == want).all()
                    zeros += int((want == 0).sum())
        if make is integer_block:
            # exact floats: the stacked values are the kernel's integers
            forms = [c.v for num, den in (
                _trace(plane3, line[1]), _trace(plane2, line[2]),
                _trace(plane2, line[3])) for c in (*num, *den)]
            for r in range(rows):
                want_q, want_forms = kernel_forms(P, Q, r)
                assert [x.v[r] for x in q] == want_q
                assert [f[r] for f in forms] == want_forms
    assert zeros > 0


def crossing_pair_row(rng):
    """Four integer segments: the first two cross at their midpoint X on a
    line L, so their lines are coplanar, and the other two are random or
    cross L.  The filter must reorder the lines of such a row."""
    def vec(k=6):
        return rng.integers(-k, k + 1, 3)
    base, axis = vec(), vec()
    X = base + 2 * axis
    segs = [(X - v, X + v) for v in (vec(), vec())]
    for s in (4, 6):
        if rng.random() < 0.5:
            v = vec()
            segs.append((base + s * axis - v, base + s * axis + v))
        else:
            segs.append((vec(12), vec(12)))
    return [tuple(tuple(int(c) for c in x) for x in seg) for seg in segs]


def test_rows_with_coplanar_leading_lines_are_reordered_and_sound():
    rng = np.random.default_rng(14)
    rows = [crossing_pair_row(rng) for _ in range(120)]
    rows = [[Segment3(*(tuple(map(Fraction, x)) for x in seg)) for seg in r]
            for r in rows if len({x for seg in r for x in seg}) == 8]
    P, Q = (np.array([[[float(c) for c in getattr(s, end)] for s in r]
                      for r in rows]) for end in "pq")
    out = counting._certified_decide(P, Q)
    assert (out > 0).any() and (out < 0).any()
    for i, r in enumerate(rows):
        assert decide_row(r) == out[i]
        if out[i]:
            assert transversal_exists_segments(r).exists is bool(out[i] > 0)


def endpoint_contact_drawing(seed):
    """Four segments whose second endpoints lie on one line, so that line
    meets every segment at its end; the coordinates are thirds, sevenths
    and tenths, which doubles round."""
    rng = random.Random(seed)
    base = [Fraction(rng.randint(-9, 9), 3) for _ in range(3)]
    axis = [Fraction(rng.randint(-9, 9), 7) for _ in range(3)]
    pairs = []
    for s in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
        q = tuple(b + s * a for b, a in zip(base, axis))
        p = tuple(Fraction(rng.randint(-30, 30), 10) for _ in range(3))
        pairs.append((p, q))
    return _segment_drawing(pairs)


def test_error_bound_is_load_bearing(monkeypatch):
    # the endpoint crossings sit exactly on a range boundary (parameter 1),
    # where the float value of the range test is rounding noise; the
    # near-coplanar corpus is the one of test_near_coplanar_crossings_are_counted
    cases = ([(endpoint_contact_drawing(s), 1) for s in range(8)]
             + [(near_coplanar_drawing(s), 15) for s in range(32)])
    assert [count_line_crossings(d, 4).count for d, _ in cases] == \
        [expect for _, expect in cases]
    monkeypatch.setattr(counting, "_ERR_UNIT", 0.0)
    lost = [expect - count_line_crossings(d, 4).count for d, expect in cases]
    assert min(lost) == 0 and sum(lost[:8]) > 0 and sum(lost[8:]) > 0


def near_miss_drawing(seed):
    """Four segments around a line L through seeded points: the first
    three cross L at their midpoints, and the fourth stops 2^-50 of its
    length short of it (its line meets L at parameter 1 + 2^-50)."""
    rng = random.Random(seed)
    base = [Fraction(rng.randint(-9, 9), 3) for _ in range(3)]
    axis = [Fraction(rng.randint(-9, 9), 7) for _ in range(3)]
    pairs = []
    half, miss = Fraction(1, 2), 1 + Fraction(1, 2 ** 50)
    for s, u in ((0, half), (Fraction(1, 3), half), (Fraction(2, 3), half),
                 (1, miss)):
        c = [b + s * a for b, a in zip(base, axis)]
        v = [Fraction(rng.randint(-30, 30), 10) for _ in range(3)]
        p = tuple(ci - u * vi for ci, vi in zip(c, v))
        pairs.append((p, tuple(pi + vi for pi, vi in zip(p, v))))
    return _segment_drawing(pairs)


def test_accept_error_bound_is_load_bearing(monkeypatch):
    # the fourth range test at L is -2^-50 in exact arithmetic, below the
    # float noise; without the error bound some of these rows are accepted
    drawings = [near_miss_drawing(s) for s in range(24)]
    exact = [count_line_crossings(d, 4, prefilter=False).count
             for d in drawings]
    assert [count_line_crossings(d, 4).count for d in drawings] == exact
    monkeypatch.setattr(counting, "_ERR_UNIT", 0.0)
    loose = [count_line_crossings(d, 4).count for d in drawings]
    assert all(a >= b for a, b in zip(loose, exact))
    assert sum(loose) > sum(exact)


def test_input_error_bound_is_load_bearing(monkeypatch):
    # 2^20 from the origin the coordinates' conversion errors dwarf the
    # rounding of the programs; with the threshold's b - a left out, some
    # near misses are accepted and some endpoint contacts rejected
    drawings = ([moved(near_miss_drawing(s), 1, 2 ** 20) for s in range(24)]
                + [moved(endpoint_contact_drawing(s), 1, 2 ** 20)
                   for s in range(8)])
    exact = [count_line_crossings(d, 4, prefilter=False).count
             for d in drawings]
    assert [count_line_crossings(d, 4).count for d in drawings] == exact

    def sign_without_input_errors(self):
        err = (self.n + 2) * counting._ERR_UNIT * self.b + counting._ERR_TINY
        return (np.asarray(self.v > err, dtype=np.int8)
                - np.asarray(self.v < -err, dtype=np.int8))

    monkeypatch.setattr(counting._Approx, "sign", sign_without_input_errors)
    loose = [count_line_crossings(d, 4).count for d in drawings]
    assert sum(loose[:24]) > sum(exact[:24])
    assert sum(loose[24:]) < sum(exact[24:])


def test_rows_with_errors_beyond_their_extent_stay_undecided(monkeypatch):
    # within two units in the last place of 2^60 a row's input errors
    # exceed its extent; the bound needs them below 1 once the row is
    # scaled, so such a row never reaches the programs
    rng = np.random.default_rng(16)
    P, Q = (rng.integers(0, 2, (3, 4, 3)) * 256.0 for _ in range(2))
    P[:, :, 0] += 2.0 ** 60
    Q[:, :, 0] += 2.0 ** 60
    assert counting._certified_decide(P, Q).tolist() == [0, 0, 0]
    monkeypatch.setattr(counting, "_lines_of", None)
    assert counting._certified_decide(P, Q).tolist() == [0, 0, 0]


def test_block_with_some_rows_beyond_their_extent(monkeypatch):
    # four segments in sixteenths of [0, 4] and four translated by 2^60:
    # the all-far row rounds to one point and stays undecided, while the
    # rest of its block goes on to the programs
    rng = random.Random(3)

    def point(shift):
        return tuple(Fraction(rng.randint(0, 64), 16) + shift for _ in range(3))

    pairs = [(point(s), point(s)) for s in (0,) * 4 + (2 ** 60,) * 4]
    d = _segment_drawing(pairs)
    assert decide_row([Segment3(p, q) for p, q in pairs[4:]]) == 0
    blocks = []
    decide = counting._certified_decide

    def recorded(P, Q):
        out = decide(P, Q)
        blocks.append(out.tolist())
        return out

    monkeypatch.setattr(counting, "_certified_decide", recorded)
    assert count_line_crossings(d, 4).count == oracle_count(d, 4) == 9
    # the last tuple, edges 4-7, is the all-far row
    assert [(b[-1], any(b)) for b in blocks] == [(0, True)]


def tangent_drawing(delta):
    """Three segments on lines of one ruling of x^2 + y^2 - z^2 = 1 and one
    on the line x = 1 - delta, z = 2y.  At delta = 0 that line touches the
    surface at (1, 0, 0) and the other ruling's line through that point is
    the only transversal (a double root); for delta > 0 there is none, and
    for delta < 0 there are two."""
    pairs = []
    for u in (Fraction(1, 3), Fraction(1, 2), Fraction(2)):
        c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
        x, d = (1, u, -u), (-s, c, 1)
        pairs.append((tuple(a - Fraction(1, 3) * b for a, b in zip(x, d)),
                      tuple(a + Fraction(1, 2) * b for a, b in zip(x, d))))
    pairs.append(((1 - delta, Fraction(-1, 2), -1),
                  (1 - delta, Fraction(1, 2), 1)))
    return _segment_drawing(pairs)


def test_near_tangent_rows_need_a_certain_discriminant():
    # the regulus discriminant is 0 or about +-2^-50: only a certainly
    # positive one may accept
    tiny = Fraction(1, 2 ** 50)
    for delta, expect in ((0, 1), (tiny, 0), (-tiny, 1), (tiny * 2 ** 10, 0)):
        d = tangent_drawing(delta)
        assert count_line_crossings(d, 4, prefilter=False).count == expect
        assert count_line_crossings(d, 4).count == expect


def test_progress_is_logged(monkeypatch, caplog):
    monkeypatch.setattr(counting, "_PROGRESS_S", 0.0)
    with caplog.at_level("INFO", logger="spacecross"):
        rep = count_line_crossings(bundle_drawing(0), 4)
    lines = [r.getMessage() for r in caplog.records if r.name == "spacecross"]
    assert lines and all("blocks done" in m for m in lines)
    assert lines[-1].endswith(f"{rep.tuples_total} tuples seen, "
                              f"count {rep.count} so far")


def test_coordinates_beyond_double_range():
    fixtures = [bundle_drawing(0), WITNESS_PARITY[4][0]()]
    for d in fixtures:
        expect = count_line_crossings(d, 4).count
        for factor in (Fraction(2) ** 1100, Fraction(1, 2 ** 1100)):
            scaled = SpatialDrawing(
                d.graph, [tuple(c * factor for c in p) for p in d.positions],
                {e: [tuple(c * factor for c in p) for p in pts]
                 for e, pts in d.polylines.items()})
            for prefilter in (True, False):
                rep = count_line_crossings(scaled, 4, prefilter=prefilter)
                assert rep.count == expect


def moved(d, factor, shift):
    """d scaled by ``factor`` about the origin, then moved by ``shift``
    along every axis."""
    def f(p):
        return tuple(c * factor + shift for c in p)
    return SpatialDrawing(d.graph, [f(p) for p in d.positions],
                          {e: [f(p) for p in pts]
                           for e, pts in d.polylines.items()})


@pytest.mark.parametrize("make", [
    endpoint_contact_drawing, near_coplanar_drawing, bundle_drawing,
    small_lifted_drawing])
@pytest.mark.parametrize("seed", [0, 1])
def test_scaled_and_translated_counts_match_the_exact_reference(make, seed):
    # the tuple stage's slacks are partly absolute, so they meet both tiny
    # and huge drawings, and far from the origin doubles round coarsely
    d = make(seed)
    for e in (-60, -30, 30, 60):
        for shift in (10 ** 6, 10 ** 9):
            m = moved(d, Fraction(2) ** e, shift)
            for k in (3, 4):
                assert count_line_crossings(m, k).count == \
                    count_line_crossings(m, k, prefilter=False).count, (e, shift, k)
