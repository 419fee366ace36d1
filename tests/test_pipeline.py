import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from spacecross import generators
from spacecross.geometry import (line_meets_segment, segments_intersect_2d,
                                 transversal_exists_segments)
from spacecross.pipeline import (_bisection_bound_met, boost_witness_pipeline,
                                 hexgrid_construction, hexgrid_graph,
                                 random_bisection)
from spacecross.sametype import (PointMultiset, SparsePolynomial,
                                 brute_force_same_type, same_type_refine)
from spacecross.scalars import sign_of


def test_drawing_generators_are_deterministic_per_seed():
    a = generators.random_drawing(9, 0.5, seed=4)
    assert a == generators.random_drawing(9, 0.5, seed=4)
    assert a != generators.random_drawing(9, 0.5, seed=5)
    b = generators.four_k6_drawing(2)
    assert b == generators.four_k6_drawing(2)
    assert b.positions != generators.four_k6_drawing(3).positions
    assert b.graph.m == 4 * 15


@pytest.mark.parametrize("kind, params", [
    ("points", {"count": 5}), ("six-points", {}), ("graph", {"n": 7}),
    ("drawing", {"n": 7, "flat": True}), ("four-k6", {})])
def test_seeded_generators_are_deterministic(kind, params):
    assert (generators.seeded_generators(kind, params, 11)
            == generators.seeded_generators(kind, params, 11))


def test_random_bisection_is_deterministic_and_meets_the_bound():
    g = generators.erdos_renyi(20, 0.5, seed=3)
    for seed in range(5):
        bis = random_bisection(g, seed=seed)
        assert bis == random_bisection(g, seed=seed)
        assert sorted(bis.side1 + bis.side2) == list(range(g.n))
        side = [0 if v in bis.side1 else 1 for v in range(g.n)]
        for s, edges in ((0, bis.edges1), (1, bis.edges2)):
            assert edges == sum(1 for u, v in g.edges if side[u] == side[v] == s)
            assert _bisection_bound_met(edges, g.m, g.n)


def test_witness_pipeline_on_four_k6():
    d = generators.four_k6_drawing(0)
    witnesses = boost_witness_pipeline(d)
    assert witnesses
    for w in witnesses:
        assert len({v for e in w.edges for v in e}) == 8
        for e in w.edges:
            assert line_meets_segment(w.line, d.edge_segments(e)[0])[0]


def _connected_without(adj, removed):
    rest = [v for v in range(len(adj)) if v not in removed]
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(rest)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hexgrid_is_a_3_connected_plane_drawing(k):
    """Exhaustive oracle for the checks `hexgrid_graph` leaves out at run
    time: no two vertices disconnect the grid, and no two edges of the
    straight-line drawing meet except at a shared endpoint."""
    grid = hexgrid_graph(k)
    g, coords = grid.graph, grid.coords
    adj = g.adjacency()
    assert all(len(nbrs) == 3 for nbrs in adj)
    assert _connected_without(adj, set())
    for pair in itertools.combinations(range(g.n), 2):
        assert _connected_without(adj, set(pair)), pair
    segs = [tuple(tuple(map(Fraction, coords[v])) for v in e) for e in g.edges]
    for (e, a), (f, b) in itertools.combinations(zip(g.edges, segs), 2):
        kind = segments_intersect_2d(a, b)
        assert kind != "crossing", (e, f)
        if not set(e) & set(f):
            assert kind == "disjoint", (e, f)


def _face_separation(grid, u, v):
    """Dual-graph distance between the faces at u and the faces at v."""
    faces_of_edge = {}
    for fi, face in enumerate(grid.faces):
        for a, b in zip(face, face[1:] + face[:1]):
            faces_of_edge.setdefault(frozenset((a, b)), []).append(fi)
    dist = {fi: 0 for fi, face in enumerate(grid.faces) if u in face}
    queue = deque(dist)
    while queue:
        f = queue.popleft()
        if v in grid.faces[f]:
            return dist[f]
        for a, b in zip(grid.faces[f], grid.faces[f][1:] + grid.faces[f][:1]):
            for g in faces_of_edge[frozenset((a, b))]:
                if g not in dist:
                    dist[g] = dist[f] + 1
                    queue.append(g)
    return math.inf


@pytest.mark.parametrize("k", range(1, 9))
def test_hexgrid_construction_chord_is_far_apart(k):
    hc = hexgrid_construction(k, 1)
    u, v = hc.special_edge
    assert not hc.grid.graph.has_edge(u, v)
    assert hc.graph.m == hc.grid.graph.m + 1
    sep = _face_separation(hc.grid, u, v)
    assert sep >= math.ceil((2 * k + 1) / 4)
    # the chord spans the largest separation of any two vertices
    assert sep == {1: 2, 2: 3, 3: 4, 4: 6, 5: 7, 6: 8, 7: 10, 8: 11}[k]
    if k <= 2:
        pairs = itertools.combinations(range(hc.grid.graph.n), 2)
        assert sep == max(_face_separation(hc.grid, a, b) for a, b in pairs)


def test_hexgrid_grid_edges_alone_can_have_a_transversal():
    # lifted edges are chords inside the sphere, not arcs on it, so a line
    # can meet four vertex-disjoint grid edges
    hc = hexgrid_construction(3, 2)
    picks = (((0, 1), 1), ((3, 6), 0), ((5, 9), 1), ((12, 17), 0))
    edges = [e for e, _ in picks]
    assert all(hc.grid.graph.has_edge(*e) for e in edges)
    assert len({v for e in edges for v in e}) == 8
    segs = [hc.drawing.edge_segments(e)[i] for e, i in picks]
    res = transversal_exists_segments(segs)
    assert res.exists
    assert all(line_meets_segment(res.line, s)[0] for s in segs)


def _random_multiset(rng, dim, size):
    return PointMultiset(dim, [tuple(Fraction(rng.randint(-9, 9))
                                     for _ in range(dim))
                               for _ in range(size)])


@pytest.mark.parametrize("seed", range(4))
def test_same_type_refine_against_brute_force(seed):
    rng = random.Random(seed)
    cases = [
        # x - y, x*y - 3, x*y1 - y2, x + y - z, x1^2 - x2 - 2
        ((1, 6), (1, 6), [(1, {(0, 0): 1}), (-1, {(1, 0): 1})]),
        ((1, 6), (1, 6), [(1, {(0, 0): 1, (1, 0): 1}), (-3, {})]),
        ((1, 5), (2, 6), [(1, {(0, 0): 1, (1, 0): 1}), (-1, {(1, 1): 1})]),
        ((1, 5), (1, 4), (1, 4),
         [(1, {(0, 0): 1}), (1, {(1, 0): 1}), (-1, {(2, 0): 1})]),
        ((2, 7), [(1, {(0, 0): 2}), (-1, {(0, 1): 1}), (-2, {})]),
    ]
    for *shapes, terms in cases:
        multisets = [_random_multiset(rng, dim, size) for dim, size in shapes]
        poly = SparsePolynomial.from_terms([dim for dim, _ in shapes], terms)
        res = same_type_refine(multisets, [poly])
        sizes = [len(s) for s in res.subsets]
        kept = [[F.points[i] for i in s] for F, s in zip(multisets, res.subsets)]
        for F, s in zip(multisets, res.subsets):
            assert len(set(s)) == len(s) >= res.epsilon * len(F)
        assert {sign_of(poly.evaluate(c))
                for c in itertools.product(*kept)} == set(res.signs)
        # the oracle finds the retained product sign-constant, with that sign
        assert brute_force_same_type(
            [PointMultiset(F.dim, pts) for F, pts in zip(multisets, kept)],
            poly, sizes) == ([list(range(n)) for n in sizes], res.signs[0])
        assert brute_force_same_type(multisets, poly, sizes) is not None
        if len(multisets) == 1:
            # one block: the refinement keeps a largest sign class
            assert brute_force_same_type(multisets, poly,
                                         [sizes[0] + 1]) is None
