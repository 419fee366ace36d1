import hashlib
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from spacecross import generators, pipeline
from spacecross.geometry import (Segment3, line_meets_segment,
                                 line_through_points, point3,
                                 segments_intersect_2d,
                                 transversal_exists_segments)
from spacecross.drawing import Graph, SpatialDrawing
from spacecross.linking import validate_embedding
from spacecross.pipeline import (_bisection_bound_met, _k6_subdivision_absent,
                                 boost_witness_pipeline, find_k6_subdivision,
                                 hexgrid_construction, hexgrid_graph,
                                 random_bisection)


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


@pytest.mark.parametrize("seed", range(6))
def test_witness_pipeline_on_four_k6(seed):
    d = generators.four_k6_drawing(seed)
    witnesses = boost_witness_pipeline(d)
    assert witnesses
    for w in witnesses:
        assert len({v for e in w.edges for v in e}) == 8
        assert [e for e, _, _ in w.contacts] == list(w.edges)
        for e, seg, u in w.contacts:
            assert seg == 0
            # the parameter on the drawn edge, from its lower vertex
            assert line_meets_segment(w.line, d.edge_segments(e)[0]) == (True, u)


# sha256 prefixes of repr((edges, line, contacts)) of every witness, as the
# pipeline gave them when it rescanned each loop for the met edge
_WITNESS_DIGESTS = [
    ("four_k6", 0, 1, "e4a4184ac4994aa6"),
    ("four_k6", 1, 1, "5b5e6c5c6c03770d"),
    ("four_k6", 2, 1, "9cff597fc8acf16a"),
    ("random", 0, 3, "68574036e9037344"),
    ("random", 6, 6, "3b2811dc9f5d3263"),
    ("random", 2005, 8, "9403fbb3fc01e870"),
    # the inputs of the paper-constructions benchmark workload
    ("random", 7000, 6, "eceab59f380652f6"),
    ("random", 7001, 3, "fe2ee1d7141f1aee"),
    ("random", 7002, 2, "63c19f1aed63e3ef"),
    ("random", 7003, 3, "72b83a19f8e2a6a5"),
    ("random", 7004, 3, "467f59a2b83b7db5"),
    ("random", 7005, 3, "a3c6c9a33bd505c3"),
    ("random", 7006, 3, "5b8f7b6bbe3e6633"),
    ("random", 7007, 3, "791dde56b9fa647b"),
    ("random", 7008, 2, "26445c17c112a10f"),
    ("random", 7009, 3, "6a6b099593a00bb4"),
]


@pytest.mark.parametrize("kind, seed, count, digest", _WITNESS_DIGESTS)
def test_witness_pipeline_witnesses_are_pinned(kind, seed, count, digest):
    d = (generators.four_k6_drawing(seed) if kind == "four_k6"
         else generators.random_drawing(40, 0.4, seed))
    ws = boost_witness_pipeline(d)
    text = repr([(w.edges, w.line, w.contacts) for w in ws])
    assert (len(ws), hashlib.sha256(text.encode()).hexdigest()[:16]) == (
        count, digest)


def _linear_scan_sample(rng, items, weights, k):
    """``pipeline._weighted_sample`` as a linear scan of the pool."""
    chosen = []
    pool = list(zip(items, weights))
    for _ in range(k):
        r = rng.uniform(0, sum(w for _, w in pool))
        sums = itertools.accumulate(w for _, w in pool)
        idx = next((i for i, acc in enumerate(sums) if r <= acc), -1)
        chosen.append(pool.pop(idx)[0])
    return chosen


def test_weighted_sample_matches_a_linear_scan():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(6, 30)
        items = rng.sample(range(100), n)
        weights = [rng.randint(1, 9) for _ in range(n)]
        got = pipeline._weighted_sample(random.Random(seed), items,
                                        weights, 6)
        assert got == _linear_scan_sample(random.Random(seed), items,
                                          weights, 6)


def test_pair_shuffle_matches_random_shuffle():
    # the K6 search shuffles its branch pairs on Random.shuffle's draws;
    # this pins that on the running Python's random module
    for seed in range(1000):
        rng, want = random.Random(seed), random.Random(seed)
        pairs = list(pipeline._PAIRS)
        pipeline._shuffle(rng.getrandbits, pairs)
        order = list(itertools.combinations(range(6), 2))
        want.shuffle(order)
        assert pairs == order
        assert rng.getstate() == want.getstate()


def _reversed_edge_contact(p, q, line):
    """``_step_contact`` of ``line`` on the step 1 -> 0 of the edge from p
    (vertex 0) to q (vertex 1), with u from the step itself, and the
    contact on the drawn edge."""
    d = SpatialDrawing(Graph.from_edges(2, [(0, 1)]), [p, q])
    ok, u = line_meets_segment(line, Segment3(q, p))
    assert ok
    drawn = line_meets_segment(line, d.edge_segments((0, 1))[0])
    return u, pipeline._step_contact(d, line, 1, 0, u), drawn


def test_step_contact_on_reversed_edges():
    p, q = point3(0, 0, 0), point3(4, 0, 0)
    # an interior contact: 1 - u
    u, contact, drawn = _reversed_edge_contact(
        p, q, line_through_points(point3(1, -1, -1), point3(1, 1, 1)))
    assert (u, contact, drawn) == (Fraction(3, 4), ((0, 1), 0, Fraction(1, 4)),
                                   (True, Fraction(1, 4)))
    # through the step's start, the edge's higher vertex: 1
    u, contact, drawn = _reversed_edge_contact(
        p, q, line_through_points(q, point3(4, 1, 1)))
    assert (u, contact, drawn) == (0, ((0, 1), 0, 1), (True, 1))
    # containing the segment: 0 in either direction
    u, contact, drawn = _reversed_edge_contact(
        p, q, line_through_points(point3(-1, 0, 0), point3(7, 0, 0)))
    assert (u, contact, drawn) == (0, ((0, 1), 0, 0), (True, 0))


def _icosahedron():
    """5-regular and planar, so it has no K5 subdivision, let alone K6."""
    edges = [(0, i) for i in range(1, 6)] + [(i, 11) for i in range(6, 11)]
    for i in range(5):
        edges += [(1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5),
                  (1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
    return Graph.from_edges(12, edges)


def _absent(g):
    adj = [sorted(a) for a in g.adjacency()]
    return _k6_subdivision_absent(adj, [v for v in range(g.n)
                                        if len(adj[v]) >= 5])


def _bfs_costs(monkeypatch):
    """The list that the cost of each later `_bfs_path` call goes to."""
    spent = []
    bfs_path = pipeline._bfs_path

    def counted(*args):
        path, cost = bfs_path(*args)
        spent.append(cost)
        return path, cost

    monkeypatch.setattr(pipeline, "_bfs_path", counted)
    return spent


def test_k6_search_on_the_icosahedron_stops_at_the_absence_proof(
        monkeypatch):
    g = _icosahedron()
    assert sorted(g.degree(v) for v in range(g.n)) == [5] * 12
    assert _absent(g)
    spent = _bfs_costs(monkeypatch)
    assert find_k6_subdivision(g, budget=10 ** 6) is None
    # the proof runs before the random search, which never starts
    assert spent == []


@pytest.mark.parametrize("edges", [
    # K6 less one edge: 14 edges, so at most five vertices of degree >= 5
    [e for e in itertools.combinations(range(6), 2) if e != (4, 5)],
    # K5 with two more neighbours at each vertex: 20 edges, and only the
    # five vertices of the K5 have degree >= 5
    list(itertools.combinations(range(5), 2))
    + [(i, 5 + i) for i in range(5)] + [(i, 5 + (i + 1) % 5) for i in range(5)],
], ids=["m14", "five-candidates"])
def test_k6_search_without_six_candidates_makes_no_bfs_call(monkeypatch,
                                                            edges):
    g = Graph.from_edges(10, edges)
    assert sum(g.degree(v) >= 5 for v in range(g.n)) <= 5
    spent = _bfs_costs(monkeypatch)
    assert find_k6_subdivision(g, budget=10 ** 6) is None
    assert spent == []


def test_k6_search_on_the_icosahedron_spends_its_budget(monkeypatch):
    # at a one-step cap the absence proof gives up, so the random search
    # runs on until its budget is spent
    g = _icosahedron()
    monkeypatch.setattr(pipeline, "_ABSENCE_STEP_LIMIT", 1)
    assert _absent(g) is False
    spent = _bfs_costs(monkeypatch)
    assert find_k6_subdivision(g, budget=5000) is None
    # one search costs at most the n vertices it expands
    assert 5000 <= sum(spent) < 5000 + g.n


def _brute_k6_subdivision(n, edges):
    """Independent check for n <= 8: six branch vertices and at most two
    more, each on at most one path of one or two inner vertices."""
    e = {frozenset(p) for p in edges}
    for branch in itertools.combinations(range(n), 6):
        rest = [v for v in range(n) if v not in branch]
        routes = []
        for u, v in itertools.combinations(branch, 2):
            if frozenset((u, v)) in e:
                continue
            walks = [(u,) + inner + (v,) for k in (1, 2)
                     for inner in itertools.permutations(rest, k)]
            routes.append([w[1:-1] for w in walks
                           if all(frozenset(s) in e for s in zip(w, w[1:]))])
        for choice in itertools.product(*routes):
            inner = [x for r in choice for x in r]
            if len(inner) == len(set(inner)):
                return True
    return False


def test_k6_absence_proof_against_brute_force():
    rng = random.Random(5)
    found = 0
    for _ in range(300):
        n = rng.choice([6, 7, 8])
        p = rng.uniform(0.6, 1.0)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        g = Graph.from_edges(n, edges)
        has = _brute_k6_subdivision(n, edges)
        found += has
        assert _absent(g) is not has, edges
        if has:
            emb = find_k6_subdivision(g, budget=10 ** 6)
            assert emb is not None and len(emb.paths) == 15
    assert 50 < found < 250


# answers of the absence proof on ``_absence_corpus``, recorded while it
# took the branch sets in lexicographic order of the vertices
K6_ABSENCE_ANSWERS = (
    "FTTFFFFFFFFFFTFTFFTFFTTFFFFFTFFFFTFFTFFTFFTTFFFTFTFFTFFFFTFTFFFFFF"
    "TTFTTFFFFFFTTTFFFFFFTTFFFTFFFFTFFFFFFFFFFFFFFFFFFTFFTFFTFTFTFFFFFT"
    "FFFFFTTFTFFFTFFFFF")


def _absence_corpus():
    """150 seeded random graphs on 10 to 14 vertices."""
    for s in range(150):
        rng = random.Random(s)
        n = rng.choice([10, 11, 12, 13, 14])
        p = rng.uniform(0.4, 0.7)
        edges = itertools.combinations(range(n), 2)
        yield Graph.from_edges(n, [e for e in edges if rng.random() < p])


def test_k6_absence_answers_do_not_depend_on_the_branch_set_order():
    rng = random.Random(3)
    got = []
    for g in _absence_corpus():
        adj = [sorted(a) for a in g.adjacency()]
        cand = [v for v in range(g.n) if len(adj[v]) >= 5]
        answer = _k6_subdivision_absent(adj, cand)
        rng.shuffle(cand)
        assert _k6_subdivision_absent(adj, cand) is answer
        got.append("T" if answer else "F")
    assert "".join(got) == K6_ABSENCE_ANSWERS


def _k6_searches(monkeypatch, seed):
    """The (graph, budget, seed) and the result, (branch_vertices, sorted
    paths) or None, of each `find_k6_subdivision` call of the witness
    pipeline on random_drawing(40, .4, seed)."""
    calls = []
    find = pipeline.find_k6_subdivision

    def recorded(g, budget, seed):
        emb = find(g, budget=budget, seed=seed)
        calls.append(((g.n, g.edges, budget, seed), None if emb is None else
                      (emb.branch_vertices, sorted(emb.paths.items()))))
        return emb

    monkeypatch.setattr(pipeline, "find_k6_subdivision", recorded)
    boost_witness_pipeline(generators.random_drawing(40, 0.4, seed))
    return calls


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# per input of the paper-constructions workload: the number of K6 searches,
# sha256 prefixes of their inputs and of their results, recorded while the
# search kept its blocked vertices and its BFS marks in sets and dicts, and
# their summed `_bfs_path` cost, recorded once the absence proof ran first
K6_SEARCHES = [
    (7000, 7, "fbab18c7f0fc056f", "cec5a85c738ed439", 592),
    (7001, 6, "d9b1eb7b08c7c37e", "eac306c0678f7815", 791),
    (7002, 5, "d9a6791126bbf7a4", "1224e98fdffa9389", 128),
    (7003, 6, "f8faf8f7ac39ab52", "9fb44a7077d851cf", 395),
    (7004, 6, "2ca1a7cf78010c16", "7984e0898d6aba27", 3405),
    (7005, 6, "b4f40990026040e3", "a19355209f7fade9", 733),
    (7006, 6, "936b0f6ddd4346d9", "34beaddd7bc3fcd2", 219),
    (7007, 6, "bd9b192d13b25c34", "cf0c248556785464", 389),
    (7008, 5, "7a606d469456a453", "21b75b25c5bf06e3", 217),
    (7009, 6, "0ed47a4c8ffe0674", "ed1372a352824292", 8387),
]


@pytest.mark.parametrize("seed, calls, inputs, results, cost", K6_SEARCHES)
def test_k6_searches_of_the_pipeline_are_pinned(monkeypatch, seed, calls,
                                                inputs, results, cost):
    spent = _bfs_costs(monkeypatch)
    got = _k6_searches(monkeypatch, seed)
    assert (len(got), _digest([c[0] for c in got]),
            _digest([c[1] for c in got]), sum(spent)) == (
        calls, inputs, results, cost)


# answers of the absence proof on the graphs of those searches, inputs
# 7000-7019, recorded while it searched the graph as given
K6_SIDE_ABSENCE_ANSWERS = [
    "FFTFFFT", "FTFFFT", "FTFFT", "FTFFFT", "FTFFFT", "FTFFFT", "FTFFFT",
    "FTFFFT", "FTFFT", "FTFFFT", "FTFFFT", "FTFFFT", "FTFFFT", "FTFFFT",
    "FFTFFFT", "FTFFFT", "FTFFT", "FTFFFT", "FTFFFT", "FFTFFFT"]


def test_k6_absence_answers_on_the_pipeline_side_graphs(monkeypatch):
    got = []
    for seed in range(7000, 7020):
        graphs = [Graph(n, edges) for (n, edges, _, _), _ in
                  _k6_searches(monkeypatch, seed)]
        got.append("".join("T" if _absent(g) else "F" for g in graphs))
    assert got == K6_SIDE_ABSENCE_ANSWERS


def test_k6_searches_that_the_absence_proof_rules_out_cost_nothing(
        monkeypatch):
    spent = _bfs_costs(monkeypatch)
    costs = []
    find = pipeline.find_k6_subdivision

    def costed(g, budget, seed):
        start = len(spent)
        emb = find(g, budget=budget, seed=seed)
        costs.append(sum(spent[start:]))
        return emb

    monkeypatch.setattr(pipeline, "find_k6_subdivision", costed)
    for seed, answers in zip(range(7000, 7020), K6_SIDE_ABSENCE_ANSWERS):
        costs.clear()
        results = [emb for _, emb in _k6_searches(monkeypatch, seed)]
        assert len(results) == len(costs) == len(answers)
        for answer, emb, cost in zip(answers, results, costs):
            if answer == "T":
                assert (emb, cost) == (None, 0)


def _reduced(n, edges):
    adj = [sorted(a) for a in Graph.from_edges(n, edges).adjacency()]
    return [sorted(a) for a in pipeline._k6_reduced(adj)]


_K6 = list(itertools.combinations(range(6), 2))


def test_k6_reduction_deletes_a_pendant_path():
    edges = _K6 + [(0, 6), (6, 7)]
    assert _reduced(8, edges) == _reduced(6, _K6) + [[], []]
    assert _absent(Graph.from_edges(8, edges)) is False


def test_k6_reduction_suppresses_a_chain():
    # the edge 01 of K6 replaced by the path 0-6-7-1
    edges = [e for e in _K6 if e != (0, 1)] + [(0, 6), (6, 7), (1, 7)]
    assert _reduced(8, edges) == _reduced(6, _K6) + [[], []]
    g = Graph.from_edges(8, edges)
    assert _absent(g) is False and _brute_k6_subdivision(8, edges)
    emb = find_k6_subdivision(g)
    i, j = emb.branch_vertices.index(0), emb.branch_vertices.index(1)
    path = emb.paths[min(i, j), max(i, j)]
    assert sorted(path) == [0, 1, 6, 7]


def test_k6_reduction_deletes_a_vertex_between_adjacent_neighbours():
    # 7 sits between the adjacent 6 and 0, and once 7 is gone, 6 between
    # the adjacent 0 and 1
    edges = _K6 + [(0, 6), (1, 6), (6, 7), (0, 7)]
    assert _reduced(8, edges) == _reduced(6, _K6) + [[], []]
    assert _absent(Graph.from_edges(8, edges)) is False


def test_k6_reduction_drops_a_candidate_below_degree_five(monkeypatch):
    # K6 less the edge 45, with a pendant vertex at 4 and one at 5: six
    # vertices of degree 5, but 4 and 5 keep only four neighbours
    edges = [e for e in _K6 if e != (4, 5)] + [(4, 6), (5, 7)]
    assert [len(a) for a in _reduced(8, edges)] == [5, 5, 5, 5, 4, 4, 0, 0]
    assert not _brute_k6_subdivision(8, edges)
    # four candidates are left, so the answer takes no search step
    monkeypatch.setattr(pipeline, "_ABSENCE_STEP_LIMIT", 0)
    assert _absent(Graph.from_edges(8, edges)) is True


def _padded(rng, n, edges):
    """The graph of `edges` with K6 subdivisions neither made nor lost:
    some edges subdivided, some with a vertex of degree 2 next to them as
    well, and a few pendant paths."""
    out = []
    for u, v in edges:
        r = rng.random()
        if r < 0.5:
            k = rng.choice([1, 2])
            chain = [u, *range(n, n + k), v]
            n += k
            out += zip(chain, chain[1:])
        else:
            out.append((u, v))
            if r < 0.7:
                out += [(u, n), (v, n)]
                n += 1
    for _ in range(rng.randint(0, 3)):
        out.append((rng.randrange(n), n))
        n += 1
    return Graph.from_edges(n, out)


def test_k6_absence_proof_on_padded_graphs_against_brute_force():
    rng = random.Random(11)
    found = 0
    for _ in range(150):
        n = rng.choice([6, 7, 8])
        p = rng.uniform(0.6, 1.0)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        has = _brute_k6_subdivision(n, edges)
        found += has
        assert _absent(_padded(rng, n, edges)) is not has, edges
    assert 30 < found < 120


@pytest.mark.parametrize("n", [6, 7])
def test_extract_disjoint_subdivisions_on_complete_graphs(n):
    g = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
    subs = pipeline.extract_disjoint_subdivisions(g)
    assert len(subs) == 1
    validate_embedding(g, subs[0])


def test_extract_disjoint_subdivisions_on_a_side_graph():
    g = generators.random_drawing(40, 0.4, 7000).graph
    side = pipeline._induced_subgraph(g, random_bisection(g, seed=0).side2)
    subs = pipeline.extract_disjoint_subdivisions(side, budget=100000)
    assert len(subs) == 3
    for emb in subs:
        validate_embedding(side, emb)
    for a, b in itertools.combinations(subs, 2):
        assert not a.edge_set() & b.edge_set()


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
    assert (u, v) not in hc.grid.graph.edges
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
    assert all(e in hc.grid.graph.edges for e in edges)
    assert len({v for e in edges for v in e}) == 8
    segs = [hc.drawing.edge_segments(e)[i] for e, i in picks]
    res = transversal_exists_segments(segs)
    assert res.exists
    assert all(line_meets_segment(res.line, s)[0] for s in segs)
