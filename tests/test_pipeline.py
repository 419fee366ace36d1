import pytest

from spacecross import generators
from spacecross.geometry import line_meets_segment
from spacecross.pipeline import (_bisection_bound_met, boost_witness_pipeline,
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


def test_witness_pipeline_on_four_k6():
    d = generators.four_k6_drawing(0)
    witnesses = boost_witness_pipeline(d)
    assert witnesses
    for w in witnesses:
        assert len({v for e in w.edges for v in e}) == 8
        for e in w.edges:
            assert line_meets_segment(w.line, d.edge_segments(e)[0])[0]
