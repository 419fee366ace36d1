import pytest

from spacecross import generators
from spacecross.drawing import SpatialDrawing
from spacecross.errors import ValidationError

KINDS = [("points", {"count": 12}), ("six-points", {}), ("graph", {"n": 9}),
         ("drawing", {"n": 9, "p": 0.4}), ("drawing", {"n": 9, "flat": True}),
         ("hopf-pair", {}), ("stacked-pairs", {"offset": 3}), ("four-k6", {})]


def _key(obj):
    """A comparable form of a generator's output."""
    if isinstance(obj, SpatialDrawing):
        return obj.graph.n, obj.graph.edges, obj.positions
    if hasattr(obj, "edges"):
        return obj.n, obj.edges
    if isinstance(obj, tuple):       # polygonal cycles
        return [c.points for c in obj]
    return obj


@pytest.mark.parametrize("kind,params", KINDS)
def test_outputs_repeat_for_a_seed(kind, params):
    first = _key(generators.seeded_generators(kind, params, 5))
    assert _key(generators.seeded_generators(kind, params, 5)) == first


def test_seeds_change_the_output():
    for kind, params in (("points", {}), ("drawing", {"n": 9}),
                         ("four-k6", {})):
        assert (_key(generators.seeded_generators(kind, params, 1))
                != _key(generators.seeded_generators(kind, params, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_drawing_points_are_distinct(seed):
    for d in (generators.random_drawing(12, 0.5, seed, denominator_bound=2,
                                        span=1),
              generators.random_drawing(12, 0.5, seed, flat=True),
              generators.four_k6_drawing(seed, denominator_bound=2)):
        assert len(set(d.positions)) == d.graph.n
    assert len(set(generators.random_six_points(seed))) == 6


def test_flat_drawing_lies_in_z_0():
    d = generators.seeded_generators("drawing", {"n": 10, "flat": True}, 3)
    assert d.is_flat() and all(p[2] == 0 for p in d.positions)
    assert not generators.random_drawing(10, 0.5, 3).is_flat()


def test_unknown_kind_raises():
    with pytest.raises(ValidationError):
        generators.seeded_generators("nope", {}, 0)


def test_graphs_need_a_probability_and_a_vertex_count():
    for p in (1.5, -1, float("nan")):
        with pytest.raises(ValidationError) as err:
            generators.erdos_renyi(5, p, 1)
        assert err.value.location == "p"
        with pytest.raises(ValidationError):
            generators.random_drawing(5, p, 1)
    for p in (0, 1):
        assert generators.erdos_renyi(5, p, 1).m == 10 * p
    with pytest.raises(ValidationError):
        generators.erdos_renyi(-1, 0.5, 1)
