import random
from fractions import Fraction as F

import pytest

from spacecross.errors import ValidationError
from spacecross.sametype import (PointMultiset, SparsePolynomial,
                                 brute_force_same_type, linearize_last_block,
                                 same_type_refine, yao_yao_partition)
from spacecross.scalars import sign_of


def test_linearize_last_block_round_trip():
    # x0 z^2 - 3 x1 z + 2 z + 5 x0 over blocks (x: 2, z: 1)
    f = SparsePolynomial.from_terms([2, 1], [
        (1, {(0, 0): 1, (1, 0): 2}), (-3, {(0, 1): 1, (1, 0): 1}),
        (2, {(1, 0): 1}), (5, {(0, 0): 1})])
    lin = linearize_last_block(f)
    assert lin.linear.blocks == (2, 2)
    assert sorted(lin.monomial_map) == [(((1, 0), 1),), (((1, 0), 2),)]
    assert all(e == 1 for key in lin.linear.monomials
               for (b, _), e in key if b == 1)
    rng = random.Random(0)
    for _ in range(20):
        x = (F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 5))
        z = (F(rng.randint(-9, 9), 3),)
        assert (lin.linear.evaluate((x, lin.lift_point(z)))
                == f.evaluate((x, z)))
    assert SparsePolynomial.from_json(f.to_json()) == f


def _in_cone(point, center, gens):
    """Whether point - center is a nonnegative combination of gens."""
    w = [a - b for a, b in zip(point, center)]
    if len(gens) == 1:
        return w[0] * gens[0][0] >= 0
    (a, b), (c, d) = gens
    det = a * d - b * c
    s = (w[0] * d - w[1] * c) / det
    t = (a * w[1] - b * w[0]) / det
    return s >= 0 and t >= 0


def test_yao_yao_partition_1d():
    pts = [(F(x),) for x in (5, 1, 4, 2, 3, 0)]
    part = yao_yao_partition(pts, 1)
    assert part.center == (F(5, 2),)
    assert part.cone_points == [[1, 3, 5], [0, 2, 4]]
    with pytest.raises(ValidationError):
        yao_yao_partition(pts[:1], 1)


@pytest.mark.parametrize("seed", range(4))
def test_yao_yao_partition_2d(seed):
    rng = random.Random(seed)
    pts = [(F(rng.randint(0, 50)), F(rng.randint(0, 50))) for _ in range(12)]
    part = yao_yao_partition(pts, 2)
    assert len(part.cone_points) == 4
    assert set().union(*part.cone_points) == set(range(12))
    for gens, members in zip(part.generators, part.cone_points):
        assert len(members) >= 3
        assert all(_in_cone(part.points_used[i], part.center, gens)
                   for i in members)


def test_same_type_refine_agrees_with_brute_force():
    # x - y on two interleaved rows of six points
    f = SparsePolynomial.from_terms([1, 1], [(1, {(0, 0): 1}),
                                             (-1, {(1, 0): 1})])
    sets = [PointMultiset(1, [(F(i),) for i in range(6)]),
            PointMultiset(1, [(F(2 * i + 1, 2),) for i in range(6)])]

    def signs(subsets):
        return {sign_of(f.evaluate((sets[0].points[i], sets[1].points[j])))
                for i in subsets[0] for j in subsets[1]}

    res = same_type_refine(sets, [f])
    assert signs(res.subsets) == set(res.signs)
    assert all(len(s) >= res.epsilon * len(m)
               for s, m in zip(res.subsets, sets))
    found = brute_force_same_type(sets, f, [len(s) for s in res.subsets])
    assert found is not None and signs(found[0]) == {found[1]}
    assert brute_force_same_type(sets, f, [6, 6]) is None
