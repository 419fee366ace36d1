import itertools
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


def _check_partition_2d(part, n):
    """Cone sizes, cover and membership, and the halfplane property: every
    closed halfplane {w: u.w >= 0} through the center holds a whole cone.
    Whether it holds cone (g1, g2) changes only where u is normal to a
    generator, so the normals and the sums of any two of them, which put
    one u strictly inside each arc between adjacent normals, settle it."""
    assert len(part.cone_points) == 4
    assert set().union(*part.cone_points) == set(range(n))
    for gens, members in zip(part.generators, part.cone_points):
        assert 4 * len(members) >= n
        assert all(_in_cone(part.points_used[i], part.center, gens)
                   for i in members)
    rays = {g for gens in part.generators for g in gens}
    normals = [u for x, y in rays for u in ((-y, x), (y, -x))]
    normals += [(a[0] + b[0], a[1] + b[1])
                for a, b in itertools.combinations(normals, 2)]
    for u in normals:
        assert any(all(u[0] * g[0] + u[1] * g[1] >= 0 for g in gens)
                   for gens in part.generators)


@pytest.mark.parametrize("seed", range(4))
def test_yao_yao_partition_2d(seed):
    rng = random.Random(seed)
    pts = [(F(rng.randint(0, 50)), F(rng.randint(0, 50))) for _ in range(12)]
    part = yao_yao_partition(pts, 2)
    assert part.points_used == pts
    _check_partition_2d(part, 12)


def test_yao_yao_partition_perturbs_points_on_one_horizontal_line():
    # no line through an upper and a lower point crosses the median line
    pts = [(F(x), F(3)) for x in (4, -1, 7, 2, 2, 0, 5)]
    part = yao_yao_partition(pts, 2)
    assert part.points_used != pts
    assert [len(p) for p in part.points_used] == [2] * 7
    _check_partition_2d(part, 7)


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


def test_brute_force_needs_non_empty_targets():
    # an empty subset has no sign: the sweep over an empty product used to
    # return ([...], None)
    f = SparsePolynomial.from_terms([1, 1], [(1, {(0, 0): 1}),
                                             (-1, {(1, 0): 1})])
    sets = [PointMultiset(1, [(F(i),) for i in range(3)]),
            PointMultiset(1, [(F(i),) for i in range(3)])]
    for sizes in ([0, 2], [2, 0], [0, 0], [-1, 2]):
        with pytest.raises(ValidationError):
            brute_force_same_type(sets, f, sizes)
    assert brute_force_same_type(sets, f, [1, 1]) == ([[0], [0]], 0)


def _assert_refined(res, sets, polys):
    """The result's signs hold on the whole retained product and every
    subset keeps at least the guaranteed fraction of its multiset."""
    for f, sign in zip(polys, res.signs):
        for combo in itertools.product(*[[m.points[i] for i in sub]
                                         for sub, m in zip(res.subsets, sets)]):
            assert sign_of(f.evaluate(combo)) == sign
    assert all(len(s) >= res.epsilon * len(m)
               for s, m in zip(res.subsets, sets))


def test_same_type_refine_keeps_a_block_the_polynomial_ignores():
    # x0 - 1 over blocks (1, 1) does not depend on the last block
    f = SparsePolynomial.from_terms([1, 1], [(1, {(0, 0): 1}), (-1, {})])
    sets = [PointMultiset(1, [(F(0),), (F(2),), (F(3),)]),
            PointMultiset(1, [(F(5),), (F(6),), (F(7),)])]
    res = same_type_refine(sets, [f])
    assert (res.subsets, res.signs) == ([[1, 2], [0, 1, 2]], [1])


def test_same_type_refine_last_block_smaller_than_its_partition():
    # x z0 - z1 lifts B to the plane, and three points cannot fill the
    # four cones of a partition
    f = SparsePolynomial.from_terms([1, 2], [
        (1, {(0, 0): 1, (1, 0): 1}), (-1, {(1, 1): 1})])
    sets = [PointMultiset(1, [(F(-2),), (F(1),), (F(3),)]),
            PointMultiset(2, [(F(0), F(-2)), (F(1), F(0)), (F(2), F(2))])]
    res = same_type_refine(sets, [f])
    assert (res.subsets, res.signs) == ([[0, 1, 2], [0]], [1])
    with pytest.raises(ValidationError):
        same_type_refine([sets[0], PointMultiset(2, [])], [f])


def test_same_type_refine_two_polynomials_shrinking_the_last_block():
    # refining g shrinks B, often below the four points that h's
    # partition of the plane needs
    rng = random.Random(2024)
    nonzero = [c for c in range(-4, 5) if c]
    h = SparsePolynomial.from_terms([1, 2], [
        (1, {(1, 0): 1}), (-1, {(0, 0): 1, (1, 1): 1})])
    for _ in range(300):
        sets = [PointMultiset(1, [(F(rng.randint(-6, 6), rng.randint(1, 3)),)
                                  for _ in range(rng.randint(2, 6))]),
                PointMultiset(2, [(F(rng.randint(-6, 6), rng.randint(1, 3)),
                                   F(rng.randint(-6, 6), rng.randint(1, 3)))
                                  for _ in range(rng.randint(4, 9))])]
        a, b, c = (rng.choice(nonzero) for _ in range(3))
        g = SparsePolynomial.from_terms([1, 2], [
            (a, {(0, 0): 1, (1, 0): 1}), (b, {(1, 1): 1}), (c, {})])
        _assert_refined(same_type_refine(sets, [g, h]), sets, [g, h])
