import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spacecross.geometry import v_is_zero
from spacecross.scalars import (QuadExt, _rational_sqrt, rat_from_str,
                                rat_to_str, scalar_from_json, scalar_to_json,
                                sign_of)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


def test_string_round_trip():
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-6, 8)) == "-3/4"
    assert rat_to_str(Fraction(5)) == "5/1"
    assert rat_from_str("1/3") == Fraction(1, 3)
    assert rat_from_str("7") == Fraction(7)


@given(rationals)
def test_string_round_trip_random(x):
    assert rat_from_str(rat_to_str(x)) == x


def test_perfect_square_collapses():
    v = QuadExt(1, 2, Fraction(9, 4))  # 1 + 2*(3/2) = 4
    assert v.is_rational and v.as_rational() == 4
    assert QuadExt(5, 3, 0).is_rational
    assert not QuadExt(0, 1, 2).is_rational


def test_sign_cases():
    sqrt2 = QuadExt(0, 1, 2)
    assert sqrt2.sign() == 1
    assert (1 - sqrt2).sign() == -1          # 1 < sqrt 2
    assert (sqrt2 - Fraction(3, 2)).sign() == -1
    assert (sqrt2 * sqrt2 - 2).sign() == 0
    assert QuadExt(-3, 2, 2).sign() == -1    # 2 sqrt2 = 2.83 < 3
    assert QuadExt(-3, 2, Fraction(9, 4)).sign() == 0


def test_arithmetic_and_division():
    a = QuadExt(1, 1, 5)
    b = QuadExt(2, -1, 5)
    assert (a + b) == QuadExt(3, 0, 5)
    assert (a * b) == QuadExt(-3, 1, 5)
    inv = a.inverse()
    assert (a * inv).as_rational() == 1
    assert (a / a).as_rational() == 1
    with pytest.raises(ValueError):
        _ = a + QuadExt(0, 1, 7)  # mixed radicands


def test_quadratic_root_identity():
    # roots of x^2 - x - 1 satisfy the equation exactly
    phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
    assert (phi * phi - phi - 1).sign() == 0
    assert phi > 1 and phi < 2


@given(rationals, rationals, st.integers(min_value=0, max_value=20))
def test_sign_matches_float(a, b, d):
    v = QuadExt(a, b, d)
    approx = float(a) + float(b) * d ** 0.5
    if abs(approx) > 1e-6:
        assert v.sign() == (1 if approx > 0 else -1)


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_ordering_consistent(a, b, d):
    v = QuadExt(a, b, d)
    w = QuadExt(b, a, d)
    assert (v < w) == ((w - v).sign() > 0)
    assert (v == w) == ((v - w).sign() == 0)


def test_json_round_trip():
    v = QuadExt(Fraction(1, 3), Fraction(-2, 7), 5)
    assert QuadExt.from_json(v.to_json()) == v
    assert scalar_from_json(scalar_to_json(Fraction(3, 4))) == Fraction(3, 4)
    back = scalar_from_json(scalar_to_json(v))
    assert back == v


def test_sign_of_plain_values():
    assert sign_of(Fraction(-2, 3)) == -1
    assert sign_of(0) == 0
    assert sign_of(7) == 1
    assert sign_of(QuadExt(1, -1, 2)) == -1     # 1 - sqrt(2)
    assert sign_of(QuadExt(-1, 1, 2)) == 1
    assert sign_of(QuadExt(2, -2, 1)) == 0      # collapses to 0
    # a vector of exact zeros, one of them an irrational-looking QuadExt
    assert v_is_zero((QuadExt(0), QuadExt(3, -1, 9), Fraction(0)))
    assert not v_is_zero((QuadExt(0), QuadExt(0, 1, 2), 0))


def _quad_corpus():
    """Seeded values a + b*sqrt(d), with zero, rationals and radicands that
    are perfect rational squares, which collapse on construction."""
    rng = random.Random(22)
    radicands = [0, 1, 4, Fraction(9, 4), Fraction(4, 25), 49, 2, 3, 5,
                 Fraction(2, 9), Fraction(7, 3)]
    values = [QuadExt(0), QuadExt(0, 3, 2), QuadExt(2, -2, 1)]
    for _ in range(400):
        values.append(QuadExt(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                              rng.choice(radicands)))
    return values


def test_rational_comparisons_and_differences_match_their_definitions():
    rng = random.Random(23)
    collapsed = 0
    for x in _quad_corpus():
        collapsed += x.is_rational and x.d == 0
        others = [0, 1, -2, Fraction(1, 2), Fraction(-7, 3),
                  rng.randint(-3, 3), Fraction(rng.randint(-6, 6), 2)]
        if x.is_rational:
            others += [x.a, x.a + 1]
            if x.a.denominator == 1:
                others.append(int(x.a))
        for r in others:
            equal = (x - r).sign() == 0
            assert (x == r) is equal and (r == x) is equal
            assert (x != r) is not equal and (r != x) is not equal
            diff, ref = r - x, (-x) + r
            assert (diff.a, diff.b, diff.d) == (ref.a, ref.b, ref.d)
    assert collapsed > 100


def test_radicands_in_a_square_ratio_name_one_field():
    sqrt2, also = QuadExt(0, 1, 2), QuadExt(0, Fraction(1, 2), 8)
    assert sqrt2 == also and also == sqrt2 and hash(sqrt2) == hash(also)
    assert sqrt2 <= also and not sqrt2 < also and (also - sqrt2).sign() == 0
    assert QuadExt(0, 1, 2) < QuadExt(0, 1, 8)           # sqrt 2 < 2 sqrt 2
    assert QuadExt(1, 3, Fraction(2, 9)) == QuadExt(1, 1, 2)
    assert QuadExt(1, -1, 2) != QuadExt(1, 1, 8)
    assert len({QuadExt(0, -1, 2), QuadExt(0, -2, Fraction(1, 2))}) == 1
    # each value keeps its own fields; a sum takes the left radicand
    assert repr(also) == "QuadExt(0 + 1/2*sqrt(8))"
    assert repr(sqrt2 + also) == "QuadExt(0 + 2*sqrt(2))"
    assert repr(also + sqrt2) == "QuadExt(0 + 1*sqrt(8))"
    # radicands of different fields still refuse to mix
    with pytest.raises(ValueError, match="mixed radicands"):
        _ = sqrt2 < QuadExt(0, 1, 3)
    assert sqrt2 != QuadExt(0, 1, 3)


def test_equal_values_of_one_field_hash_equally():
    # the corpus's irrational values, and some over a radicand k^2 d
    values = [x for x in _quad_corpus() if not x.is_rational][:60]
    values += [QuadExt(x.a, x.b / k, x.d * k * k)
               for x, k in zip(values, itertools.cycle(
                   [2, 3, Fraction(1, 2), Fraction(2, 3)]))]
    same = 0
    for x, y in itertools.product(values, repeat=2):
        if _rational_sqrt(x.d / y.d) is None:
            continue
        key = (x.a, x.b * x.b * x.d, x.b > 0)
        equal = key == (y.a, y.b * y.b * y.d, y.b > 0)
        assert (x == y) is equal and (x - y).sign() == (x > y) - (x < y)
        if equal:
            assert hash(x) == hash(y)
            same += x.d != y.d
    assert same >= 120
