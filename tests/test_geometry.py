import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spacecross import geometry
from spacecross.errors import DegenerateInput
from spacecross.geometry import (PluckerLine, Segment3, _certify,
                                 _coplanar_pair, _family_samples,
                                 _in_unit_range, _incidence_quadratic,
                                 _int_triple, _line_at, _Param,
                                 _pencil_through_point, _plane,
                                 _public_line, _public_transversal,
                                 _quadratic_roots, _regulus,
                                 _scaled_int_segments, _scaled_regulus,
                                 _skew_triple_order, _stab_in_plane,
                                 line_through_points,
                                 plucker_from_segment, point3, same_line,
                                 segments_intersect_2d, side_form,
                                 side_product, transversal_exists_segments,
                                 v_add, v_cross, v_dot, v_scale, v_sub,
                                 verify_transversal)
from spacecross.scalars import QuadExt

coord = st.fractions(min_value=0, max_value=4, max_denominator=16)
points = st.tuples(coord, coord, coord)


def _point_on_line(x, line) -> bool:
    return not any(v_sub(v_cross(x, line.direction), line.moment))


def rand_segment(rng, span=64):
    while True:
        p = point3(Fraction(rng.randint(0, span), span),
                   Fraction(rng.randint(0, span), span),
                   Fraction(rng.randint(0, span), span))
        q = point3(Fraction(rng.randint(0, span), span),
                   Fraction(rng.randint(0, span), span),
                   Fraction(rng.randint(0, span), span))
        if p != q:
            return Segment3(p, q)


# ---------------------------------------------------------------------------
# Pluecker basics
# ---------------------------------------------------------------------------

def test_plucker_from_segment_examples():
    l1 = plucker_from_segment(Segment3(point3(0, 0, 0), point3(1, 0, 0)))
    assert l1.direction == point3(1, 0, 0) and l1.moment == point3(0, 0, 0)
    l2 = plucker_from_segment(Segment3(point3(0, 0, 0), point3(0, 1, 0)))
    assert l2.direction == point3(0, 1, 0) and l2.moment == point3(0, 0, 0)
    l3 = plucker_from_segment(Segment3(point3(1, 0, 0), point3(1, 1, 0)))
    assert l3.direction == point3(0, 1, 0)
    assert l3.moment == point3(0, 0, 1)


def test_plucker_moment_against_symbolic_cross():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1)
    for _ in range(20):
        s = rand_segment(rng)
        line = plucker_from_segment(s)
        p = sympy.Matrix([sympy.Rational(c) for c in s.p])
        q = sympy.Matrix([sympy.Rational(c) for c in s.q])
        expect = p.cross(q)
        assert all(sympy.Rational(line.moment[i]) == expect[i] for i in range(3))


def test_degenerate_segment_rejected():
    with pytest.raises(DegenerateInput):
        Segment3(point3(1, 2, 3), point3(1, 2, 3))


def test_integer_endpoints_give_fraction_answers():
    # the case analysis divides the caller's own coordinates
    segs = [Segment3((0, 0, 0), (2, 0, 0)), Segment3((1, -1, 0), (1, 1, 0)),
            Segment3((3, -1, 0), (3, 2, 0))]
    assert {type(c) for s in segs for c in s.p + s.q} == {Fraction}
    res = transversal_exists_segments(segs)
    assert res.params == [Fraction(1, 2), Fraction(1, 2), 0]
    assert {type(c) for c in res.params + list(res.line.direction)} == {
        Fraction}


def test_side_product_examples():
    xaxis = line_through_points(point3(0, 0, 0), point3(1, 0, 0))
    yaxis = line_through_points(point3(0, 0, 0), point3(0, 1, 0))
    parallel = line_through_points(point3(0, 0, 1), point3(1, 0, 1))
    skew = line_through_points(point3(0, 0, 1), point3(0, 1, 1))
    assert side_product(xaxis, yaxis) == 0
    assert side_product(xaxis, parallel) == 0
    assert side_product(xaxis, skew) != 0
    # hand evaluation of the incidence form for the skew pair
    assert side_form(xaxis, skew) == -1


def _det4_homogeneous(a, b, c, d):
    rows = [list(a) + [Fraction(1)], list(b) + [Fraction(1)],
            list(c) + [Fraction(1)], list(d) + [Fraction(1)]]
    total = Fraction(0)
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(4):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def test_side_product_matches_endpoint_determinant():
    rng = random.Random(2)
    for _ in range(300):
        s = rand_segment(rng, span=16)
        t = rand_segment(rng, span=16)
        sign_pl = side_product(plucker_from_segment(s), plucker_from_segment(t))
        det = _det4_homogeneous(s.p, s.q, t.p, t.q)
        assert (sign_pl == 0) == (det == 0)


def test_side_product_orientation_flip():
    rng = random.Random(3)
    for _ in range(40):
        s, t = rand_segment(rng), rand_segment(rng)
        l1, l2 = plucker_from_segment(s), plucker_from_segment(t)
        flipped = plucker_from_segment(Segment3(s.q, s.p))
        assert side_product(l1, l2) == -side_product(flipped, l2)


def test_plucker_relation_always_holds():
    rng = random.Random(4)
    for _ in range(100):
        line = plucker_from_segment(rand_segment(rng))
        assert v_dot(line.direction, line.moment) == 0


# ---------------------------------------------------------------------------
# supporting lines: the regulus quadratic, and segment fixtures on line
# configurations with a coplanar pair
# ---------------------------------------------------------------------------

def _fraction_family_samples(traces):
    """``_family_samples`` with its cuts and sites as ``Fraction``s."""
    cuts = {Fraction(0), Fraction(1)}
    for (n1, n0), (d1, d0) in traces:
        for a, b in ((n1, n0), (d1, d0), (n1 - d1, n0 - d0)):
            if a and 0 < Fraction(-b, a) < 1:
                cuts.add(Fraction(-b, a))
    cuts = sorted(cuts)
    sites = cuts[:1]
    for lo, hi in zip(cuts, cuts[1:]):
        sites += [(lo + hi) / 2, hi]

    def param(x):
        return _Param(x.numerator, 0, 0, x.denominator, False)

    for accepted, run in itertools.groupby(
            sites, lambda x: _in_unit_range(param(x), traces)):
        if accepted:
            run = list(run)
            lo, hi = run[0], run[-1]
            yield from map(param, ((lo + hi) / 2, lo, hi) if lo != hi
                           else (lo,))


def test_family_samples_match_fraction_cuts():
    rng = random.Random(21)
    sampled = 0
    for _ in range(3000):
        def form():
            return (rng.randint(-6, 6) * rng.choice((1, 7, 1000003)),
                    rng.randint(-6, 6) * rng.choice((1, 7, 1000003)))

        traces = [((1, 0), (0, 1)),
                  *((form(), form()) for _ in range(rng.randint(1, 3)))]
        samples = list(_family_samples(traces))
        assert samples == list(_fraction_family_samples(traces))
        sampled += bool(samples)
    assert sampled >= 500


def test_scaled_regulus_is_the_regulus_of_scaled_lines():
    rng = random.Random(22)
    checked = 0
    while checked < 40:
        segs = [rand_segment(rng, span=8) for _ in range(3)]
        ints, _ = _scaled_int_segments(segs)
        lines = [_int_triple(p, q) for p, q in ints]
        if any(v_dot(d1, m2) + v_dot(d2, m1) == 0 for (_, d1, m1), (_, d2, m2)
               in itertools.combinations(lines, 2)):
            continue
        for c in (2, 3, 60):
            scaled = [_int_triple(tuple(c * x for x in p),
                                  tuple(c * x for x in q)) for p, q in ints]
            assert _scaled_regulus(_regulus(lines), c) == _regulus(scaled)
        checked += 1


small = st.integers(-40, 40)
grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


@given(small, small, small, st.integers(1, 60))
@settings(max_examples=300)
def test_roots_of_a_multiple_keep_their_public_values(qa, qb, qc, g):
    # the kernel finds the roots on the primitive quadratic; their public
    # values are those of the undivided formula over the given radicand
    roots = _quadratic_roots(g * qa, g * qb, g * qc)
    if qa == qb == qc == 0:
        assert roots is None
        return
    want = []
    if qa == 0:
        if qb:
            want = [Fraction(-qc, qb)]
    elif (disc := g * g * (qb * qb - 4 * qa * qc)) >= 0:
        mid, step = Fraction(-qb, 2 * qa), Fraction(1, 2 * g * qa)
        want = [mid] if disc == 0 else [QuadExt(mid, step, disc),
                                        QuadExt(mid, -step, disc)]
    assert repr([t.scalar(t.t0, t.t1, t.h) for t in roots]) == repr(want)


@given(st.lists(st.tuples(grid, grid), min_size=4, max_size=4),
       st.integers(2, 60))
@settings(max_examples=200)
def test_certified_contacts_do_not_depend_on_the_line_scale(ends, g):
    # each segment runs 5 times its span past both ends, so that many
    # candidate lines meet all four
    triples = [_int_triple(v_sub(p, v_scale(v_sub(q, p), 5)),
                           v_add(q, v_scale(v_sub(q, p), 5)))
               for p, q in ends if p != q]
    order = _skew_triple_order([(d, m) for _, d, m in triples])
    if len(triples) < 4 or order is None:
        return
    plane2, plane3, _ = _regulus([triples[i] for i in order])
    for t in _quadratic_roots(*_incidence_quadratic(
            plane2, plane3, triples[order[3]])) or []:
        line = _line_at(plane2, plane3, t)
        params = _certify(line, triples, t.d)
        scaled = _certify(tuple(v_scale(v, g) for v in line), triples, t.d)
        assert (params is None) == (scaled is None)
        if params is not None:
            assert (repr(_public_transversal(line, scaled, t, 1).params)
                    == repr(_public_transversal(line, params, t, 1).params))


def test_random_lines_count_matches_numeric_roots():
    # the incidence quadratic shared by the kernel and the certified filter,
    # against an independent high-precision evaluation of the same regulus
    mp = pytest.importorskip("mpmath")
    mp.mp.prec = 256
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        segs = [rand_segment(rng, span=8) for _ in range(4)]
        lines = [plucker_from_segment(s) for s in segs]
        if any(side_product(a, b) == 0
               for a, b in itertools.combinations(lines, 2)):
            continue
        ints, _ = _scaled_int_segments(segs)
        triples = [_int_triple(p, r) for p, r in ints]
        p1, d1, _ = triples[0]
        roots = _quadratic_roots(*_incidence_quadratic(
            _plane(p1, d1, triples[1]), _plane(p1, d1, triples[2]),
            triples[3]))
        numeric = _numeric_roots(mp, segs)
        if numeric is None:
            continue
        exact = sorted((t.t0 + t.t1 * mp.sqrt(t.d)) / t.h for t in roots)
        assert len(exact) == len(numeric)
        assert all(abs(a - b) < mp.mpf("1e-50") * (1 + abs(b))
                   for a, b in zip(exact, numeric))
        checked += 1
    assert checked >= 30


def _numeric_roots(mp, segs):
    """Sorted real roots of the regulus quadratic in the parameter of the
    first segment, or None when qa or the discriminant is nearly 0."""
    def vec(p):
        return [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in p]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    p = [vec(s.p) for s in segs]
    q = [vec(s.q) for s in segs]
    d = [[x - y for x, y in zip(qq, pp)] for pp, qq in zip(p, q)]
    m = [cross(pp, qq) for pp, qq in zip(p, q)]
    A2 = [x + y for x, y in zip(cross(d[1], p[0]), m[1])]
    B2 = cross(d[1], d[0])
    a2, b2 = -dot(m[1], p[0]), -dot(m[1], d[0])
    A3 = [x + y for x, y in zip(cross(d[2], p[0]), m[2])]
    B3 = cross(d[2], d[0])
    a3, b3 = -dot(m[2], p[0]), -dot(m[2], d[0])
    qa = dot(cross(B2, B3), m[3]) + b2 * dot(d[3], B3) - b3 * dot(d[3], B2)
    qb = (dot(cross(A2, B3), m[3]) + dot(cross(B2, A3), m[3])
          + a2 * dot(d[3], B3) + b2 * dot(d[3], A3)
          - a3 * dot(d[3], B2) - b3 * dot(d[3], A2))
    qc = dot(cross(A2, A3), m[3]) + a2 * dot(d[3], A3) - a3 * dot(d[3], A2)
    scale = max(abs(qa), abs(qb), abs(qc))
    if scale == 0 or abs(qa) < mp.mpf("1e-40") * scale:
        return None
    disc = qb * qb - 4 * qa * qc
    if abs(disc) < mp.mpf("1e-40") * scale * scale:
        return None
    if disc < 0:
        return []
    return sorted((-qb + s * mp.sqrt(disc)) / (2 * qa) for s in (-1, 1))


def _direction_is(line, d):
    return v_cross(line.direction, d) == (0, 0, 0)


def _no_pairwise_skew_triple(segs):
    lines = [plucker_from_segment(s) for s in segs]
    return not any(all(side_product(a, b) != 0
                       for a, b in itertools.combinations(t, 2))
                   for t in itertools.combinations(lines, 3))


def _answer(segs):
    """The witness line, after checking its parameters."""
    res = transversal_exists_segments(segs)
    assert res.exists
    assert verify_transversal(res.line, segs) == res.params
    return res.line


# segments on the x and y axes and on the skew lines through (1, 1, -1),
# (1, 2, 1) and through (-1, 2, -1), (2, -1, 1); the four lines have two
# transversals, one through the origin along (7, 10, -1) and one in z = 0
# along (1, 2, 0) through (1/4, 0, 0)
_L3 = ((1, 1, -1), (1, 2, 1))
_L4 = ((-1, 2, -1), (2, -1, 1))


def test_two_axes_and_two_skew_lines():
    x_axis, y_axis = ((-1, 0, 0), (1, 0, 0)), ((0, -1, 0), (0, 1, 0))
    line = _answer(_segs(x_axis, y_axis, _L3, _L4))
    assert _direction_is(line, (7, 10, -1)) or _direction_is(line, (1, 2, 0))
    # off the origin only the line in z = 0 is left
    line = _answer(_segs((("1/8", 0, 0), (1, 0, 0)), y_axis, _L3, _L4))
    assert _direction_is(line, (1, 2, 0))
    assert line.moment[0] == line.moment[1] == 0   # inside z = 0
    # cut before z = 0 on the third line only the one through 0 is left
    line = _answer(_segs(x_axis, y_axis, ((1, 1, -1), (1, "29/20", "-1/10")),
                         _L4))
    assert _direction_is(line, (7, 10, -1))
    assert v_cross(line.direction, line.moment) == (0, 0, 0)


def test_parallel_pair_and_two_skew_lines():
    # the only line meeting both parallels and the skew lines is x = 1,
    # y = 0, which meets the third line at (1, 0, -3)
    x_axis, x_up = ((0, 0, 0), (2, 0, 0)), ((0, 0, 1), (2, 0, 1))
    line = _answer(_segs(x_axis, x_up, ((1, 0, -3), (1, 2, 1)), _L4))
    assert same_line(line,
                     line_through_points(point3(1, 0, 0), point3(1, 0, 1)))
    assert not transversal_exists_segments(
        _segs(x_axis, x_up, _L3, _L4)).exists


def test_two_meeting_pairs_give_two_transversals():
    # the x and y axes meet at 0, the lines through (1, 1, 1) along
    # (1, 0, 2) and (0, 2, 1) meet there: the transversals are the line
    # through both points and the meet of the two planes, which crosses
    # the four lines at (3/4, 0, 0), (0, 3, 0), (1/2, 1, 0) and (1, -1, 0)
    s1, s2 = ((-1, 0, 0), (1, 0, 0)), ((0, -1, 0), (0, 4, 0))
    s3, s4 = ((0, 1, -1), ("3/2", 1, 2)), ((1, -3, -1), (1, 2, "3/2"))
    through_points = line_through_points(point3(0, 0, 0), point3(1, 1, 1))
    meet_of_planes = line_through_points(point3(0, 3, 0), point3(1, -1, 0))
    assert _no_pairwise_skew_triple(_segs(s1, s2, s3, s4))
    assert same_line(_answer(_segs(s1, s2, s3, s4)), through_points)
    # the fourth segment ends before (1, 1, 1): only the meet of the planes
    s4_short = ((1, -3, -1), (1, 0, "1/2"))
    assert same_line(_answer(_segs(s1, s2, s3, s4_short)), meet_of_planes)
    # the third segment also starts after (1/2, 1, 0): neither
    s3_short = (("3/4", 1, "1/2"), ("3/2", 1, 2))
    assert not transversal_exists_segments(
        _segs(s1, s2, s3_short, s4_short)).exists


def test_parallel_pair_and_meeting_pair_give_one_transversal():
    # parallels in y = 0 and two segments meeting at (1, 1, 1): the one
    # transversal lies in y = 0 and crosses the last two at (0, 0, -1) and
    # (1, 0, 0); every order finds it
    segs = _segs(((0, 0, 0), (3, 0, 0)), ((0, 0, 1), (3, 0, 1)),
                 ((-1, -1, -3), (1, 1, 1)), ((1, -1, -1), (1, 1, 1)))
    assert _no_pairwise_skew_triple(segs)
    expected = line_through_points(point3(0, 0, -1), point3(1, 0, 0))
    for perm in itertools.permutations(segs):
        assert same_line(_answer(list(perm)), expected)


def test_four_concurrent_lines_are_infinite():
    # four segments through x: every line through x meets them all
    x = point3(1, 2, 3)
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    segs = [Segment3(v_sub(x, d), v_add(x, d)) for d in dirs]
    assert _no_pairwise_skew_triple(segs)
    assert _point_on_line(x, _answer(segs))
    for d in [(1, 2, 3), (-1, 5, 0), (0, 1, -7)]:
        line = line_through_points(x, v_add(x, d))
        assert verify_transversal(line, segs) is not None
    # three through x and one missing it: the lines joining x to it
    away = Segment3(point3(2, 0, 0), point3(0, 1, 5))
    line = _answer(segs[:3] + [away])
    assert _point_on_line(x, line)
    for u in (Fraction(0), Fraction(1, 3), Fraction(1)):
        line = line_through_points(x, away.at(u))
        assert verify_transversal(line, segs[:3] + [away]) is not None


def _meeting_or_parallel_pair(rng):
    def pt():
        return point3(*(rng.randint(-3, 3) for _ in range(3)))

    while True:
        x, d1, d2 = pt(), pt(), pt()
        if d1 == (0, 0, 0) or d2 == (0, 0, 0):
            continue
        if rng.random() < 0.5:   # parallel: the second is a translate
            y = v_add(x, pt())
            pair = [Segment3(x, v_add(x, d1)), Segment3(y, v_add(y, d1))]
        else:                    # both start at x
            pair = [Segment3(x, v_add(x, d1)), Segment3(x, v_add(x, d2))]
        lines = [plucker_from_segment(s) for s in pair]
        if not same_line(*lines):
            return pair


def test_degenerate_transversals_meet_all_four_lines():
    rng = random.Random(13)
    found = 0
    for _ in range(300):
        segs = _meeting_or_parallel_pair(rng) + _meeting_or_parallel_pair(rng)
        assert _no_pairwise_skew_triple(segs)
        res = transversal_exists_segments(segs)
        if res.exists:
            assert verify_transversal(res.line, segs) == res.params
            assert all(side_product(res.line, plucker_from_segment(s)) == 0
                       for s in segs)
            found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# segment transversals
# ---------------------------------------------------------------------------

def _circle_point(n, d):
    dd = n * n + d * d
    return Fraction(d * d - n * n, dd), Fraction(2 * n * d, dd)


def test_four_segments_through_common_axis():
    segs = []
    for i, (n, d) in enumerate([(0, 1), (1, 2), (1, 1), (2, 1)], start=1):
        c, s = _circle_point(n, d)
        segs.append(Segment3(point3(c, s, i), point3(-c, -s, i)))
    res = transversal_exists_segments(segs)
    assert res.exists
    zaxis = line_through_points(point3(0, 0, 0), point3(0, 0, 1))
    assert same_line(res.line, zaxis)
    assert res.params == [Fraction(1, 2)] * 4


def test_shrunk_segments_lose_transversal():
    segs = []
    for i, (n, d) in enumerate([(0, 1), (1, 2), (1, 1), (2, 1)], start=1):
        c, s = _circle_point(n, d)
        segs.append(Segment3(point3(c, s, i), point3(c / 2, s / 2, i)))
    assert not transversal_exists_segments(segs).exists
    # sampled line candidates agree that nothing works
    rng = random.Random(6)
    for _ in range(500):
        i, j = rng.sample(range(4), 2)
        ti = Fraction(rng.randint(0, 16), 16)
        tj = Fraction(rng.randint(0, 16), 16)
        a, b = segs[i].at(ti), segs[j].at(tj)
        if a == b:
            continue
        cand = line_through_points(a, b)
        assert verify_transversal(cand, segs) is None


def test_three_segments_sharing_point():
    s1 = Segment3(point3(1, 1, 1), point3(2, 3, 4))
    s2 = Segment3(point3(0, 0, 0), point3(2, 2, 2))
    s3 = Segment3(point3(1, 1, 1), point3(-1, 5, 0))
    res = transversal_exists_segments([s1, s2, s3])
    assert res.exists
    assert verify_transversal(res.line, [s1, s2, s3]) is not None


def test_witness_reverifies_and_has_quad_coordinates():
    rng = random.Random(7)
    found_irrational = 0
    for _ in range(400):
        segs = [rand_segment(rng) for _ in range(4)]
        res = transversal_exists_segments(segs)
        if not res.exists:
            continue
        params = verify_transversal(res.line, segs)
        assert params is not None
        assert all(side_product(res.line, plucker_from_segment(s)) == 0
                   for s in segs)
        if not res.line.is_rational():
            found_irrational += 1
    assert found_irrational > 0


def _full_pluecker_check(line, t, scale):
    """The public line of the kernel's integer line, built by
    ``PluckerLine`` with its own checks in exact scalar arithmetic."""
    da, db, ma, mb = line
    hh = t.h * t.h
    return PluckerLine(
        tuple(t.scalar(a, b, hh) for a, b in zip(da, db)),
        tuple(t.scalar(a, b, hh * scale) for a, b in zip(ma, mb)))


def _line_outcome(build, line, t, scale):
    try:
        return repr(build(line, t, scale))
    except ValueError as e:     # DegenerateInput is a ValueError too
        return type(e).__name__


def test_pluecker_check_on_the_kernel_integers(monkeypatch):
    calls = []
    public_line = geometry._public_line
    monkeypatch.setattr(geometry, "_public_line",
                        lambda *args: calls.append(args) or public_line(*args))
    rng = random.Random(7)
    for _ in range(100):
        segs = [rand_segment(rng) for _ in range(4)]
        # four segments give roots of the quadratic, three the rational
        # samples of a family
        transversal_exists_segments(segs)
        transversal_exists_segments(segs[:3])
    monkeypatch.undo()
    assert any(t.d for _, t, _ in calls) and any(not t.d for _, t, _ in calls)
    changed, raised = 0, 0
    for line, t, scale in calls:
        assert (_line_outcome(public_line, line, t, scale)
                == repr(_full_pluecker_check(line, t, scale)))
        # with a rational t the line has no sqrt(d) parts db, mb to change
        for part in ((0, 1, 2, 3) if t.d else (0, 2)):
            for k in range(3):
                bad = [list(v) for v in line]
                bad[part][k] += 1
                got = _line_outcome(public_line, bad, t, scale)
                assert got == _line_outcome(_full_pluecker_check, bad, t,
                                            scale)
                changed += 1
                raised += got == "ValueError"
    assert raised == changed


def test_zero_integer_direction_is_degenerate():
    zero = (0, 0, 0)
    for t in (_Param(1, 0, 0, 2, False), _Param(-3, 1, 5, 2, True)):
        with pytest.raises(DegenerateInput):
            _public_line((zero, zero, (1, 2, 3), zero), t, 3)
        with pytest.raises(DegenerateInput):
            _full_pluecker_check((zero, zero, (1, 2, 3), zero), t, 3)
    # with an irrational t, a direction of sqrt(d) parts alone is nonzero
    t = _Param(-3, 1, 5, 2, True)
    line = (zero, (1, 0, 0), (0, 1, 0), zero)
    assert (repr(_public_line(line, t, 3))
            == repr(_full_pluecker_check(line, t, 3)))


def test_invariance_under_permutation_and_flip():
    rng = random.Random(8)
    for _ in range(60):
        segs = [rand_segment(rng, span=8) for _ in range(4)]
        base = transversal_exists_segments(segs).exists
        perm = list(segs)
        rng.shuffle(perm)
        assert transversal_exists_segments(perm).exists == base
        flipped = [Segment3(s.q, s.p) if rng.random() < 0.5 else s
                   for s in segs]
        assert transversal_exists_segments(flipped).exists == base


def test_invariance_under_affine_map():
    rng = random.Random(9)
    M = ((2, 1, 0), (0, 1, 1), (1, 0, 3))  # det = 7, invertible
    shift = point3(Fraction(1, 3), Fraction(-2, 5), 4)

    def apply(p):
        img = tuple(sum(Fraction(M[i][j]) * p[j] for j in range(3))
                    for i in range(3))
        return v_add(img, shift)

    for _ in range(40):
        segs = [rand_segment(rng, span=8) for _ in range(4)]
        base = transversal_exists_segments(segs).exists
        mapped = [Segment3(apply(s.p), apply(s.q)) for s in segs]
        assert transversal_exists_segments(mapped).exists == base


def test_monotone_under_extension():
    rng = random.Random(10)
    grown = 0
    for _ in range(80):
        segs = [rand_segment(rng, span=8) for _ in range(4)]
        if not transversal_exists_segments(segs).exists:
            continue
        grown += 1
        wider = [Segment3(v_add(s.p, v_cross((0, 0, 0), (0, 0, 0))), s.q)
                 for s in segs]
        extended = [Segment3(s.at(Fraction(-1, 2)), s.at(Fraction(3, 2)))
                    for s in segs]
        assert transversal_exists_segments(extended).exists
    assert grown > 0


# -- degenerate configurations ------------------------------------------------

def test_collinear_pair_reuses_common_line():
    # two collinear disjoint segments force the common supporting line
    s1 = Segment3(point3(0, 0, 0), point3(1, 0, 0))
    s2 = Segment3(point3(2, 0, 0), point3(3, 0, 0))
    s3 = Segment3(point3(Fraction(1, 2), -1, 0), point3(Fraction(1, 2), 1, 0))
    s4 = Segment3(point3(Fraction(5, 2), -1, 0), point3(Fraction(5, 2), 1, 0))
    res = transversal_exists_segments([s1, s2, s3, s4])
    assert res.exists
    xaxis = line_through_points(point3(0, 0, 0), point3(1, 0, 0))
    assert same_line(res.line, xaxis)
    # moving one crossing segment off the line kills it
    s4b = Segment3(point3(Fraction(5, 2), 1, 1), point3(Fraction(5, 2), 2, 1))
    assert not transversal_exists_segments([s1, s2, s3, s4b]).exists


def test_pencil_through_shared_intersection():
    # two segments crossing at a point, two others reachable from it
    s1 = Segment3(point3(-1, 0, 0), point3(1, 0, 0))
    s2 = Segment3(point3(0, -1, 0), point3(0, 1, 0))
    s3 = Segment3(point3(2, 2, 2), point3(3, 2, 2))
    s4 = Segment3(point3(4, 4, 4), point3(4, 5, 4))
    # the pencil through the origin finds the diagonal, which meets s3 at
    # (2, 2, 2) and s4 at (4, 4, 4)
    line = _answer([s1, s2, s3, s4])
    assert same_line(line, line_through_points(point3(0, 0, 0),
                                               point3(1, 1, 1)))


def test_coplanar_quadruple_in_plane_stab():
    # four segments in the z = 0 plane admitting an in-plane transversal
    s1 = Segment3(point3(0, 0, 0), point3(0, 2, 0))
    s2 = Segment3(point3(1, 0, 0), point3(1, 2, 0))
    s3 = Segment3(point3(2, 0, 0), point3(2, 2, 0))
    s4 = Segment3(point3(3, 0, 0), point3(3, 2, 0))
    res = transversal_exists_segments([s1, s2, s3, s4])
    assert res.exists
    assert verify_transversal(res.line, [s1, s2, s3, s4]) is not None
    # shifting one far in y removes every in-plane stabber
    s4b = Segment3(point3(3, 10, 0), point3(3, 12, 0))
    assert not transversal_exists_segments([s1, s2, s3, s4b]).exists


@pytest.mark.parametrize("ends", [
    # the line of the first segment passes through (2, 2, 2), where the
    # other two meet
    (((1, 2, 1), (0, 2, 0)), ((2, 2, 2), (1, 1, 1)), ((2, 2, 2), (0, 0, 1))),
    # the first two touch at (1, 0, 0) on the x axis; the other two lie on
    # one line through that point
    (((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0)), ((1, 1, 1), (1, 2, 2)),
     ((1, 3, 3), (1, 4, 4))),
])
def test_supporting_line_through_the_pencil_point(ends):
    # the only transversals are a supporting line through the point that
    # the other segments share; every order must find it
    for perm in itertools.permutations(_segs(*ends)):
        _answer(list(perm))


_GRID = list(itertools.product(range(3), repeat=3))


def _hub_set(rng):
    """Three or four segments on {0,1,2}^3 around a random hub x: each has
    an endpoint at x, lies on a grid line through x without containing
    it, or is random."""
    x = rng.choice(_GRID)
    rays = [(v_add(x, d), v_add(x, v_add(d, d)))
            for d in itertools.product((-1, 0, 1), repeat=3)
            if any(d) and v_add(x, v_add(d, d)) in _GRID]
    ends = []
    for _ in range(rng.choice((3, 4))):
        kind = rng.randrange(3)
        if kind == 0:
            ends.append((x, rng.choice([g for g in _GRID if g != x])))
        elif kind == 1 and rays:
            ends.append(rng.choice(rays))
        else:
            ends.append(tuple(rng.sample(_GRID, 2)))
    return _segs(*ends)


def test_grid_corpus_is_order_invariant():
    rng = random.Random(17)
    positives = 0
    for _ in range(80):
        segs = _hub_set(rng)
        answers = set()
        for perm in itertools.permutations(segs):
            perm = [Segment3(s.q, s.p) if rng.random() < 0.5 else s
                    for s in perm]
            res = transversal_exists_segments(perm)
            if res.exists:
                assert verify_transversal(res.line, perm) == res.params
            answers.add(res.exists)
        assert len(answers) == 1, segs
        positives += answers == {True}
    assert 0 < positives < 80


@pytest.mark.parametrize("ends, through", [
    # k = 3, the two collinear segments touch at one point
    ((((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0)), ((0, 1, 1), (0, 2, 1))),
     (1, 0, 0)),
    # k = 3, they overlap in [1, 2]
    ((((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)), ((0, 1, 1), (0, 2, 1))),
     (1, 0, 0)),
    # k = 4, they overlap in [1, 2]; the reduced three-segment problem
    # finds the line through (3/2, 0, 0), (1, -1, 1) and (2, 1, -1)
    ((((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)),
      ((1, -1, 1), (1, 1, 1)), ((2, -1, -1), (2, 1, -1))),
     ("3/2", 0, 0)),
])
def test_shared_line_reduces_to_the_overlap(ends, through):
    line = _answer(_segs(*ends))
    assert _point_on_line(point3(*through), line)
    assert not _point_on_line(point3(0, 0, 0), line)   # not the x axis


@pytest.mark.parametrize("ends", [
    # k = 4 touching at (1, 0, 0): no line through it meets both others
    (((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (2, 0, 0)),
     ((1, 1, 1), (1, 2, 1)), ((1, -1, 2), (1, -2, 2))),
    # k = 4 overlapping in [1, 2]: the last two segments sit too high
    (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)),
     ((1, 5, 1), (1, 6, 1)), ((2, -1, -1), (2, 1, -1))),
])
def test_shared_line_without_transversal(ends):
    segs = _segs(*ends)
    assert not transversal_exists_segments(segs).exists
    rng = random.Random(18)
    for _ in range(300):
        i, j = rng.sample(range(4), 2)
        a = segs[i].at(Fraction(rng.randint(0, 12), 12))
        b = segs[j].at(Fraction(rng.randint(0, 12), 12))
        if a != b:
            assert verify_transversal(line_through_points(a, b), segs) is None


_O = point3(0, 0, 0)


@pytest.mark.parametrize("ends, expected", [
    # the point lies on both segments: any line through it
    ([((-1, 0, 0), (1, 0, 0)), ((0, -1, 0), (0, 1, 0))], "through x"),
    # one free segment whose line passes through the point
    ([((-1, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 2, 0))], "its line"),
    # one free segment off the point: the join to its first endpoint
    ([((0, 1, 1), (0, 2, 1))], "through x"),
    # two free segments on one line through the point
    ([((1, 0, 0), (2, 0, 0)), ((3, 0, 0), (4, 0, 0))], "its line"),
    # two free segments on one line off the point, overlapping in [1, 2]
    ([((0, 1, 0), (2, 1, 0)), ((1, 1, 0), (3, 1, 0))], "through x"),
    # ... and disjoint
    ([((0, 1, 0), (1, 1, 0)), ((2, 1, 0), (3, 1, 0))], None),
    # the line of the first passes through the point and misses the second
    ([((1, 0, 0), (2, 0, 0)), ((0, 1, 1), (0, 2, 1))], None),
    # the line of the second passes through the point and meets the first
    ([((3, -1, 0), (3, 1, 0)), ((1, 0, 0), (2, 0, 0))], "its line"),
    # both free segments in one plane with the point: the fan search finds
    # the line through (1, 1, 0) and (2, 2, 0) ...
    ([((1, -1, 0), (1, 1, 0)), ((2, 1, 0), (2, 3, 0))], "through x"),
    # ... or proves that the two angles are disjoint
    ([((1, -1, 0), (1, 1, 0)), ((2, 3, 0), (2, 5, 0))], None),
    # the first crosses the plane of the point and the second at (5, 5, 0)
    ([((5, 5, -1), (5, 5, 1)), ((1, -1, 0), (1, 1, 0))], "through x"),
    # ... at (5, 20, 0), whose join to 0 passes the second too high
    ([((5, 20, -1), (5, 20, 1)), ((1, -1, 0), (1, 1, 0))], None),
    # ... or stays on one side of that plane
    ([((5, 5, 1), (5, 6, 2)), ((1, -1, 0), (1, 1, 0))], None),
    # one free segment beside one through the point
    ([((-1, 0, 0), (1, 0, 0)), ((0, 1, 1), (0, 2, 1))], "through x"),
    # the first meets the plane of the point and the second at its end
    ([((5, 5, 0), (5, 5, 1)), ((1, -1, 0), (1, 1, 0))], "through x"),
    # both in one plane with the point: only the line to (2, 2, 0), an end
    # of the second, meets both
    ([((1, -1, 0), (1, 3, 0)), ((2, 2, 0), (2, 4, 0))], "through x"),
])
def test_pencil_through_point(ends, expected):
    segs = _segs(*ends)
    line = _pencil_through_point(_O, segs)
    if expected is None:
        assert line is None
        return
    assert _point_on_line(_O, line)
    assert verify_transversal(line, segs) is not None
    if expected == "its line":
        assert any(same_line(line, plucker_from_segment(s)) for s in segs)


@pytest.mark.parametrize("third, exists", [
    (((1, 1, 0), (1, 1, 5)), True),     # touches z = 0 at its endpoint
    (((1, 1, -1), (1, 1, 1)), True),    # crosses z = 0 at (1, 1, 0)
    (((1, 3, -1), (1, 3, 1)), False),   # crosses z = 0 beyond reach
    (((1, 1, 1), (1, 1, 5)), False),    # stays above z = 0
])
def test_stab_in_plane_traces(third, exists):
    # two segments in z = 0 and a third that meets the plane at most once:
    # the in-plane candidates pass its trace and an endpoint
    segs = _segs(((0, 0, 0), (0, 2, 0)), ((2, 0, 0), (2, 2, 0)), third)
    line = _stab_in_plane((0, 0, 1), 0, segs)
    assert (line is not None) == exists
    if exists:
        assert verify_transversal(line, segs) is not None
        assert line.direction[2] == 0 and _point_on_line(
            point3(1, 1, 0), line)


_HALVES = [Fraction(a, 2) for a in range(7)]


def _no_skew_triple(segs):
    lines = [plucker_from_segment(s) for s in segs]
    return not any(all(side_product(lines[a], lines[b])
                       for a, b in itertools.combinations(triple, 2))
                   for triple in itertools.combinations(range(len(segs)), 3))


def _degenerate_corpus(count=2000, seed=1102):
    """Seeded sets of 3 or 4 segments with no three supporting lines
    pairwise skew, in turn flat, with two segments on one line, with
    segments sharing an endpoint, and with an endpoint inside another
    segment, built from points with coordinates in halves."""
    rng = random.Random(seed)

    def grid_point():
        return tuple(rng.choice(_HALVES) for _ in range(3))

    def seg(p, q):
        return Segment3(p, q) if rng.random() < 0.5 else Segment3(q, p)

    def random_seg():
        p, q = grid_point(), grid_point()
        return seg(p, q) if p != q else random_seg()

    def extras(segs, k):
        # random segments, or ones from an endpoint of an earlier segment
        while len(segs) < k:
            s = random_seg()
            if rng.random() < 0.5:
                x = rng.choice(segs).p
                s = seg(x, s.q) if x != s.q else s
            segs.append(s)
        return segs

    corpus = []
    while len(corpus) < count:
        k, kind = rng.choice((3, 4)), len(corpus) % 4
        if kind == 0:       # in the plane z = c - a x - b y
            a, b = rng.choice((0, 1, -1, 2)), rng.choice((0, 1, -1))
            c = rng.choice(_HALVES)
            pts = [(x, y, c - a * x - b * y) for x, y in (
                (rng.choice(_HALVES), rng.choice(_HALVES))
                for _ in range(2 * k))]
            segs = [seg(p, q) for p, q in zip(pts[::2], pts[1::2]) if p != q]
        elif kind == 1:     # two segments on one line, apart or overlapping
            p = grid_point()
            d = tuple(rng.choice((-1, 0, 1)) for _ in range(3))
            if not any(d):
                continue
            ts = sorted(rng.sample(range(-4, 5), 4))
            ts = rng.choice((ts, [ts[0], ts[2], ts[1], ts[3]],
                             [ts[0], ts[1], ts[1], ts[2]]))
            ends = [v_add(p, tuple(Fraction(t, 2) * c for c in d))
                    for t in ts]
            segs = extras([seg(*ends[:2]), seg(*ends[2:])], k)
        elif kind == 2:     # two or all segments from one hub
            hub = grid_point()
            segs = [seg(hub, q) for q in (grid_point() for _ in range(
                rng.choice((2, k)))) if q != hub]
            if not segs:
                continue
            segs = extras(segs, k)
        else:               # an endpoint inside another segment
            s = random_seg()
            x, q = s.at(Fraction(rng.randint(1, 3), 4)), grid_point()
            if q == x:
                continue
            segs = extras([s, seg(x, q)], k)
        if len(segs) == k and _no_skew_triple(segs):
            rng.shuffle(segs)
            corpus.append(segs)
    return corpus


@pytest.fixture(scope="module")
def degenerate_answers():
    corpus = _degenerate_corpus()
    return corpus, [transversal_exists_segments(s) for s in corpus]


def test_degenerate_corpus_answers_are_pinned(degenerate_answers):
    # exists, contact parameters and the line with its first nonzero
    # direction component scaled to 1, so that no positive factor shows
    corpus, answers = degenerate_answers
    rows = []
    for segs, res in zip(corpus, answers):
        if not res.exists:
            rows.append("-")
            continue
        assert verify_transversal(res.line, segs) == res.params
        line = res.line.direction + res.line.moment
        f = next(c for c in line if c != 0)
        rows.append(" ".join(map(str, [*res.params, *(c / f for c in line)])))
    assert sum(r != "-" for r in rows) == 1778
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == (
        "649e7bf9294b11d1")


def test_stab_in_plane_builds_and_verifies_at_most_one_line(
        degenerate_answers, monkeypatch):
    # candidates are tested on orient2d signs; only the answer becomes a
    # line, which the caller certifies once on all of its segments
    corpus, answers = degenerate_answers
    calls, inside, verified = [], [], []
    stab = geometry._stab_in_plane

    def counted_stab(*args, **kwargs):
        calls.append([0, 0])
        inside.append(True)
        try:
            return stab(*args, **kwargs)
        finally:
            inside.pop()

    def counted(i, f):
        def wrapper(*args):
            if inside:
                calls[-1][i] += 1
            out = f(*args)
            if i == 1 and out is not None:
                verified.append(out)
            return out
        return wrapper

    monkeypatch.setattr(geometry, "_stab_in_plane", counted_stab)
    monkeypatch.setattr(geometry, "line_through_points",
                        counted(0, geometry.line_through_points))
    monkeypatch.setattr(geometry, "verify_transversal",
                        counted(1, geometry.verify_transversal))
    for segs, res in zip(corpus, answers):
        got = transversal_exists_segments(segs)
        assert (got.exists, got.params) == (res.exists, res.params)
    assert len(calls) > 500
    assert {tuple(c) for c in calls} == {(0, 0), (1, 0)}
    # one certificate per answer, but for the shared-line rows whose
    # overlap sub-problem certifies its own answer first (2,697 successful
    # verifications when _stab_in_plane certified its line as well)
    assert len(verified) <= 1823


def _pluecker_pair(segs):
    """The pair and case that same_line, then side_product, pick on the
    segments' Pluecker lines."""
    lines = [plucker_from_segment(s) for s in segs]
    pairs = list(itertools.combinations(range(len(segs)), 2))
    for i, j in pairs:
        if same_line(lines[i], lines[j]):
            return i, j, True
    for i, j in pairs:
        if side_product(lines[i], lines[j]) == 0:
            return i, j, False


def test_coplanar_pair_matches_the_pluecker_predicates(degenerate_answers):
    corpus, _ = degenerate_answers
    rng = random.Random(20)
    turned = [[Segment3(s.q, s.p) for s in rng.sample(segs, len(segs))]
              for segs in rng.sample(corpus, 200)]
    for segs in corpus + turned:
        ints, _ = _scaled_int_segments(segs)
        triples = [_int_triple(p, q) for p, q in ints]
        assert _coplanar_pair(triples) == _pluecker_pair(segs)


@pytest.mark.parametrize("factor", [Fraction(2) ** 30, Fraction(2) ** -30])
def test_degenerate_corpus_survives_scaling_and_translation(
        degenerate_answers, factor):
    corpus, answers = degenerate_answers
    for segs, res in zip(corpus, answers):
        moved = [Segment3(*(tuple(c * factor + 10 ** 6 for c in x)
                            for x in (s.p, s.q))) for s in segs]
        got = transversal_exists_segments(moved)
        assert (got.exists, got.params) == (res.exists, res.params)


# ---------------------------------------------------------------------------
# planar segment classification
# ---------------------------------------------------------------------------

def test_segments_intersect_2d_examples():
    assert segments_intersect_2d(((0, 0), (1, 1)), ((0, 1), (1, 0))) == "crossing"
    assert segments_intersect_2d(((0, 0), (1, 0)), ((0, 1), (1, 1))) == "disjoint"
    assert segments_intersect_2d(((0, 0), (1, 0)), ((1, 0), (2, 1))) == "touching"
    # collinear overlap is touching, not crossing
    assert segments_intersect_2d(((0, 0), (2, 0)), ((1, 0), (3, 0))) == "touching"


@given(st.tuples(coord, coord), st.tuples(coord, coord),
       st.tuples(coord, coord), st.tuples(coord, coord))
@settings(max_examples=200)
def test_segments_intersect_2d_symmetry(a, b, c, d):
    if a == b or c == d:
        return
    r1 = segments_intersect_2d((a, b), (c, d))
    assert r1 == segments_intersect_2d((c, d), (a, b))
    assert r1 == segments_intersect_2d((b, a), (c, d))


# -- the integer regulus core, one fixture per branch ---------------------------

def q(a, b="0", d=0):
    return QuadExt(Fraction(a), Fraction(b), d)


def _segs(*ends):
    return [Segment3(tuple(map(Fraction, p)), tuple(map(Fraction, r)))
            for p, r in ends]


# segments, then the witness line (direction, moment) and parameters
REGULUS_BRANCHES = {
    # irrational roots: t = (-qb +- sqrt(D)) / 2qa with D = 149904
    "non-square D": (
        _segs(((3, -1, 3), (-3, 2, 0)), ((-3, 1, -2), (3, 1, 2)),
              ((2, 2, -1), (0, -1, 3)), ((-2, -3, -3), (1, 1, 1))),
        (q("120012/4225", "463/8450", 149904),
         q("-71316/4225", "-851/12675", 149904),
         q("99786/4225", "2417/25350", 149904)),
        (q("113598/4225", "3031/25350", 149904),
         q("12756/4225", "-331/8450", 149904),
         q("-28146/845", "-77/845", 149904)),
        [q("17/65", "-1/2340", 149904), q("427/688", "-1/8256", 149904),
         q("-2/61", "1/732", 149904), q("515/544", "-1/19584", 149904)]),
    # two rational roots; the witness touches the last segment at u = 1
    "perfect-square D": (
        _segs(((-2, 1, 1), (1, 1, -1)), ((-2, 1, -2), (1, 1, 2)),
              ((-2, 1, 0), (-1, 2, -2)), ((0, -2, -2), (-2, 2, -2))),
        (q(18), q(-12), q(24)), (q(24), q(12), q(-12)),
        [q("1/2"), q("1/2"), q("3/5"), q(1)]),
    # double root; contacts at u = 0
    "disc = 0": (
        _segs(((-1, -2, -1), (2, 1, 1)), ((1, 0, -1), (-2, -2, 0)),
              ((1, 0, -1), (0, 1, 1)), ((0, 1, -1), (2, 0, -1))),
        (Fraction(14), Fraction(14), Fraction(0)),
        (Fraction(14), Fraction(-14), Fraction(14)),
        [Fraction(0), Fraction(0), Fraction(0), Fraction(2, 3)]),
    "qa = 0": (
        _segs(((-2, -1, 1), (2, 1, -1)), ((0, 2, 1), (0, -2, 0)),
              ((-1, -2, 1), (0, 0, 1)), ((2, -2, -1), (-2, -1, 2))),
        (Fraction(-88, 25), Fraction(-104, 25), Fraction(84, 25)),
        (Fraction(-8, 25), Fraction(-32, 25), Fraction(-48, 25)),
        [Fraction(7, 10), Fraction(7, 11), Fraction(1, 3), Fraction(2, 3)]),
    # rational endpoints: scale = 2 divides the moment once more
    "scale != 1": (
        _segs(((2, -1, "-1/2"), ("-3/2", "-1/2", "3/2")),
              ((-1, -2, 1), (0, -2, -1)),
              (("-3/2", -2, 1), ("3/2", -1, "-1/2")),
              (("3/2", "-3/2", 1), ("-1/2", "-3/2", -1))),
        (q("4957316/185761", "-68517/1486088", 737280),
         q("1155456/185761", "-12623/743044", 737280),
         q("-3020668/185761", "27023/1486088", 737280)),
        (q("4152312/185761", "-19515/743044", 737280),
         q("2943434/185761", "-47799/2972176", 737280),
         q("8392392/185761", "-116903/1486088", 737280)),
        [q("34/431", "1/6896", 737280), q("7/22", "1/3168", 737280),
         q("-32/29", "1/464", 737280), q("1/2", "1/12288", 737280)]),
    "k = 3": (
        _segs(((1, "-3/2", -1), (1, 1, "3/2")),
              (("-1/2", "-3/2", 1), ("-1/2", 1, 1)),
              (("1/2", 0, "1/2"), ("3/2", 1, -1))),
        (Fraction(-55, 2), Fraction(1345, 72), Fraction(1045, 72)),
        (Fraction(-65, 8), Fraction(-2915, 144), Fraction(1535, 144)),
        [Fraction(29, 60), Fraction(49, 55), Fraction(1, 35)]),
    # the family meets all three segments for t in [0, 1/2] and [2/3, 1]
    "k = 3, two components": (
        _segs(((2, 2, -1), (2, -1, 0)), ((1, 0, 0), (-1, -1, -2)),
              ((-2, 0, 1), (1, 0, -1))),
        (Fraction(-69, 4), Fraction(-255, 16), Fraction(-3, 16)),
        (Fraction(-195, 16), Fraction(213, 16), Fraction(-165, 16)),
        [Fraction(1, 4), Fraction(5, 13), Fraction(15, 17)]),
    # the incidence quadratic vanishes identically (roots is None); the
    # fourth segment lies on the first line
    "full ruling": (
        _segs(((0, 1, 1), (1, 1, 0)), ((-1, 1, -2), (2, 0, 0)),
              ((2, -2, -2), (1, -1, 1)), ((-1, 1, 2), (2, 1, -1))),
        (Fraction(6), Fraction(-18), Fraction(-12)),
        (Fraction(-12), Fraction(12), Fraction(-24)),
        [Fraction(1), Fraction(3, 4), Fraction(0), Fraction(2, 3)]),
    "full ruling, fourth on line 2": (
        _segs(((1, 2, -1), (0, -2, 0)), ((2, -1, 0), (2, 2, 2)),
              ((-2, -1, 2), (0, 0, -2)), ((2, "1/2", 1), (2, "7/2", 3))),
        (Fraction(1931072, 5625), Fraction(1163888, 5625),
         Fraction(2847328, 5625)),
        (Fraction(1753576, 5625), Fraction(-2835184, 5625),
         Fraction(-2024, 375)),
        [Fraction(61, 150), Fraction(77, 104), Fraction(181, 196),
         Fraction(25, 104)]),
    "full ruling, fourth on line 3": (
        _segs(((-1, -2, 2), (0, -2, -1)), ((-2, -2, 2), (-1, 1, 2)),
              ((-2, -2, 1), (-2, -1, 2)),
              ((-2, "-5/2", "1/2"), (-2, "-1/2", "5/2"))),
        (Fraction(48), Fraction(-48), Fraction(0)),
        (Fraction(96), Fraction(96), Fraction(144)),
        [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(3, 4)]),
    # the witness is the z axis, which contains the fourth segment: its
    # parameter is reported as 0
    "contained segment": (
        _segs(((-1, 0, 0), (1, 0, 0)), ((0, -1, 1), (0, 1, 1)),
              ((-1, -1, 2), (1, 1, 2)), ((0, 0, -1), (0, 0, 3))),
        (Fraction(0), Fraction(0), Fraction(-8)), (Fraction(0),) * 3,
        [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(0)]),
    # four lines of one ruling of x^2 + y^2 - z^2 = 1, through
    # ((1 - m^2)/(1 + m^2), 2m/(1 + m^2), 0) along (-y, x, 1) for
    # m = 0, 1/2, 3, 1
    "full ruling, hyperboloid": (
        _segs(((1, -1, -1), (1, 1, 1)),
              (("9/5", "-1/10", "-3/2"), (-1, 2, 2)),
              (("2/5", "11/5", -2), (-2, -1, 2)),
              ((1, 1, -1), ("1/2", 1, "-1/2"))),
        (Fraction(80000), Fraction(-3328000, 21), Fraction(3728000, 21)),
        (Fraction(80000), Fraction(-3328000, 21), Fraction(-3728000, 21)),
        [Fraction(13, 21), Fraction(17, 47), Fraction(7, 72),
         Fraction(10, 13)]),
}


def _same_scalars(got, want):
    return (len(got) == len(want)
            and all(type(a) is type(b) and a == b for a, b in zip(got, want)))


@pytest.mark.parametrize("branch", sorted(REGULUS_BRANCHES))
def test_regulus_branch_witness(branch):
    segs, direction, moment, params = REGULUS_BRANCHES[branch]
    res = transversal_exists_segments(segs)
    assert res.exists
    assert verify_transversal(res.line, segs) == res.params
    assert _same_scalars(res.line.direction, direction)
    assert _same_scalars(res.line.moment, moment)
    assert _same_scalars(res.params, params)


@pytest.mark.parametrize("ends", [
    # segments 2 and 3 share the origin; lines through it meet segment 1
    (((1, 0, 0), (1, 1, 1)), ((1, 1, 0), (0, 0, 0)), ((0, 0, 0), (1, 0, 1))),
    # segments 1 and 2 cross at (1, 1/2, 1/2); the line from there to
    # (0, 0, 1) meets segment 3
    (((1, 1, 1), (1, 0, 0)), ((1, 0, 1), (1, 1, 0)), ((0, 0, 1), (0, 1, 1))),
])
def test_three_segments_with_a_coplanar_pair(ends):
    # no three supporting lines are pairwise skew: the coplanar pair decides
    segs = _segs(*ends)
    res = transversal_exists_segments(segs)
    assert res.exists
    assert verify_transversal(res.line, segs) == res.params
