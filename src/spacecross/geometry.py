"""Exact line and segment geometry in R^3 built on Pluecker coordinates.

Everything here is decision-exact: predicates are computed over rationals
and integers, or over degree-2 extensions for roots of the transversal
quadratic, and never consult floating point.  The central operation
decides whether some line meets three or four closed segments, returning a
certified witness line.

A line through points p, q is stored as (direction, moment) with
direction = q - p and moment = p x q; two lines are coplanar exactly when
the bilinear incidence form <d1,m2> + <d2,m1> vanishes.

When three supporting lines are pairwise skew, the transversals form the
regulus T(t) through the point p1 + t*d1 of the first line.  That core
runs on Python ints: the segment endpoints are scaled by their least common
denominator ``scale``, and each candidate parameter is t = T/h with
T = t0 + t1*sqrt(D) in Z[sqrt(D)] and an integer h != 0 (D = 0 for a
rational t).  The line h^2 * T(t), its range tests and its certification
against every segment are all computed in Z[sqrt(D)], where the sign of
a + b*sqrt(D) comes from comparing a^2 with b^2 D.  Only a certified line
becomes a public ``PluckerLine`` of ``Fraction`` or ``QuadExt`` values.
``verify_transversal`` and ``line_meets_segment`` stay the independent
rational verifier of such a witness.

For three segments, or four whose fourth line meets the whole regulus,
the candidates form the family T(t), t in [0, 1], and T(t) meets each
other segment at a ratio num/den of linear forms in t (its trace).  No
sign of num, den or num - den changes between their neighbouring roots,
so range tests at those roots and the midpoints between them find each
connected component of the transversals as a run of accepted sites, and
one candidate per run decides: its midpoint, then its ends.

With no three supporting lines pairwise skew, the same integer lines pick
the degenerate case: two segments on one line, or two coplanar lines.  A
case analysis on the caller's own segments then decides, in their
coordinates, by ``orient2d`` signs in a plane, and builds lines only for
its answers and for the segments' own lines that it verifies.  The
function that returns an answer as a ``SegmentTransversal`` certifies it
once, by ``verify_transversal`` on all of its segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .scalars import (DegenerateInput, QuadExt, _exact_isqrt, _zsign, rat,
                      sign_of)

Scalar = Union[int, Fraction, QuadExt]
Vec3 = Tuple[Scalar, Scalar, Scalar]


# ---------------------------------------------------------------------------
# vector helpers (work uniformly on int, Fraction and QuadExt components)
# ---------------------------------------------------------------------------

def v_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def v_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def v_scale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def v_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def v_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def v_is_zero(a) -> bool:
    return not any(a)


def point3(x, y, z) -> Vec3:
    return (rat(x), rat(y), rat(z))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment3:
    """Closed nondegenerate segment from p to q, with Fraction coordinates."""

    p: Vec3
    q: Vec3

    def __post_init__(self):
        if self.p == self.q:
            raise DegenerateInput(f"zero-length segment at {self.p}")
        object.__setattr__(self, "p", tuple(map(rat, self.p)))
        object.__setattr__(self, "q", tuple(map(rat, self.q)))

    @property
    def direction(self) -> Vec3:
        return v_sub(self.q, self.p)

    def at(self, t) -> Vec3:
        return v_add(self.p, v_scale(self.direction, t))


@dataclass(frozen=True)
class PluckerLine:
    """Projective line coordinates (direction, moment), moment = p x q."""

    direction: Vec3
    moment: Vec3

    def __post_init__(self):
        if v_is_zero(self.direction):
            raise DegenerateInput("line with zero direction")
        if sign_of(v_dot(self.direction, self.moment)) != 0:
            raise ValueError("Pluecker relation <d,m> = 0 violated")

    def is_rational(self) -> bool:
        return all(not isinstance(c, QuadExt) or c.is_rational
                   for c in self.direction + self.moment)


def plucker_from_segment(seg: Segment3) -> PluckerLine:
    """Supporting line of a segment: direction q - p, moment p x q."""
    return PluckerLine(v_sub(seg.q, seg.p), v_cross(seg.p, seg.q))


def line_through_points(p: Vec3, q: Vec3) -> PluckerLine:
    if p == q:
        raise DegenerateInput("coincident points do not span a line")
    return PluckerLine(v_sub(q, p), v_cross(p, q))


def side_form(l1: PluckerLine, l2: PluckerLine):
    """Bilinear incidence form; zero exactly when the lines are coplanar."""
    return v_dot(l1.direction, l2.moment) + v_dot(l2.direction, l1.moment)


def side_product(l1: PluckerLine, l2: PluckerLine) -> int:
    """Sign in {-1, 0, +1} of the incidence form of two lines."""
    return sign_of(side_form(l1, l2))


def same_line(l1: PluckerLine, l2: PluckerLine) -> bool:
    """Projective equality of Pluecker coordinates (up to nonzero scaling)."""
    d1, d2 = l1.direction, l2.direction
    if not v_is_zero(v_cross(d1, d2)):
        return False
    i = next(k for k in range(3) if sign_of(d1[k]) != 0)
    if sign_of(d2[i]) == 0:
        return False
    # scale so directions match, then moments must match as well
    lhs = v_scale(l2.moment, d1[i])
    rhs = v_scale(l1.moment, d2[i])
    return all(sign_of(a - b) == 0 for a, b in zip(lhs, rhs))


# ---------------------------------------------------------------------------
# segment / line incidence
# ---------------------------------------------------------------------------

def line_meets_segment(line: PluckerLine, seg: Segment3):
    """Exact intersection of a line with a closed segment.

    Returns (True, parameter) with parameter in [0, 1], the whole-segment
    containment reporting parameter 0, or (False, None).
    """
    d_l, m_l = line.direction, line.moment
    d_s = seg.direction
    w = v_cross(d_s, d_l)
    rhs = v_sub(m_l, v_cross(seg.p, d_l))
    if v_is_zero(w):
        # parallel or identical supporting lines
        if v_is_zero(rhs):
            return True, Fraction(0)
        return False, None
    comp = next(i for i in range(3) if sign_of(w[i]) != 0)
    u = rhs[comp] / w[comp]
    point = seg.at(u)
    if not v_is_zero(v_sub(v_cross(point, d_l), m_l)):
        return False, None  # skew lines: the componentwise solve was spurious
    if sign_of(u) < 0 or sign_of(u - 1) > 0:
        return False, None
    return True, u


def verify_transversal(line: PluckerLine, segments: Sequence[Segment3]):
    """Re-check a candidate transversal; returns parameters or None."""
    params = []
    for seg in segments:
        ok, u = line_meets_segment(line, seg)
        if not ok:
            return None
        params.append(u)
    return params


# ---------------------------------------------------------------------------
# integer arithmetic in Z[sqrt(d)]
# ---------------------------------------------------------------------------

class _Param(NamedTuple):
    """Candidate parameter t = (t0 + t1*sqrt(d)) / h with integers t0, t1,
    d >= 0 (t1 = 0 whenever d = 0; d is 0 or no square) and h != 0.
    ``quad`` marks the roots of a quadratic with positive discriminant,
    which the public results give as ``QuadExt`` values over its
    discriminant g^2 d, g being the content ``_quadratic_roots`` divided
    out; every other parameter gives ``Fraction``s.
    """

    t0: int
    t1: int
    d: int
    h: int
    quad: bool
    g: int = 1

    def scalar(self, a: int, b: int, den: int):
        """The public value of (a + b*sqrt(d)) / den, from fields in
        ``QuadExt``'s normal form: d is no square when b*d != 0."""
        if not self.quad:
            return Fraction(a, den)
        if not (b and self.d):
            return QuadExt(Fraction(a, den))
        return QuadExt._normal(Fraction(a, den), Fraction(b, den * self.g),
                               Fraction(self.g ** 2 * self.d))


def _quadratic_roots(qa: int, qb: int, qc: int) -> Optional[List[_Param]]:
    """Real roots of qa t^2 + qb t + qc for integer coefficients, found on
    the primitive quadratic: the coefficients divided by their content g.

    Returns None when the polynomial vanishes identically.
    """
    if not (g := gcd(qa, qb, qc)):
        return None
    qa, qb, qc = qa // g, qb // g, qc // g
    if qa == 0:
        if qb == 0:
            return []
        return [_Param(-qc, 0, 0, qb, False)]
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    if disc == 0:
        return [_Param(-qb, 0, 0, 2 * qa, False)]
    root = _exact_isqrt(disc)
    if root is not None:
        return [_Param(-qb + root, 0, 0, 2 * qa, True),
                _Param(-qb - root, 0, 0, 2 * qa, True)]
    return [_Param(-qb, 1, disc, 2 * qa, True, g),
            _Param(-qb, -1, disc, 2 * qa, True, g)]


# ---------------------------------------------------------------------------
# regulus parametrization: transversals through three pairwise skew lines
# ---------------------------------------------------------------------------
#
# Lines are (p, d, m) triples, pairwise skew.  T(t) is the meet of the planes
# through P(t) = p1 + t*d1 and lines 2 and 3.  A plane is a tuple (A, B,
# alpha, beta): <A + tB, y> + alpha + t beta = 0.  The kernel runs these
# functions on ints, the certified filter on ``counting._Approx`` values.

def _plane(p1, d1, line):
    """The plane through P(t) = p1 + t*d1 and the line (p, d, m)."""
    # gcd-free: the certified filter runs it on _Approx values
    _, d, m = line
    return (v_add(v_cross(d, p1), m), v_cross(d, d1),
            -v_dot(m, p1), -v_dot(m, d1))


def _incidence_quadratic(plane2, plane3, line4):
    """Coefficients (qa, qb, qc) in t of the incidence form of T(t) with
    line 4."""
    # gcd-free: the certified filter runs it on _Approx values
    _, d4, m4 = line4
    A2, B2, a2, b2 = plane2
    A3, B3, a3, b3 = plane3
    qa = v_dot(v_cross(B2, B3), m4) + v_dot(
        d4, v_sub(v_scale(B3, b2), v_scale(B2, b3)))
    qb = (v_dot(v_add(v_cross(A2, B3), v_cross(B2, A3)), m4)
          + v_dot(d4, v_sub(v_add(v_scale(B3, a2), v_scale(A3, b2)),
                            v_add(v_scale(B2, a3), v_scale(A2, b3)))))
    qc = v_dot(v_cross(A2, A3), m4) + v_dot(
        d4, v_sub(v_scale(A3, a2), v_scale(A2, a3)))
    return qa, qb, qc


def _trace(plane, line):
    """Parameter of the crossing of the line (p, d, ...) with the plane as
    a pair of linear forms (num, den) in t."""
    # gcd-free: the certified filter runs it on _Approx values
    p, d = line[:2]
    A, B, alpha, beta = plane
    num = (-(v_dot(B, p) + beta), -(v_dot(A, p) + alpha))
    den = (v_dot(B, d), v_dot(A, d))
    return num, den


def _segment_trace(plane2, plane3, line):
    """The fourth line's ``_trace`` on plane 2, or on plane 3 when both
    forms vanish identically: it is then line 2, in every plane 2."""
    num, den = _trace(plane2, line)
    if any(num) or any(den):
        return num, den
    return _trace(plane3, line)


def _line_at(plane2, plane3, t: _Param):
    """The transversal at t, scaled by h^2, as integer vectors
    (da, db, ma, mb): direction da + db*sqrt(d), moment ma + mb*sqrt(d).

    The planes at t, scaled by h, are (n2, e2) and (n3, e3); the line is
    d = n2 x n3, m = n3 e2 - n2 e3.
    """
    A2, B2, a2, b2 = plane2
    A3, B3, a3, b3 = plane3
    t0, t1, d, h = t.t0, t.t1, t.d, t.h
    n2a = v_add(v_scale(A2, h), v_scale(B2, t0))
    n3a = v_add(v_scale(A3, h), v_scale(B3, t0))
    e2a, e3a = a2 * h + b2 * t0, a3 * h + b3 * t0
    da = v_cross(n2a, n3a)
    ma = v_sub(v_scale(n3a, e2a), v_scale(n2a, e3a))
    if not t1:
        return da, (0, 0, 0), ma, (0, 0, 0)
    n2b, n3b = v_scale(B2, t1), v_scale(B3, t1)
    e2b, e3b = b2 * t1, b3 * t1
    da = v_add(da, v_scale(v_cross(n2b, n3b), d))
    db = v_add(v_cross(n2a, n3b), v_cross(n2b, n3a))
    ma = v_add(ma, v_scale(v_sub(v_scale(n3b, e2b), v_scale(n2b, e3b)), d))
    mb = v_sub(v_add(v_scale(n3a, e2b), v_scale(n3b, e2a)),
               v_add(v_scale(n2a, e3b), v_scale(n2b, e3a)))
    return da, db, ma, mb


def _public_line(line, t: _Param, scale: int) -> PluckerLine:
    """The line of ``_line_at`` divided by h^2, and its moment also
    by the space scale.

    ``PluckerLine``'s checks run on the integers, with its exceptions: the
    direction is zero exactly when da = db = 0, and <d, m> = 0 exactly when
    both parts of (da.ma + D db.mb) + (da.mb + db.ma) sqrt(D) vanish.  The
    public values only divide these by positive integers, and sqrt(D) is
    irrational whenever db != 0 (D = 0 leaves db = mb = 0)."""
    da, db, ma, mb = line
    if not (any(da) or any(db)):
        raise DegenerateInput("line with zero direction")
    if (v_dot(da, ma) + t.d * v_dot(db, mb)
            or v_dot(da, mb) + v_dot(db, ma)):
        raise ValueError("Pluecker relation <d,m> = 0 violated")
    hh = t.h * t.h
    public = object.__new__(PluckerLine)
    object.__setattr__(public, "direction",
                       tuple(t.scalar(a, b, hh) for a, b in zip(da, db)))
    object.__setattr__(public, "moment",
                       tuple(t.scalar(a, b, hh * scale)
                             for a, b in zip(ma, mb)))
    return public


def _skew_triple_order(lines) -> Optional[Tuple[int, ...]]:
    """Order of the lines, given as (direction, moment) pairs, that puts
    three pairwise skew lines first; None when no three are pairwise skew."""
    n = len(lines)
    skew = {}

    def is_skew(i, j):
        if (i, j) not in skew:
            (di, mi), (dj, mj) = lines[i], lines[j]
            skew[(i, j)] = v_dot(di, mj) + v_dot(dj, mi) != 0
        return skew[(i, j)]

    for triple in itertools.combinations(range(n), 3):
        if all(is_skew(*pair) for pair in itertools.combinations(triple, 2)):
            return (*triple, *(i for i in range(n) if i not in triple))
    return None


# ---------------------------------------------------------------------------
# transversals of closed segments (the space-crossing predicate)
# ---------------------------------------------------------------------------

@dataclass
class SegmentTransversal:
    """Outcome of the segment transversal decision."""

    exists: bool
    line: Optional[PluckerLine] = None
    params: Optional[List[Scalar]] = None


def _scaled_int_points(points):
    """Integer triples of the points times one common positive factor, and
    that factor."""
    ratios = [c.as_integer_ratio() for p in points for c in p]
    scale = lcm(*(den for _, den in ratios))
    ints = [num * (scale // den) for num, den in ratios]
    return [tuple(ints[i:i + 3]) for i in range(0, len(ints), 3)], scale


def _scaled_int_segments(segments):
    """Integer endpoint pairs of the segments times one common positive
    factor, and that factor."""
    pts, scale = _scaled_int_points([x for s in segments for x in (s.p, s.q)])
    return list(zip(pts[::2], pts[1::2])), scale


def _int_triple(p, q):
    """(p, d, m) of the supporting line through integer points p and q."""
    return p, v_sub(q, p), v_cross(p, q)


def transversal_exists_segments(segments: Sequence[Segment3]) -> SegmentTransversal:
    """Decide exactly whether one line meets all k closed segments (k in 3, 4).

    The integer scaling serves the skew branch: the endpoints are scaled by
    their least common denominator ``scale`` to integers.  When three
    supporting lines are pairwise skew, each candidate line is the regulus
    transversal at a parameter t = T/h with T in Z[sqrt(D)], and it is
    certified once against every segment by signs of integers in
    Z[sqrt(D)].  A certified line is then divided by h^2 (its moment also
    by ``scale``) and returned with the contact parameter on each of the
    caller's segments; these equal the parameters on the scaled segments,
    since scaling space does not move them.  A one-parameter family
    (k = 3, or a fourth line meeting the whole regulus) is range-tested at
    the trace roots and the midpoints between them; each run of accepted
    sites is one component, whose midpoint, then ends, are certified.
    Other configurations are classified on the integer lines, decided by
    case analysis on the caller's segments, in their coordinates, and
    certified by ``verify_transversal``.
    """
    k = len(segments)
    if k not in (3, 4):
        raise ValueError("supported for 3 or 4 segments")
    for s in segments:
        if not isinstance(s, Segment3):
            raise TypeError("expected Segment3 inputs")
    ints, scale = _scaled_int_segments(segments)
    triples = [_int_triple(p, q) for p, q in ints]
    order = _skew_triple_order([(d, m) for _, d, m in triples])
    if order is None:
        i, j, shared = _coplanar_pair(triples)
        if shared:
            return _transversal_shared_line(segments, i, j)
        return _transversal_coplanar_pair(segments, i, j)
    tr = [triples[i] for i in order]
    found = _regulus_transversal(_regulus(tr), triples,
                                 tr[3] if k == 4 else None)
    if found is None:
        return SegmentTransversal(False)
    return _public_transversal(*found, scale)


def _regulus(lines):
    """Planes 2 and 3 of the regulus through the first three integer lines
    (p, d, m), which are pairwise skew, and the traces of t, of line 2 on
    plane 3 (every plane 2 contains it) and of line 3 on plane 2."""
    p1, d1, _ = lines[0]
    plane2, plane3 = _plane(p1, d1, lines[1]), _plane(p1, d1, lines[2])
    # t itself first: 0 <= t <= 1 is the range test of the trace t / 1.
    # It changes no answer (certification tests segment 1 too), but it is
    # the only trace to reject some roots, which would otherwise go through
    # _line_at and _certify: 127 of 1,377 range tests on the witness
    # pipeline of random_drawing(40, .4, seed) for seeds 7000-7009.
    traces = [((1, 0), (0, 1)), _trace(plane3, lines[1]),
              _trace(plane2, lines[2])]
    return plane2, plane3, traces


def _scaled_regulus(regulus, c: int):
    """``_regulus`` of the same lines with every point times c > 0: the
    planes' normal parts grow by c^2 and their constants by c^3, and so
    do the traces of lines 2 and 3."""
    c2 = c * c
    c3 = c2 * c
    planes = [(v_scale(A, c2), v_scale(B, c2), a * c3, b * c3)
              for A, B, a, b in regulus[:2]]
    t, *traces = regulus[2]
    return (*planes, [t, *(((n1 * c3, n0 * c3), (d1 * c3, d0 * c3))
                           for (n1, n0), (d1, d0) in traces)])


def _regulus_transversal(regulus, triples, fourth=None):
    """The skew-branch decision.  ``triples`` are the integer lines
    (p, d, m) of the segments, and ``regulus`` is the ``_regulus`` of three
    of them.  Returns the first candidate transversal that meets every
    segment, as ``(line, params, t)`` of ``_line_at`` and ``_certify``, or
    None.  The candidates are the roots of the incidence quadratic of
    ``fourth``, the fourth line; without one, or when that quadratic
    vanishes, they are the samples of the family."""
    plane2, plane3, traces = regulus
    roots = None
    if fourth is not None:
        roots = _quadratic_roots(*_incidence_quadratic(plane2, plane3, fourth))
        if roots == []:     # no real root: no transversal to trace
            return None
        traces = [*traces, _segment_trace(plane2, plane3, fourth)]
    if roots is None:
        # k = 3, or the fourth supporting line meets every transversal of
        # the regulus: a one-parameter family
        candidates = _family_samples(traces)
    else:
        candidates = (t for t in roots if _in_unit_range(t, traces))
    for t in candidates:
        line = _line_at(plane2, plane3, t)
        cert = line
        if t.t1:    # certification is scale-free: certify the primitive line
            g = gcd(*(x for v in line for x in v)) or 1
            cert = tuple(tuple(x // g for x in v) for v in line)
        params = _certify(cert, triples, t.d)
        if params is not None:
            return line, params, t
    return None


def _in_unit_range(t: _Param, traces) -> bool:
    """Division-free checks 0 <= num(t)/den(t) <= 1 of the traces, in
    Z[sqrt(d)]; the trace t / 1 tests t itself.

    A trace with den(t) = 0 fails when num(t) != 0: the transversal is then
    parallel to the segment's line and misses it.  At 0/0 the segment's
    line lies in the plane of the trace, so the trace says nothing; the
    test goes on with the next trace and certification decides.
    """
    t0, t1, d, h = t.t0, t.t1, t.d, t.h
    for (n1, n0), (d1, d0) in traces:
        # h*num(t) and h*den(t); the common factor h cancels in the tests
        na, nb = n1 * t0 + n0 * h, n1 * t1
        da, db = d1 * t0 + d0 * h, d1 * t1
        s_n, s_d = _zsign(na, nb, d), _zsign(da, db, d)
        if ((s_n and not s_d) or s_n * s_d < 0
                or _zsign(na - da, nb - db, d) * s_d > 0):
            return False
    return True


# orders pairs (num, den) with den > 0 by the value num / den
_BY_VALUE = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def _midpoint(x, y):
    (a, b), (c, e) = x, y
    return a * e + c * b, 2 * b * e


def _family_samples(traces):
    """Rational t to certify along the family: the midpoint, then the
    ends, of each run of accepted sites, left to right.  The cuts are 0, 1
    and the roots in (0, 1) of every trace's num, den and num - den.

    A rational is an integer pair (num, den) with den > 0: the cuts are
    reduced, so that equal cuts are equal pairs, the midpoints are not,
    and each sample is reduced as a ``_Param``."""
    cuts = {(0, 1), (1, 1)}
    for (n1, n0), (d1, d0) in traces:
        for a, b in ((n1, n0), (d1, d0), (n1 - d1, n0 - d0)):
            if a < 0:
                a, b = -a, -b
            if 0 < -b < a:      # the root -b/a lies in (0, 1)
                g = gcd(a, b)
                cuts.add((-b // g, a // g))
    cuts = sorted(cuts, key=_BY_VALUE)
    sites = cuts[:1]
    for lo, hi in zip(cuts, cuts[1:]):
        sites += [_midpoint(lo, hi), hi]
    runs = itertools.groupby(
        sites, lambda x: _in_unit_range(_Param(x[0], 0, 0, x[1], False),
                                        traces))
    for accepted, run in runs:
        if accepted:
            run = list(run)
            ends = run[:1] if len(run) == 1 else (
                _midpoint(run[0], run[-1]), run[0], run[-1])
            for num, den in ends:
                g = gcd(num, den)
                yield _Param(num // g, 0, 0, den // g, False)


def _certify(line, triples, d):
    """Contact parameters of a line of ``_line_at`` on every
    segment (p, q), or None when it misses one.

    With w = (q - p) x dir and r = mom - p x dir the segment is met exactly
    when w = r = 0 (the line contains it; parameter 0), or w != 0,
    w x r = 0 and 0 <= r.w <= w.w; then u = r.w / w.w.  Each parameter is
    returned as the integer pairs (r.w, w.w) of Z[sqrt(d)], (0, 0, 0, 0)
    standing for a contained segment.
    """
    da, db, ma, mb = line
    params = []
    for p, ds, _ in triples:
        wa, wb = v_cross(ds, da), v_cross(ds, db)
        ra, rb = v_sub(ma, v_cross(p, da)), v_sub(mb, v_cross(p, db))
        wwa, wwb = v_dot(wa, wa) + d * v_dot(wb, wb), 2 * v_dot(wa, wb)
        if not wwa:  # w = 0
            if any(ra) or any(rb):
                return None
            params.append((0, 0, 0, 0))
            continue
        if (any(v_add(v_cross(wa, ra), v_scale(v_cross(wb, rb), d)))
                or any(v_add(v_cross(wa, rb), v_cross(wb, ra)))):
            return None  # skew to the supporting line
        rwa = v_dot(ra, wa) + d * v_dot(rb, wb)
        rwb = v_dot(ra, wb) + v_dot(rb, wa)
        if _zsign(rwa, rwb, d) < 0 or _zsign(wwa - rwa, wwb - rwb, d) < 0:
            return None
        params.append((rwa, rwb, wwa, wwb))
    return params


def _public_transversal(line, params, t: _Param, scale) -> SegmentTransversal:
    """The certified line and parameters as public exact scalars."""
    us = []
    for x, y, z, v in params:
        if not z:
            us.append(Fraction(0))
            continue
        # (x + y sqrt d) / (z + v sqrt d), with a positive integer norm
        norm = z * z - v * v * t.d
        us.append(t.scalar(x * z - y * v * t.d, y * z - x * v, norm))
    return SegmentTransversal(True, _public_line(line, t, scale), us)


# -- degenerate configurations ----------------------------------------------
#
# With no three supporting lines pairwise skew, two of them are coplanar:
# one line carries two segments, or two distinct lines span a plane.
# ``_coplanar_pair`` picks that pair from the integer lines the kernel has
# already built; the case analysis then decides on the caller's segments,
# in their coordinates, and builds a ``PluckerLine`` only for a line that it
# verifies or returns.  The planar part is line stabbing of segments in a
# plane (Edelsbrunner et al., "Stabbing line segments", BIT 1982), decided
# by ``orient2d`` signs in the plane's image.  The function that returns an
# answer as a ``SegmentTransversal`` certifies it once, by ``_checked`` on
# all of its segments.

def _coplanar_pair(triples):
    """(i, j, shared) for the first pair of the integer lines (p, d, m), in
    ``itertools.combinations`` order, that lie on one line (shared), else
    for the first coplanar pair.  Some pair is coplanar whenever no three
    lines are pairwise skew."""
    pairs = list(itertools.combinations(range(len(triples)), 2))
    for i, j in pairs:
        (pi, di, _), (pj, dj, _) = triples[i], triples[j]
        if not any(v_cross(di, dj)) and not any(v_cross(di, v_sub(pj, pi))):
            return i, j, True
    for i, j in pairs:
        (_, di, mi), (_, dj, mj) = triples[i], triples[j]
        if v_dot(di, mj) + v_dot(dj, mi) == 0:
            return i, j, False


def _on_line_of(x, seg: Segment3) -> bool:
    """Whether the point x lies on the supporting line of seg."""
    return v_is_zero(v_cross(v_sub(x, seg.p), seg.direction))


def _param_on(x, seg: Segment3):
    """The u with x = p + u (q - p), for x on the supporting line of seg."""
    d = seg.direction
    comp = next(i for i in range(3) if sign_of(d[i]) != 0)
    return (x[comp] - seg.p[comp]) / d[comp]


def _point_on_segment(x, seg: Segment3) -> bool:
    return _on_line_of(x, seg) and 0 <= _param_on(x, seg) <= 1


def _collinear_overlap(seg_a: Segment3, seg_b: Segment3):
    """Intersection of two segments on one common supporting line."""
    ub = sorted([_param_on(seg_b.p, seg_a), _param_on(seg_b.q, seg_a)])
    lo, hi = max(Fraction(0), ub[0]), min(Fraction(1), ub[1])
    if lo > hi:
        return None
    return seg_a.at(lo), seg_a.at(hi)


def _lines_intersection_point(seg: Segment3, other: Segment3):
    """Point where the coplanar line of other meets the line of seg; None
    if they are parallel."""
    d = other.direction
    w = v_cross(seg.direction, d)
    if v_is_zero(w):
        return None
    # the point p + u (q - p) lying on the line:  (p + u (q - p)) x d = m
    rhs = v_sub(v_cross(other.p, other.q), v_cross(seg.p, d))
    comp = next(i for i in range(3) if sign_of(w[i]) != 0)
    return seg.at(rhs[comp] / w[comp])


def _plane_through(seg: Segment3, x):
    """Plane (n, e) with <n,y> + e = 0 containing seg and the point x off
    its line."""
    n = v_cross(seg.direction, v_sub(x, seg.p))
    return n, -v_dot(n, seg.p)


def _checked(line: Optional[PluckerLine], segments) -> SegmentTransversal:
    """The case analysis's answer for all of its segments: none when line
    is None, else the line and its contact parameters, certified here once
    by ``verify_transversal``."""
    if line is None:
        return SegmentTransversal(False)
    params = verify_transversal(line, segments)
    if params is None:
        raise AssertionError("case analysis returned a line missing a segment")
    return SegmentTransversal(True, line, params)


def _transversal_shared_line(segments, i, j) -> SegmentTransversal:
    """Segments i and j lie on one line L.  Every other transversal meets L
    once, at a point of both segments, so of their overlap."""
    line = plucker_from_segment(segments[i])
    params = verify_transversal(line, segments)
    if params is not None:
        return SegmentTransversal(True, line, params)
    overlap = _collinear_overlap(segments[i], segments[j])
    if overlap is None:
        return SegmentTransversal(False)
    lo, hi = overlap
    others = [s for k, s in enumerate(segments) if k not in (i, j)]
    if lo == hi or len(others) == 1:
        # a one-point overlap pins every transversal there, and from any
        # point of the overlap some line reaches a single other segment
        found = _pencil_through_point(lo, others)
    else:
        found = transversal_exists_segments([Segment3(lo, hi), *others]).line
    return _checked(found, segments)


def _pencil_through_point(x, segs) -> Optional[PluckerLine]:
    """A line through the point x meeting the one or two segments, or None.
    The case analysis decides; the caller certifies the line."""
    free = [s for s in segs if not _point_on_segment(x, s)]
    if not free:
        d = segs[0].direction  # every line through x works
        return PluckerLine(d, v_cross(x, v_add(x, d)))
    for s in free:
        if _on_line_of(x, s):
            # any other line through x meets this one only at x, off its
            # segment: the supporting line is the only candidate
            line = plucker_from_segment(s)
            return line if verify_transversal(line, free) is not None else None
    # every line through x meeting the last free segment lies in one plane
    n, e = _plane_through(free[-1], x)
    return _stab_in_plane(n, e, free, through=(x,))


def _transversal_coplanar_pair(segments, i, j) -> SegmentTransversal:
    """Distinct lines i and j span a plane.  A transversal leaving it meets
    both segments at the common point of the lines; any other lies in it."""
    si, sj = segments[i], segments[j]
    x = _lines_intersection_point(si, sj)
    if x is not None and _point_on_segment(x, si) and _point_on_segment(x, sj):
        others = [s for k, s in enumerate(segments) if k not in (i, j)]
        found = _pencil_through_point(x, others)
        if found is not None:
            return _checked(found, segments)
    # the lines differ, so an end of segment j lies off line i
    y = sj.q if _on_line_of(sj.p, si) else sj.p
    n, e = _plane_through(si, y)
    return _checked(_stab_in_plane(n, e, segments), segments)


def _stab_in_plane(n, e, segments, through=()) -> Optional[PluckerLine]:
    """A line inside the plane (n, e) meeting every segment and passing
    the points of ``through``, which lie in the plane.

    Each segment meets the plane in one point, lies in it, or misses it.
    The line passes the crossing points and those of ``through``: two
    distinct ones fix the only candidate.  With one, x, the lines through x
    meeting an in-plane segment form an angle; a line in all these angles
    turns within them to one through an endpoint.  With none, a stabbing
    line moves to an endpoint, then turns about it to a second.

    A candidate through a and b is tested by ``orient2d`` signs in the
    plane's ``_plane_image``: it passes every point (sign 0) and meets every
    in-plane segment (its ends are not strictly on one side).  The first
    candidate that passes is returned as a line, the only one built, and
    None when none passes; the caller certifies it.
    """
    points, spans = list(through), []
    for seg in segments:
        hp, hq = v_dot(n, seg.p) + e, v_dot(n, seg.q) + e
        sp, sq = sign_of(hp), sign_of(hq)
        if sp * sq > 0:
            return None
        if sp or sq:
            points.append(seg.at(Fraction(hp) / (hp - hq)))
        else:
            spans.append((seg.p, seg.q))
    points = list(dict.fromkeys(points))
    ends = [q for q in dict.fromkeys(x for s in spans for x in s)
            if q not in points]
    if len(points) >= 2:
        pairs = [points[:2]]
    elif points:
        pairs = [(points[0], q) for q in ends]
    else:
        pairs = itertools.combinations(ends, 2)
    image = dict(zip(points + ends, _plane_image(n, points + ends)))
    for a, b in pairs:
        ia, ib = image[a], image[b]
        if (all(orient2d(ia, ib, image[x]) == 0 for x in points)
                and all(orient2d(ia, ib, image[p]) * orient2d(ia, ib, image[q])
                        <= 0 for p, q in spans)):
            return line_through_points(a, b)
    return None


# ---------------------------------------------------------------------------
# planar segment classification
# ---------------------------------------------------------------------------

def _plane_image(n, points):
    """The points of a plane with normal n without the first coordinate in
    which n is nonzero: a one to one map of the plane, which keeps
    collinearity and the sides of a line for ``orient2d``."""
    k = next(i for i in range(3) if sign_of(n[i]) != 0)
    return [p[:k] + p[k + 1:] for p in points]


def orient2d(a, b, c):
    """Sign of the signed area of triangle abc."""
    return sign_of((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def segments_intersect_2d(a, b) -> str:
    """Classify two plane segments: 'disjoint', 'crossing' or 'touching'.

    Crossing means the open interiors meet transversally; every other
    nonempty intersection (endpoint contact, collinear overlap) is touching.
    """
    (p1, q1), (p2, q2) = a, b
    if p1 == q1 or p2 == q2:
        raise DegenerateInput("zero-length segment")
    d1 = orient2d(p1, q1, p2)
    d2 = orient2d(p1, q1, q2)
    d3 = orient2d(p2, q2, p1)
    d4 = orient2d(p2, q2, q1)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return "crossing"

    def on_seg(p, q, r):
        if orient2d(p, q, r) != 0:
            return False
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    touching = (on_seg(p1, q1, p2) or on_seg(p1, q1, q2)
                or on_seg(p2, q2, p1) or on_seg(p2, q2, q1))
    return "touching" if touching else "disjoint"
