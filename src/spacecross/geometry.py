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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .scalars import DegenerateInput, QuadExt, rat, sign_of

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
    return all(sign_of(c) == 0 for c in a)


def point3(x, y, z) -> Vec3:
    return (rat(x), rat(y), rat(z))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment3:
    """Closed nondegenerate segment between rational points p and q."""

    p: Vec3
    q: Vec3

    def __post_init__(self):
        if self.p == self.q:
            raise DegenerateInput(f"zero-length segment at {self.p}")

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

    def base_point(self) -> Vec3:
        """The point of the line closest to the origin (rational lines only)."""
        d, m = self.direction, self.moment
        n2 = v_dot(d, d)
        return tuple(Fraction(c, 1) / n2 if isinstance(c, int) else c / n2
                     for c in v_cross(d, m))

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
# planes
# ---------------------------------------------------------------------------

def plane_through_line_point(line_d, line_m, x):
    """Plane (n, e) with <n,y> + e = 0 containing the line and the point x.

    Degenerate (n = 0) exactly when x lies on the line.
    """
    n = v_add(v_cross(line_d, x), line_m)
    e = -v_dot(line_m, x)
    return n, e


def plane_meet(n1, e1, n2, e2):
    """Line of intersection of two distinct planes as (direction, moment)."""
    return v_cross(n1, n2), v_sub(v_scale(n2, e1), v_scale(n1, e2))


def plane_eval(n, e, x):
    return v_dot(n, x) + e


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

def _zsign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and d >= 0."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if not sb or sa == sb:
        return sa
    if not sa:
        return sb if d else 0
    x = a * a - b * b * d
    return sa if x > 0 else sb if x < 0 else 0


class _Param(NamedTuple):
    """Candidate parameter t = (t0 + t1*sqrt(d)) / h with integers t0, t1,
    d >= 0 (t1 = 0 whenever d = 0) and h != 0.  ``quad`` marks the roots
    of a quadratic with positive discriminant, which the public results
    give as ``QuadExt`` values; every other parameter gives ``Fraction``s.
    """

    t0: int
    t1: int
    d: int
    h: int
    quad: bool

    def scalar(self, a: int, b: int, den: int):
        """The public value of (a + b*sqrt(d)) / den."""
        if self.quad:
            return QuadExt(Fraction(a, den), Fraction(b, den), self.d)
        return Fraction(a, den)


def _quadratic_roots(qa: int, qb: int, qc: int) -> Optional[List[_Param]]:
    """Real roots of qa t^2 + qb t + qc for integer coefficients.

    Returns None when the polynomial vanishes identically.
    """
    if qa == 0:
        if qb == 0:
            return None if qc == 0 else []
        return [_Param(-qc, 0, 0, qb, False)]
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    if disc == 0:
        return [_Param(-qb, 0, 0, 2 * qa, False)]
    root = isqrt(disc)
    if root * root == disc:
        return [_Param(-qb + root, 0, 0, 2 * qa, True),
                _Param(-qb - root, 0, 0, 2 * qa, True)]
    return [_Param(-qb, 1, disc, 2 * qa, True),
            _Param(-qb, -1, disc, 2 * qa, True)]


# ---------------------------------------------------------------------------
# regulus parametrization: transversals through three pairwise skew lines
# ---------------------------------------------------------------------------

class _Regulus:
    """Transversals T(t) through P(t) = p1 + t*d1 meeting lines 2 and 3.

    Lines are given by integer (p, d, m) triples with pairwise nonzero
    incidence form (pairwise skew).  All plane coefficients are linear in t.
    """

    def __init__(self, p1, d1, l2, l3):
        self.p1, self.d1 = p1, d1
        self.A2, self.B2, self.a2, self.b2 = self._plane_coeffs(l2)
        self.A3, self.B3, self.a3, self.b3 = self._plane_coeffs(l3)

    def _plane_coeffs(self, l):
        p, d, m = l
        A = v_add(v_cross(d, self.p1), m)
        B = v_cross(d, self.d1)
        alpha = -v_dot(m, self.p1)
        beta = -v_dot(m, self.d1)
        return A, B, alpha, beta

    def incidence_quadratic(self, l4):
        """Coefficients (A, B, C) of the incidence form with line 4 in t."""
        _, d4, m4 = l4
        A2, B2, a2, b2 = self.A2, self.B2, self.a2, self.b2
        A3, B3, a3, b3 = self.A3, self.B3, self.a3, self.b3
        qa = v_dot(v_cross(B2, B3), m4) + v_dot(
            d4, v_sub(v_scale(B3, b2), v_scale(B2, b3)))
        qb = (v_dot(v_add(v_cross(A2, B3), v_cross(B2, A3)), m4)
              + v_dot(d4, v_sub(v_add(v_scale(B3, a2), v_scale(A3, b2)),
                                v_add(v_scale(B2, a3), v_scale(A2, b3)))))
        qc = v_dot(v_cross(A2, A3), m4) + v_dot(
            d4, v_sub(v_scale(A3, a2), v_scale(A2, a3)))
        return qa, qb, qc

    def trace_fraction(self, which: int, target):
        """Parameter of the target line's crossing of plane 2 or 3 as a
        pair of linear forms (num, den) in t."""
        p, d, _ = target
        if which == 2:
            A, B, alpha, beta = self.A2, self.B2, self.a2, self.b2
        else:
            A, B, alpha, beta = self.A3, self.B3, self.a3, self.b3
        num = (-(v_dot(B, p) + beta), -(v_dot(A, p) + alpha))
        den = (v_dot(B, d), v_dot(A, d))
        return num, den

    def segment_trace(self, target):
        """``trace_fraction`` of plane 2, or of plane 3 when both forms
        vanish identically: the target then lies on line 2, which every
        plane 2 contains."""
        num, den = self.trace_fraction(2, target)
        if any(num) or any(den):
            return num, den
        return self.trace_fraction(3, target)

    def line_at(self, t: _Param):
        """The transversal at t, scaled by h^2, as integer vectors
        (da, db, ma, mb): direction da + db*sqrt(d), moment ma + mb*sqrt(d).

        The planes through P(t) and lines 2 and 3, scaled by h, are
        (n2, e2) and (n3, e3); the line is d = n2 x n3, m = n3 e2 - n2 e3.
        """
        t0, t1, d, h = t.t0, t.t1, t.d, t.h
        n2a = v_add(v_scale(self.A2, h), v_scale(self.B2, t0))
        n3a = v_add(v_scale(self.A3, h), v_scale(self.B3, t0))
        e2a, e3a = self.a2 * h + self.b2 * t0, self.a3 * h + self.b3 * t0
        da = v_cross(n2a, n3a)
        ma = v_sub(v_scale(n3a, e2a), v_scale(n2a, e3a))
        if not t1:
            return da, (0, 0, 0), ma, (0, 0, 0)
        n2b, n3b = v_scale(self.B2, t1), v_scale(self.B3, t1)
        e2b, e3b = self.b2 * t1, self.b3 * t1
        da = v_add(da, v_scale(v_cross(n2b, n3b), d))
        db = v_add(v_cross(n2a, n3b), v_cross(n2b, n3a))
        ma = v_add(ma, v_scale(v_sub(v_scale(n3b, e2b), v_scale(n2b, e3b)), d))
        mb = v_sub(v_add(v_scale(n3a, e2b), v_scale(n3b, e2a)),
                   v_add(v_scale(n2a, e3b), v_scale(n2b, e3a)))
        return da, db, ma, mb


def _public_line(line, t: _Param, scale: int) -> PluckerLine:
    """The line of ``_Regulus.line_at`` divided by h^2, and its moment also
    by the space scale."""
    da, db, ma, mb = line
    hh = t.h * t.h
    return PluckerLine(
        tuple(t.scalar(a, b, hh) for a, b in zip(da, db)),
        tuple(t.scalar(a, b, hh * scale) for a, b in zip(ma, mb)))


# ---------------------------------------------------------------------------
# transversals of four lines
# ---------------------------------------------------------------------------

@dataclass
class TransversalSet:
    """Result of a four-line transversal query."""

    infinite: bool
    lines: List[PluckerLine]

    @property
    def count(self) -> int:
        if self.infinite:
            raise ValueError("infinite family has no finite count")
        return len(self.lines)


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


def _int_line_triples(lines):
    """Integer (p, d, m) triples of rational lines in a space scaled by the
    returned factor; p is a point of the first line (None for the others)."""
    dms = []
    for line in lines:
        c = lcm(*(Fraction(x).denominator for x in line.direction + line.moment))
        dms.append((tuple(int(x * c) for x in line.direction),
                    tuple(int(x * c) for x in line.moment)))
    # scaling space by |d1|^2 moves the first line's base point
    # d1 x m1 / |d1|^2 to an integer point
    scale = v_dot(dms[0][0], dms[0][0])
    p1 = v_cross(*dms[0])
    return [(p1 if i == 0 else None, d, v_scale(m, scale))
            for i, (d, m) in enumerate(dms)], scale


def transversals_of_4_lines(lines: Sequence[PluckerLine]) -> TransversalSet:
    """All lines meeting four given rational lines at affine points.

    With three of the lines pairwise skew this reduces to a quadratic along
    the first line; the identically vanishing case reports an infinite
    family (a full ruling).  Configurations without a pairwise skew triple
    are resolved by explicit case analysis on a coplanar pair.
    """
    if len(lines) != 4:
        raise ValueError("need exactly four lines")
    order = _skew_triple_order([(l.direction, l.moment) for l in lines])
    if order is None:
        return _transversals_degenerate(lines)
    triples, scale = _int_line_triples([lines[i] for i in order])
    reg = _Regulus(triples[0][0], triples[0][1], triples[1], triples[2])
    roots = _quadratic_roots(*reg.incidence_quadratic(triples[3]))
    if roots is None:
        return TransversalSet(True, [])
    return TransversalSet(False, [_public_line(reg.line_at(t), t, scale)
                                  for t in roots])


def _coplanar_pair(lines):
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if side_product(lines[i], lines[j]) == 0:
                return i, j
    return None


def _lines_intersection_point(l1: PluckerLine, l2: PluckerLine):
    """Affine intersection point of two coplanar non-parallel lines."""
    w = v_cross(l1.direction, l2.direction)
    if v_is_zero(w):
        return None
    p1 = l1.base_point()
    # point p1 + u d1 lying on l2:  (p1 + u d1) x d2 = m2
    rhs = v_sub(l2.moment, v_cross(p1, l2.direction))
    den = v_cross(l1.direction, l2.direction)
    comp = next(i for i in range(3) if sign_of(den[i]) != 0)
    u = rhs[comp] / den[comp]
    return v_add(p1, v_scale(l1.direction, u))


def _plane_of_coplanar_lines(l1: PluckerLine, l2: PluckerLine):
    x = _lines_intersection_point(l1, l2)
    if x is not None:
        # plane through l1 and a point of l2 away from x
        p2 = l2.base_point()
        probe = p2 if p2 != x else v_add(p2, l2.direction)
        n, e = plane_through_line_point(l1.direction, l1.moment, probe)
    else:
        n, e = plane_through_line_point(l1.direction, l1.moment, l2.base_point())
    if v_is_zero(n):
        return None  # identical lines
    return n, e


def _line_plane_relation(line: PluckerLine, n, e):
    """Classify a line against a plane: ('in',), ('parallel',) or ('point', x)."""
    dn = v_dot(line.direction, n)
    p = line.base_point()
    h = plane_eval(n, e, p)
    if sign_of(dn) == 0:
        if sign_of(h) == 0:
            return ("in", None)
        return ("parallel", None)
    u = -h / dn
    return ("point", v_add(p, v_scale(line.direction, u)))


def _transversals_degenerate(lines) -> TransversalSet:
    """Four-line transversals when no three of the lines are pairwise skew."""
    # identical pair: reduces to a three-line problem, always an infinite
    # family (meeting three lines is a codimension-3 condition on lines)
    for i in range(4):
        for j in range(i + 1, 4):
            if same_line(lines[i], lines[j]):
                return TransversalSet(True, [])
    pair = _coplanar_pair(lines)
    if pair is None:  # cannot happen: no skew triple forces a coplanar pair
        raise RuntimeError("inconsistent skew classification")
    i, j = pair
    others = [lines[k] for k in range(4) if k not in (i, j)]
    li, lj = lines[i], lines[j]
    x = _lines_intersection_point(li, lj)
    candidates: List[PluckerLine] = []

    if x is not None:
        # transversals through the intersection point
        rel = []
        for l in others:
            on = v_is_zero(v_sub(v_cross(x, l.direction), l.moment))
            rel.append(on)
        if all(rel):
            return TransversalSet(True, [])  # pencil through x works wholesale
        if any(rel):
            # any line joining x to a point of the free line qualifies
            free = others[rel.index(False)]
            y = free.base_point()
            if y == x:
                y = v_add(y, free.direction)
            candidates.append(line_through_points(x, y))
            # a one-parameter family exists: x sits on one of the others
            cand_ok = [c for c in candidates
                       if all(side_product(c, l) == 0 for l in lines)]
            if cand_ok:
                return TransversalSet(True, [])
        else:
            n1, e1 = plane_through_line_point(
                others[0].direction, others[0].moment, x)
            n2, e2 = plane_through_line_point(
                others[1].direction, others[1].moment, x)
            if v_is_zero(v_cross(n1, n2)):
                return TransversalSet(True, [])  # coplanar pencil through x
            d, m = plane_meet(n1, e1, n2, e2)
            if not v_is_zero(d):
                candidates.append(PluckerLine(d, m))

    plane = _plane_of_coplanar_lines(li, lj)
    if plane is not None:
        n, e = plane
        traces = [_line_plane_relation(l, n, e) for l in others]
        kinds = [t[0] for t in traces]
        if "parallel" not in kinds:
            pts = [t[1] for t in traces if t[0] == "point"]
            if len(pts) == 0:
                return TransversalSet(True, [])  # both others inside the plane
            if len(pts) == 1:
                return TransversalSet(True, [])  # pencil through the trace
            if pts[0] == pts[1]:
                return TransversalSet(True, [])
            candidates.append(line_through_points(pts[0], pts[1]))

    good = []
    for c in candidates:
        if all(side_product(c, l) == 0 for l in lines) and \
                not any(same_line(c, g) for g in good):
            good.append(c)
    return TransversalSet(False, good)


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
    coords = [c for p in points for c in p]
    scale = lcm(*(c.denominator for c in coords))
    ints = [c.numerator * (scale // c.denominator) for c in coords]
    return [tuple(ints[i:i + 3]) for i in range(0, len(ints), 3)], scale


def _scaled_int_segments(segments):
    """Integer endpoint pairs of the segments times one common positive
    factor, and that factor."""
    pts, scale = _scaled_int_points([x for s in segments for x in (s.p, s.q)])
    return list(zip(pts[::2], pts[1::2])), scale


def _int_triple(p, q):
    """(p, d, m) of the supporting line through integer points p and q."""
    return p, v_sub(q, p), v_cross(p, q)


def _unscale_line(line: PluckerLine, scale: int) -> PluckerLine:
    if scale == 1:
        return line
    return PluckerLine(line.direction, tuple(c / scale for c in line.moment))


def transversal_exists_segments(segments: Sequence[Segment3]) -> SegmentTransversal:
    """Decide exactly whether one line meets all k closed segments (k in 3, 4).

    The endpoints are scaled by the least common denominator ``scale`` to
    integers.  When three supporting lines are pairwise skew, each candidate
    line is the regulus transversal at a parameter t = T/h with T in
    Z[sqrt(D)], and it is certified once against every segment by signs of
    integers in Z[sqrt(D)].  A certified line is then divided by h^2 (its
    moment also by ``scale``) and returned with the contact parameter on
    each of the caller's segments; these equal the parameters on the scaled
    segments, since scaling space does not move them.  A one-parameter
    family (k = 3, or a fourth line meeting the whole regulus) is
    range-tested at the trace roots and the midpoints between them; each
    run of accepted sites is one component, whose midpoint, then ends, are
    certified.  Other configurations are decided by case analysis and
    certified with ``verify_transversal``.
    """
    k = len(segments)
    if k not in (3, 4):
        raise ValueError("supported for 3 or 4 segments")
    for s in segments:
        if not isinstance(s, Segment3):
            raise TypeError("expected Segment3 inputs")
    ints, scale = _scaled_int_segments(segments)
    return _transversal_scaled(ints, scale)


def _transversal_scaled(ints, scale) -> SegmentTransversal:
    triples = [_int_triple(p, q) for p, q in ints]
    order = _skew_triple_order([(d, m) for _, d, m in triples])
    if order is None:
        segs = [Segment3(tuple(map(Fraction, p)), tuple(map(Fraction, q)))
                for p, q in ints]
        res = _transversal_degenerate(
            segs, [plucker_from_segment(s) for s in segs])
        if res.exists:
            res.line = _unscale_line(res.line, scale)
        return res
    tr = [triples[i] for i in order]
    reg = _Regulus(tr[0][0], tr[0][1], tr[1], tr[2])
    traces = [reg.segment_trace(x) for x in tr[1:]]
    roots = None
    if len(ints) == 4:
        roots = _quadratic_roots(*reg.incidence_quadratic(tr[3]))
    if roots is None:
        # k = 3, or the fourth supporting line meets every transversal of
        # the regulus: a one-parameter family
        candidates = _family_samples(traces)
    else:
        candidates = (t for t in roots if _in_unit_range(t, traces))
    for t in candidates:
        line = reg.line_at(t)
        params = _certify(line, triples, t.d)
        if params is not None:
            return _public_transversal(line, params, t, scale)
    return SegmentTransversal(False)


def _rational_param(x: Fraction) -> _Param:
    return _Param(x.numerator, 0, 0, x.denominator, False)


def _in_unit_range(t: _Param, traces) -> bool:
    """Division-free range checks of t and of the crossing parameters
    num(t)/den(t) of the traces, all in Z[sqrt(d)].

    A trace with den(t) = 0 fails when num(t) != 0: the transversal is then
    parallel to the segment's line and misses it.  At 0/0 the segment's
    line lies in the plane of the trace, so the trace says nothing; the
    test goes on with the next trace and certification decides.
    """
    t0, t1, d, h = t.t0, t.t1, t.d, t.h
    sh = 1 if h > 0 else -1
    if _zsign(t0, t1, d) * sh < 0 or _zsign(t0 - h, t1, d) * sh > 0:
        return False
    for (n1, n0), (d1, d0) in traces:
        # h*num(t) and h*den(t); the common factor h cancels in the tests
        na, nb = n1 * t0 + n0 * h, n1 * t1
        da, db = d1 * t0 + d0 * h, d1 * t1
        s_n, s_d = _zsign(na, nb, d), _zsign(da, db, d)
        if ((s_n and not s_d) or s_n * s_d < 0
                or _zsign(na - da, nb - db, d) * s_d > 0):
            return False
    return True


def _family_samples(traces):
    """Rational t to certify along the family: the midpoint, then the
    ends, of each run of accepted sites, left to right.  The cuts are 0, 1
    and the roots in (0, 1) of every trace's num, den and num - den."""
    cuts = {Fraction(0), Fraction(1)}
    for (n1, n0), (d1, d0) in traces:
        for a, b in ((n1, n0), (d1, d0), (n1 - d1, n0 - d0)):
            if a and 0 < Fraction(-b, a) < 1:
                cuts.add(Fraction(-b, a))
    cuts = sorted(cuts)
    sites = cuts[:1]
    for lo, hi in zip(cuts, cuts[1:]):
        sites += [(lo + hi) / 2, hi]
    runs = itertools.groupby(
        sites, lambda x: _in_unit_range(_rational_param(x), traces))
    for accepted, run in runs:
        if accepted:
            run = list(run)
            lo, hi = run[0], run[-1]
            ends = ((lo + hi) / 2, lo, hi) if lo != hi else (lo,)
            yield from map(_rational_param, ends)


def _certify(line, triples, d):
    """Contact parameters of a line of ``_Regulus.line_at`` on every
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

def _collinear_overlap(seg_a: Segment3, seg_b: Segment3):
    """Intersection of two segments on one common supporting line."""
    d = seg_a.direction
    comp = next(i for i in range(3) if sign_of(d[i]) != 0)
    ua = sorted([Fraction(0), Fraction(1)])
    ub = sorted([(seg_b.p[comp] - seg_a.p[comp]) / d[comp],
                 (seg_b.q[comp] - seg_a.p[comp]) / d[comp]])
    lo, hi = max(ua[0], ub[0]), min(ua[1], ub[1])
    if lo > hi:
        return None
    return seg_a.at(lo), seg_a.at(hi)


def _transversal_degenerate(segments, lines) -> SegmentTransversal:
    k = len(segments)
    for i in range(k):
        for j in range(i + 1, k):
            if same_line(lines[i], lines[j]):
                return _transversal_shared_line(segments, lines, i, j)
    for i in range(k):
        for j in range(i + 1, k):
            if side_product(lines[i], lines[j]) == 0:
                return _transversal_coplanar_pair(segments, lines, i, j)
    raise RuntimeError("inconsistent skew classification")


def _transversal_shared_line(segments, lines, i, j) -> SegmentTransversal:
    others = [segments[k] for k in range(len(segments)) if k not in (i, j)]
    # the shared supporting line itself
    params = verify_transversal(lines[i], segments)
    if params is not None:
        return SegmentTransversal(True, lines[i], params)
    overlap = _collinear_overlap(segments[i], segments[j])
    if overlap is None:
        return SegmentTransversal(False)
    lo, hi = overlap
    if lo == hi:
        found = _pencil_through_point(lo, others)
    elif len(others) + 1 >= 3:
        reduced = [Segment3(lo, hi), *others]
        found = _transversal_scaled_rational(reduced)
    else:
        found = _pencil_through_segment_trivial(Segment3(lo, hi), others)
    if found is None:
        return SegmentTransversal(False)
    params = verify_transversal(found, segments)
    if params is None:
        return SegmentTransversal(False)
    return SegmentTransversal(True, found, params)


def _transversal_scaled_rational(segments):
    """Recurse on a reduced problem whose endpoints may be rational."""
    if len(segments) in (3, 4):
        res = transversal_exists_segments(segments)
        return res.line if res.exists else None
    # two segments: any line meeting both, if one exists
    return _two_segment_line(segments[0], segments[1])


def _two_segment_line(s1: Segment3, s2: Segment3):
    for a in (s1.p, s1.q):
        for b in (s2.p, s2.q):
            if a != b:
                cand = line_through_points(a, b)
                if verify_transversal(cand, [s1, s2]) is not None:
                    return cand
    # segments sharing all endpoints would be identical; handled earlier
    return None


def _pencil_through_segment_trivial(seg, others):
    # with at most one other constraint a join through endpoints suffices
    if not others:
        return plucker_from_segment(seg)
    return _two_segment_line(seg, others[0])


def _point_on_segment(x, seg: Segment3) -> bool:
    if not v_is_zero(v_cross(v_sub(x, seg.p), seg.direction)):
        return False
    d = seg.direction
    comp = next(i for i in range(3) if sign_of(d[i]) != 0)
    u = (x[comp] - seg.p[comp]) / d[comp]
    return 0 <= u <= 1


def _point_on_line(x, line: PluckerLine) -> bool:
    return v_is_zero(v_sub(v_cross(x, line.direction), line.moment))


def _pencil_through_point(x, segs) -> Optional[PluckerLine]:
    """A line through the fixed point x meeting every segment, or None."""
    free = [s for s in segs if not _point_on_segment(x, s)]
    if not free:
        # any direction works; reuse a segment direction when available
        d = segs[0].direction if segs else (Fraction(1), Fraction(0), Fraction(0))
        return PluckerLine(d, v_cross(x, v_add(x, d)))
    if len(free) == 1:
        s = free[0]
        if _point_on_line(x, plucker_from_segment(s)):
            return None  # only the supporting line could work, but x misses s
        y = s.p if s.p != x else s.q
        return line_through_points(x, y)
    s, r = free
    ls, lr = plucker_from_segment(s), plucker_from_segment(r)
    if same_line(ls, lr):
        if _point_on_line(x, ls):
            return None  # a non-supporting line through x hits the common
            # line once, so it cannot reach both segments
        # join x to a common point of the two collinear segments
        overlap = _collinear_overlap(s, r)
        if overlap is None:
            return None
        return line_through_points(x, overlap[0])
    if _point_on_line(x, ls):
        return ls if verify_transversal(ls, [s, r]) is not None else None
    if _point_on_line(x, lr):
        return lr if verify_transversal(lr, [s, r]) is not None else None
    n, e = plane_through_line_point(lr.direction, lr.moment, x)
    hp, hq = plane_eval(n, e, s.p), plane_eval(n, e, s.q)
    sp, sq = sign_of(hp), sign_of(hq)
    if sp == 0 and sq == 0:
        # s lies inside the plane spanned by x and r: 2D fan search
        for endpoint in (s.p, s.q, r.p, r.q):
            if endpoint == x:
                continue
            cand = line_through_points(x, endpoint)
            if verify_transversal(cand, [s, r]) is not None:
                return cand
        return None
    if sp * sq > 0:
        return None
    u = Fraction(hp) / (hp - hq)
    y = s.at(u)
    if y == x:
        return None
    cand = line_through_points(x, y)
    if verify_transversal(cand, [s, r]) is not None:
        return cand
    return None


def _transversal_coplanar_pair(segments, lines, i, j) -> SegmentTransversal:
    others = [segments[k] for k in range(len(segments)) if k not in (i, j)]
    li, lj = lines[i], lines[j]
    x = _lines_intersection_point(li, lj)

    if x is not None and _point_on_segment(x, segments[i]) and \
            _point_on_segment(x, segments[j]):
        found = _pencil_through_point(x, others)
        if found is not None:
            params = verify_transversal(found, segments)
            if params is not None:
                return SegmentTransversal(True, found, params)

    plane = _plane_of_coplanar_lines(li, lj)
    if plane is None:
        raise RuntimeError("identical lines must be handled earlier")
    n, e = plane
    found = _stab_in_plane(n, e, segments)
    if found is not None:
        params = verify_transversal(found, segments)
        if params is not None:
            return SegmentTransversal(True, found, params)
    return SegmentTransversal(False)


def _stab_in_plane(n, e, segments) -> Optional[PluckerLine]:
    """A line inside the plane (n, e) meeting every segment, or None.

    Each segment is clipped to the plane (empty, a point, or a subsegment);
    a pinning argument reduces the search to lines through two of the
    finitely many constraint points.
    """
    points = []     # 3D points each transversal must contain
    subsegs = []    # in-plane subsegments
    for seg in segments:
        hp, hq = plane_eval(n, e, seg.p), plane_eval(n, e, seg.q)
        sp, sq = sign_of(hp), sign_of(hq)
        if sp == 0 and sq == 0:
            subsegs.append(seg)
        elif sp == 0:
            points.append(seg.p)
        elif sq == 0:
            points.append(seg.q)
        elif sp * sq > 0:
            return None
        else:
            points.append(seg.at(Fraction(hp) / (hp - hq)))

    distinct = []
    for p in points:
        if p not in distinct:
            distinct.append(p)

    if len(distinct) >= 2:
        candidates = [(distinct[0], distinct[1])]
    elif len(distinct) == 1:
        p = distinct[0]
        ends = [q for s in subsegs for q in (s.p, s.q) if q != p]
        if not ends:
            d = subsegs[0].direction if subsegs else (1, 0, 0)
            cand = PluckerLine(tuple(map(Fraction, d)),
                               v_cross(p, v_add(p, tuple(map(Fraction, d)))))
            return cand
        candidates = [(p, q) for q in ends]
    else:
        ends = []
        for s in subsegs:
            for q in (s.p, s.q):
                if q not in ends:
                    ends.append(q)
        candidates = [(a, b) for ai, a in enumerate(ends)
                      for b in ends[ai + 1:]]

    for a, b in candidates:
        if a == b:
            continue
        cand = line_through_points(a, b)
        if verify_transversal(cand, segments) is not None:
            return cand
    return None


# ---------------------------------------------------------------------------
# planar segment classification
# ---------------------------------------------------------------------------

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
