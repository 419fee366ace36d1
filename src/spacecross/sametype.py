"""Sign-constant refinement of point multisets under polynomial relations.

Implements sparse multivariate polynomials over blocked variables, the
monomial linearization of the last block, center-point partitions in
dimensions 1 and 2 (median split and a two-line equipartition with the
halfspace-contains-a-cell property), and the recursive refinement that
shrinks finite multisets until every given polynomial has constant sign
on the product, with immediate exhaustive verification of the result.

The partitions follow Yao & Yao ("A general approach to d-dimensional
geometric queries", STOC 1985).  Their properties hold by construction,
as yao_yao_partition's docstring proves: the median line and a bisector
of both its sides cut four closed quadrants, each holding a quarter of
the points, and any closed halfplane through the center holds a ray of
each line, so the whole cone they span.  Nothing re-checks them; the
certificate of a refinement is _covered_cone, which raises when no cone
lies in a halfspace of its functional, and the exhaustive sign and size
check at the end of same_type_refine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (PreconditionViolated, RetryExhausted, ValidationError)
from .geometry import orient2d
from .scalars import rat, rat_from_str, rat_to_str, sign_of

Point = Tuple[Fraction, ...]
MonomialKey = Tuple[Tuple[Tuple[int, int], int], ...]  # ((block, var), exp)

_MAX_PERTURB = 8          # perturbation retries of a degenerate 2-D partition
_SWEEP_BUDGET = 200000    # largest product _constant_sign sweeps
_SEARCH_LIMIT = 10 ** 7   # largest search space of brute_force_same_type


@dataclass(frozen=True)
class SparsePolynomial:
    """Polynomial over variables grouped into blocks of given dimensions."""

    blocks: Tuple[int, ...]
    monomials: Dict[MonomialKey, Fraction] = field(hash=False)

    @staticmethod
    def from_terms(blocks: Sequence[int], terms) -> "SparsePolynomial":
        """terms: iterable of (coeff, {(block, var): exp}) pairs."""
        blocks = tuple(int(b) for b in blocks)
        acc: Dict[MonomialKey, Fraction] = {}
        for coeff, exps in terms:
            coeff = rat(coeff)
            for (b, v), e in exps.items():
                if not (0 <= b < len(blocks)) or not (0 <= v < blocks[b]):
                    raise ValidationError(f"variable ({b},{v}) out of range")
                if e < 0:
                    raise ValidationError("negative exponent")
            key = tuple(sorted(((b, v), e) for (b, v), e in exps.items() if e > 0))
            acc[key] = acc.get(key, Fraction(0)) + coeff
        acc = {k: c for k, c in acc.items() if c != 0}
        return SparsePolynomial(blocks, acc)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def is_zero(self) -> bool:
        return not self.monomials

    def evaluate(self, args: Sequence[Sequence]) -> Fraction:
        total = Fraction(0)
        for key, coeff in self.monomials.items():
            term = coeff
            for (b, v), e in key:
                term *= rat(args[b][v]) ** e
            total += term
        return total

    def block_projection(self, key: MonomialKey, block: int) -> MonomialKey:
        return tuple(((b, v), e) for (b, v), e in key if b == block)

    def to_json(self) -> dict:
        return {
            "blocks": list(self.blocks),
            "monomials": [
                {"coeff": rat_to_str(c),
                 "exponents": {f"{b}:{v}": e for (b, v), e in key}}
                for key, c in sorted(self.monomials.items())],
        }

    @staticmethod
    def from_json(doc: dict) -> "SparsePolynomial":
        try:
            blocks = [int(b) for b in doc["blocks"]]
            terms = []
            for mono in doc["monomials"]:
                exps = {}
                for kv, e in mono["exponents"].items():
                    b, v = kv.split(":")
                    exps[(int(b), int(v))] = int(e)
                terms.append((rat_from_str(mono["coeff"]), exps))
        except (AttributeError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise ValidationError(f"bad polynomial: {exc}", "polynomials")
        return SparsePolynomial.from_terms(blocks, terms)


def block_term_count(f: SparsePolynomial, block: int) -> int:
    """Number of distinct monomials of f in the given block's variables,
    with all other blocks treated as symbolic coefficients."""
    if not (0 <= block < f.k):
        raise ValidationError(f"block {block} out of range")
    if f.is_zero():
        return 0
    return len({f.block_projection(key, block) for key in f.monomials})


@dataclass
class Linearization:
    """Monomial map of the last block and the polynomial linear in it."""

    monomial_map: List[MonomialKey]     # the non-constant last-block monomials
    linear: SparsePolynomial            # blocks (d1..d_{k-1}, t)

    def lift_point(self, point: Sequence) -> Point:
        out = []
        for key in self.monomial_map:
            val = Fraction(1)
            for (b, v), e in key:
                val *= rat(point[v]) ** e
            out.append(val)
        return tuple(out)


def linearize_last_block(f: SparsePolynomial) -> Linearization:
    """Split f into f = f'(x_1, .., x_{k-1}, pi(x_k)) with f' affine in the
    new last block, one coordinate per non-constant last-block monomial."""
    last = f.k - 1
    groups: Dict[MonomialKey, List[Tuple[MonomialKey, Fraction]]] = {}
    for key, coeff in f.monomials.items():
        proj = f.block_projection(key, last)
        rest = tuple(item for item in key if item[0][0] != last)
        groups.setdefault(proj, []).append((rest, coeff))
    nonconstant = sorted(g for g in groups if g)
    t = len(nonconstant)
    new_blocks = (*f.blocks[:-1], t)
    terms = []
    for rest, coeff in groups.get((), []):
        terms.append((coeff, dict(rest)))
    for j, proj in enumerate(nonconstant):
        for rest, coeff in groups[proj]:
            exps = dict(rest)
            exps[(f.k - 1, j)] = 1
            terms.append((coeff, exps))
    linear = SparsePolynomial.from_terms(new_blocks, terms)
    lin = Linearization(list(nonconstant), linear)
    _verify_linearization(f, lin)
    return lin


def _verify_linearization(f: SparsePolynomial, lin: Linearization):
    """Symbolic identity f = f' composed with the monomial map."""
    last = f.k - 1
    recomposed: Dict[MonomialKey, Fraction] = {}
    for key, coeff in lin.linear.monomials.items():
        z_part = [(item, e) for item, e in
                  (((b, v), e) for (b, v), e in key) if item[0] == last]
        rest = tuple(((b, v), e) for (b, v), e in key if b != last)
        exps = dict(rest)
        for (b, j), e in z_part:
            if e != 1:
                raise AssertionError("composition is not affine in the block")
            for (bb, vv), ee in lin.monomial_map[j]:
                exps[(bb, vv)] = exps.get((bb, vv), 0) + ee
        ckey = tuple(sorted((kv, e) for kv, e in exps.items() if e > 0))
        recomposed[ckey] = recomposed.get(ckey, Fraction(0)) + coeff
    recomposed = {k: c for k, c in recomposed.items() if c != 0}
    if recomposed != f.monomials:
        raise AssertionError("linearization does not recompose to the input")


# ---------------------------------------------------------------------------
# point multisets and center partitions
# ---------------------------------------------------------------------------

@dataclass
class PointMultiset:
    dim: int
    points: List[Point]

    def __post_init__(self):
        self.points = [tuple(rat(c) for c in p) for p in self.points]
        for p in self.points:
            if len(p) != self.dim:
                raise ValidationError(f"point {p} has wrong dimension")

    def __len__(self):
        return len(self.points)


@dataclass
class YaoYaoPartition:
    """Center plus 2^d closed cones of d generators covering R^d; every
    cone holds at least |F|/2^d points and every closed halfspace through
    the center contains a whole cone."""

    dim: int
    center: Point
    generators: List[Tuple[Point, ...]]     # per cone
    cone_points: List[List[int]]            # point indices per closed cone
    simplex_scale: Fraction                 # T with cone cap conv(c, c+T g)
    points_used: List[Point]                # possibly perturbed copies


def yao_yao_partition(points: Sequence[Point], dim: int) -> YaoYaoPartition:
    """Equipartition of n >= 2^dim points into 2^dim cones, dim in {1, 2}.

    The cones have their three properties by construction:

    * Size.  A median split leaves at least ceil(n/2) points on each
      closed side; in 1-D the two cones are these sides.  In 2-D the cones
      are the closed quadrants cut by the median line y = mu and the
      bisector ab, a line through a point a of the upper side and a point
      b of the lower side whose two closed sides each hold at least half
      of either median side (the bisector test).  The bisector is not
      horizontal, since a[1] != b[1], so it meets the median line in the
      center, and each quadrant is a closed median side cut with a closed
      side of ab: it holds at least half of ceil(n/2) points, so n/4.
    * Cover.  Every point lies on a closed median side and on a closed
      side of ab, so in one of the cones; the quadrants cover the plane.
    * Halfspace.  Two distinct lines through the center cut sectors
      alpha, pi - alpha, alpha, pi - alpha, each spanned by one ray r or
      -r of the median line and one ray d or -d of the bisector.  A closed
      halfplane through the center holds r or -r and d or -d, hence, being
      convex, the cone they span.  In 1-D it holds the ray r or -r.

    Nothing re-checks these properties.  What stays checked at run time
    is their use: _covered_cone raises when no cone lies in a halfspace
    of its functional, and same_type_refine sweeps the final product for
    sign constancy and size.

    The one real degeneracy is a 2-D input with no bisector through an
    upper and a lower point (one common y-coordinate, say).  Such inputs
    are deterministically perturbed: point i moves by (i+1) * (eps, eps^2)
    with eps = 2^-64, squaring eps on every retry.  The partition then
    describes the perturbed multiset, which is recorded in the result.
    """
    pts = [tuple(rat(c) for c in p) for p in points]
    if dim not in (1, 2):
        raise PreconditionViolated("partition implemented for dimensions 1 and 2")
    if len(pts) < 2 ** dim:
        raise ValidationError("not enough points")
    if dim == 1:
        return _yao_yao_1d(pts)
    eps = Fraction(1, 2 ** 64)
    for _ in range(_MAX_PERTURB + 1):
        part = _yao_yao_2d(pts)
        if part is not None:
            return part
        pts = [(p[0] + (i + 1) * eps, p[1] + (i + 1) * eps * eps)
               for i, p in enumerate(pts)]
        eps = eps * eps
    raise RetryExhausted("partition construction kept hitting degeneracies")


def _yao_yao_1d(pts) -> YaoYaoPartition:
    xs = sorted(p[0] for p in pts)
    n = len(xs)
    if n % 2 == 1:
        center = xs[n // 2]
    else:
        center = (xs[n // 2 - 1] + xs[n // 2]) / 2
    gens = [((Fraction(-1),),), ((Fraction(1),),)]
    cone_points = [
        [i for i, p in enumerate(pts) if p[0] <= center],
        [i for i, p in enumerate(pts) if p[0] >= center],
    ]
    spread = max(abs(p[0] - center) for p in pts) + 1
    return YaoYaoPartition(1, (center,), gens, cone_points, spread, list(pts))


def _halfplane_counts(pts, a, b):
    """(left-closed, right-closed) counts of points against line a->b."""
    left = right = 0
    for p in pts:
        s = orient2d(a, b, p)
        if s >= 0:
            left += 1
        if s <= 0:
            right += 1
    return left, right


def _yao_yao_2d(pts) -> Optional[YaoYaoPartition]:
    """The partition, or None when no bisector exists."""
    n = len(pts)
    ys = sorted(p[1] for p in pts)
    mu = ys[(n - 1) // 2] if n % 2 == 1 else (ys[n // 2 - 1] + ys[n // 2]) / 2
    upper = [p for p in pts if p[1] >= mu]
    lower = [p for p in pts if p[1] <= mu]
    # simultaneous bisector of the two halves through one point of each
    found = None
    for a in upper:
        for b in lower:
            if a[1] == b[1]:
                continue  # must cross the median line at a finite point
            ul, ur = _halfplane_counts(upper, a, b)
            ll, lr = _halfplane_counts(lower, a, b)
            if (2 * ul >= len(upper) and 2 * ur >= len(upper)
                    and 2 * ll >= len(lower) and 2 * lr >= len(lower)):
                found = (a, b)
                break
        if found:
            break
    if found is None:
        return None
    a, b = found
    # center: crossing of the bisector with the median level
    t = (mu - a[1]) / (b[1] - a[1])
    cx = a[0] + t * (b[0] - a[0])
    center = (cx, mu)
    d2 = (b[0] - a[0], b[1] - a[1])
    if d2[1] < 0:
        d2 = (-d2[0], -d2[1])
    rays = [(Fraction(1), Fraction(0)), d2, (Fraction(-1), Fraction(0)),
            (-d2[0], -d2[1])]
    gens = [(rays[i], rays[(i + 1) % 4]) for i in range(4)]
    cone_points: List[List[int]] = [[] for _ in range(4)]
    scale = Fraction(1)
    for i, p in enumerate(pts):
        w = (p[0] - center[0], p[1] - center[1])
        for ci, (g1, g2) in enumerate(gens):
            l1, l2 = _cone_coordinates(w, g1, g2)
            if l1 >= 0 and l2 >= 0:
                cone_points[ci].append(i)
                scale = max(scale, l1 + l2)
    return YaoYaoPartition(2, center, gens, cone_points, scale + 1, list(pts))


def _cone_coordinates(w, g1, g2):
    """Coordinates of w in the basis g1, g2.  A cone's generators are
    always a basis: one lies on the median line, the other on the
    bisector."""
    det = g1[0] * g2[1] - g1[1] * g2[0]
    l1 = (w[0] * g2[1] - w[1] * g2[0]) / det
    l2 = (g1[0] * w[1] - g1[1] * w[0]) / det
    return (l1, l2)


# ---------------------------------------------------------------------------
# the refinement recursion
# ---------------------------------------------------------------------------

@dataclass
class RefineResult:
    subsets: List[List[int]]        # retained indices per multiset
    signs: List[int]                # constant sign per polynomial
    epsilon: Fraction               # the guaranteed size fraction


def theorem_epsilon(polys: Sequence[SparsePolynomial]) -> Fraction:
    """prod over polynomials of 3^(-3^(t_2 + ... + t_k)); the first block's
    term count deliberately never enters."""
    eps = Fraction(1)
    for f in polys:
        exponent = sum(block_term_count(f, i) for i in range(1, f.k))
        eps *= Fraction(1, 3) ** (3 ** exponent)
    return eps


def same_type_refine(multisets: Sequence[PointMultiset],
                     polys: Sequence[SparsePolynomial]) -> RefineResult:
    """Shrink the multisets until every polynomial is sign-constant on the
    product, returning retained indices, the signs, and the guaranteed
    fraction.  Sign constancy is re-verified exhaustively before
    returning; the subsets always meet the theorem's epsilon bound."""
    k = len(multisets)
    if k < 1:
        raise ValidationError("need at least one multiset")
    if any(len(F) == 0 for F in multisets):
        raise ValidationError("empty multiset")
    for f in polys:
        if f.k != k:
            raise ValidationError("polynomial block count mismatch")
        for i, d in enumerate(f.blocks):
            if d != multisets[i].dim:
                raise ValidationError(f"block {i} dimension mismatch")
    active = [list(range(len(F))) for F in multisets]
    points = [F.points for F in multisets]
    signs = []
    for f in polys:
        signs.append(_refine_single(points, active, f))

    # exhaustive verification over the final product
    final = [[points[i][j] for j in active[i]] for i in range(k)]
    for f, expected in zip(polys, signs):
        if _product_sign(final, f) != expected:
            raise AssertionError("sign constancy verification failed")
    eps = theorem_epsilon(polys)
    for i, F in enumerate(multisets):
        if len(active[i]) < eps * len(F):
            raise AssertionError("size bound verification failed")
    return RefineResult([list(a) for a in active], signs, eps)


def _refine_single(points, active, f: SparsePolynomial) -> int:
    """Refine the active index lists for one polynomial; returns its sign."""
    k = f.k
    constant = _constant_sign(points, active, f)
    if constant is not None:
        return constant
    if k == 1:
        return _refine_base(points[0], active, f)
    lin = linearize_last_block(f)
    t = len(lin.monomial_map)
    if t == 0:
        sub = SparsePolynomial(f.blocks[:-1],
                               {key: c for key, c in f.monomials.items()})
        return _refine_single(points, active, sub)
    if t > 2:
        raise PreconditionViolated(
            f"last block linearizes to dimension {t} > 2")

    last = active[k - 1]
    lifted = [lin.lift_point(points[k - 1][i]) for i in last]
    if len(lifted) < 2 ** t:
        # too few points to partition: keep one and fix it in f, which
        # keeps at least 1/2^t of the block
        del last[1:]
        return _refine_single(points, active,
                              _substitute_last_block(lin.linear, lifted[0]))
    part = yao_yao_partition(lifted, t)
    center = part.center
    T = part.simplex_scale
    # the distinct simplex vertices, center first, and each cone's
    # vertices (center, center + T g) as indices into them
    vertices: Dict[Point, int] = {center: 0}
    cone_vertices: List[List[int]] = []
    for gens in part.generators:
        corners = [0]
        for g in gens:
            w = tuple(center[j] + T * g[j] for j in range(t))
            corners.append(vertices.setdefault(w, len(vertices)))
        cone_vertices.append(corners)

    # vertex polynomials g_m = f'(x_1..x_{k-1}, v_m), refined recursively
    vertex_signs = [
        _refine_single(points, active, _substitute_last_block(lin.linear, v))
        for v in vertices]
    cone_idx, s = _covered_cone(cone_vertices, vertex_signs)

    # split the chosen cone's points between the zero face and the rest
    gens = part.generators[cone_idx]
    corners = cone_vertices[cone_idx]
    zero_face: List[int] = []
    positive_part: List[int] = []
    for local in part.cone_points[cone_idx]:
        lam = _simplex_coordinates(part.points_used[local], center, gens, T)
        on_face = all(mu == 0 or vertex_signs[v] == 0
                      for mu, v in zip(lam, corners))
        (zero_face if on_face else positive_part).append(local)
    chosen = zero_face if len(zero_face) >= len(positive_part) else positive_part
    result_sign = 0 if chosen is zero_face else s
    last[:] = [last[i] for i in chosen]
    return result_sign


def _simplex_coordinates(z, center, gens, T):
    """Barycentric coordinates of z in conv(center, center + T g_i),
    ordered (center, then generators)."""
    t = len(center)
    w = tuple(z[j] - center[j] for j in range(t))
    if t == 1:
        lam = w[0] / (T * gens[0][0])
        return (1 - lam, lam)
    lam = _cone_coordinates(w, gens[0], gens[1])
    a1, a2 = lam[0] / T, lam[1] / T
    return (1 - a1 - a2, a1, a2)


def _covered_cone(cone_vertices, vertex_signs):
    """Cone fully inside the positive or negative halfspace of the linear
    functional, which exists by the halfspace property."""
    for target in (1, -1):
        for ci, corners in enumerate(cone_vertices):
            if all(vertex_signs[v] * target >= 0 for v in corners):
                return ci, target
    raise AssertionError("no cone lies in a halfspace; partition is broken")


def _substitute_last_block(linear: SparsePolynomial, value: Point
                           ) -> SparsePolynomial:
    last = linear.k - 1
    terms = []
    for key, coeff in linear.monomials.items():
        exps = {}
        c = coeff
        for (b, v), e in key:
            if b == last:
                c *= rat(value[v]) ** e
            else:
                exps[(b, v)] = e
        terms.append((c, exps))
    return SparsePolynomial.from_terms(linear.blocks[:-1], terms)


def _constant_sign(points, active, f: SparsePolynomial) -> Optional[int]:
    """The common sign when f is already constant on the active product,
    else None; skipped when the product is too large to sweep."""
    size = 1
    for i in range(f.k):
        size *= len(active[i])
        if size > _SWEEP_BUDGET:
            return None
    return _product_sign([[points[i][j] for j in active[i]]
                          for i in range(f.k)], f)


def _product_sign(point_lists, f: SparsePolynomial) -> Optional[int]:
    """The sign of f on every tuple of the product of the point lists, or
    None when it changes (or the product is empty)."""
    sign = None
    for combo in itertools.product(*point_lists):
        s = sign_of(f.evaluate(combo))
        if sign is None:
            sign = s
        elif s != sign:
            return None
    return sign


def _refine_base(pts, active, f: SparsePolynomial) -> int:
    by_sign = {1: [], -1: [], 0: []}
    for i in active[0]:
        by_sign[sign_of(f.evaluate((pts[i],)))].append(i)
    best = max((1, -1, 0), key=lambda s: len(by_sign[s]))
    active[0][:] = by_sign[best]
    return best


# ---------------------------------------------------------------------------
# brute-force feasibility oracle
# ---------------------------------------------------------------------------

def brute_force_same_type(multisets: Sequence[PointMultiset],
                          poly: SparsePolynomial,
                          target_sizes: Sequence[int]):
    """Exhaustive search for sign-constant product subsets of the target
    sizes, the first in lexicographic order; None when no such subsets
    exist.  Every target size must be at least 1 (an empty subset has no
    sign); a smaller one raises ``ValidationError``."""
    if any(s < 1 for s in target_sizes):
        raise ValidationError(
            f"target sizes must be at least 1: {list(target_sizes)}")
    k = len(multisets)
    if any(s > len(F) for s, F in zip(target_sizes, multisets)):
        return None
    space = 1
    for F, s in zip(multisets, target_sizes):
        space *= math.comb(len(F), s)
    if space > _SEARCH_LIMIT:
        raise ValidationError(f"search space {space} exceeds {_SEARCH_LIMIT}")
    for combos in itertools.product(*[
            itertools.combinations(range(len(F)), s)
            for F, s in zip(multisets, target_sizes)]):
        sign = _product_sign([[multisets[i].points[j] for j in combos[i]]
                              for i in range(k)], poly)
        if sign is not None:
            return [list(c) for c in combos], sign
    return None

