"""Stair-convexity machinery on stretched grids.

Contains the stretched grid with explicit fast-growing coordinates,
stair-paths, the interval graph whose vertices sit on the grid diagonal,
the stair-line crossing decision for four diagonal stair-paths, the census
of the 105 interval order types, and the combinatorial count of candidate
crossing quadruples together with its closed-form bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .drawing import Graph
from .errors import PreconditionViolated, ValidationError
from .scalars import _FrozenRecord, _Record, rat


class StretchedGrid(_FrozenRecord):
    """Product grid X1 x X2 x X3 with strictly increasing axis values.

    The per-axis value sequences grow fast enough for segments to behave
    like stair-paths; `explicit` builds x[1][j] = j and
    x[i][j] = base ** ((j-1) * scale ** (i-1)).
    """

    n: int
    coords: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, n, coords):
        if n < 1:
            raise ValidationError("grid needs at least one point per axis")
        if len(coords) != 3 or any(len(ax) != n for ax in coords):
            raise ValidationError("need three axes with n values each")
        for ax in coords:
            if any(ax[i] >= ax[i + 1] for i in range(len(ax) - 1)):
                raise ValidationError("axis values must strictly increase")
            if ax[0] != 1:
                raise ValidationError("axis values must start at 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def explicit(n: int, base: int = 2, scale: Optional[int] = None) -> "StretchedGrid":
        scale = 16 * n if scale is None else scale
        axes = [tuple(Fraction(j) for j in range(1, n + 1))]
        for i in (1, 2):
            step = scale ** i
            axes.append(tuple(Fraction(base) ** ((j - 1) * step)
                              for j in range(1, n + 1)))
        return StretchedGrid(n, tuple(axes))

    def diagonal_point(self, i: int) -> Tuple[Fraction, Fraction, Fraction]:
        if not 1 <= i <= self.n:
            raise ValidationError(f"diagonal index {i} out of range")
        return tuple(ax[i - 1] for ax in self.coords)


# ---------------------------------------------------------------------------
# stair-paths
# ---------------------------------------------------------------------------

def stair_path(a: Sequence, b: Sequence) -> List[Tuple[Tuple, Tuple]]:
    """Axis-parallel path from a to b, at most one segment per axis.

    The last coordinate is resolved first (orienting so that it does not
    decrease), then the recursion continues on the remaining prefix.  The
    returned segments chain from a to b; degenerate steps are skipped, so
    equal points give an empty path.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValidationError("dimension mismatch")
    d = len(a)
    if d == 1:
        return [] if a == b else [(a, b)]
    if a[-1] > b[-1]:
        rev = stair_path(b, a)
        return [(hi, lo) for lo, hi in reversed(rev)]
    mid = (*a[:-1], b[-1])
    segs = [] if a == mid else [(a, mid)]
    for lo, hi in stair_path(a[:-1], b[:-1]):
        segs.append(((*lo, b[-1]), (*hi, b[-1])))
    return segs


# ---------------------------------------------------------------------------
# the interval graph
# ---------------------------------------------------------------------------

def _check_interval_size(n: int, m: int) -> None:
    """The n and m of an interval graph: n >= 2 vertices, m edges with
    1 <= m <= C(n, 2)."""
    if n < 2 or not (1 <= m <= n * (n - 1) // 2):
        raise ValidationError(f"need n >= 2 and 1 <= m <= C(n,2), "
                              f"got n = {n}, m = {m}")


def interval_graph(n: int, m: int) -> Graph:
    """Vertices 0..n-1 joined when index distance is at most ceil(2m/n)."""
    _check_interval_size(n, m)
    width = interval_width(n, m)
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(i + width, n - 1) + 1)]
    return Graph.from_edges(n, edges)


def interval_width(n: int, m: int) -> int:
    return ceil(Fraction(2 * m, n))


# ---------------------------------------------------------------------------
# stair-line crossing decision
# ---------------------------------------------------------------------------

_BIG = 10 ** 9


class StairCrossing(_Record):
    """``kind`` is 0, 1 or 2 for the three stair-line types, and ``coords``
    are the witness stair-line coordinates."""

    def __init__(self, exists: bool, kind: Optional[int] = None,
                 coords: Optional[Tuple] = None):
        self.exists = exists
        self.kind = kind
        self.coords = coords


def stair_crossing_exists(anchor_pairs: Sequence[Tuple]) -> StairCrossing:
    """Decide whether a stair-line meets all four diagonal stair-paths.

    anchor_pairs are four (s, t) value pairs with eight distinct values.
    Candidate stair-line coordinates are drawn from the anchor values, the
    midpoints of consecutive gaps, and one value beyond each extreme: the
    incidence pattern only depends on the order of a coordinate against
    the anchors, so this finite set is exhaustive.
    """
    if len(anchor_pairs) != 4:
        raise ValidationError("need four anchor pairs")
    values = [v for pair in anchor_pairs for v in pair]
    if len(set(values)) != 8:
        raise ValidationError("anchor values must be pairwise distinct")
    order = sorted(values)
    rank = {v: 10 * (i + 1) for i, v in enumerate(order)}
    # candidate ranks: below all, each anchor, each gap midpoint, above all
    cand_ranks = [5] + [r for v in order for r in (rank[v], rank[v] + 5)]

    def unrank(r):
        if r == 5:
            return order[0] - 1
        i = (r - 10) // 10
        if r % 10 == 0:
            return order[i]
        if i + 1 < len(order):
            return rat(order[i] + order[i + 1]) / 2
        return order[-1] + 1

    pairs_ranked = [tuple(sorted((rank[s], rank[t]))) for s, t in anchor_pairs]
    # the pieces of the stair-path from the diagonal point (s, s, s) to
    # (t, t, t), as coordinate-range boxes: with s < t each piece runs up
    # in its coordinate
    edge_boxes = [[tuple(zip(lo, hi))
                   for lo, hi in stair_path((s,) * 3, (t,) * 3)]
                  for s, t in pairs_ranked]

    c = np.array(cand_ranks)
    shape_axes = [c[:, None, None, None], c[None, :, None, None],
                  c[None, None, :, None], c[None, None, None, :]]

    for kind in range(3):
        feasible = None
        for boxes in edge_boxes:
            meets = None
            for lb_template in range(3):
                lb = _line_boxes_np(kind, lb_template, *shape_axes)
                for eb in boxes:
                    hit = _box_overlap_np(lb, eb)
                    meets = hit if meets is None else (meets | hit)
            feasible = meets if feasible is None else (feasible & meets)
        if feasible.any():
            idx = np.argwhere(feasible)[0]
            coords = tuple(unrank(cand_ranks[i]) for i in idx)
            return StairCrossing(True, kind, coords)
    return StairCrossing(False)


def _line_boxes_np(kind: int, piece: int, x0, y0, c3, z1):
    """Coordinate ranges of one stair-line piece as broadcast arrays."""
    if kind < 2:
        y1 = c3
        if piece == 0:
            return ((x0, x0), (y0, y0), (0, z1))
        if piece == 1:
            return ((x0, x0), (np.minimum(y0, y1), np.maximum(y0, y1)), (z1, z1))
        if kind == 0:
            return ((x0, _BIG), (y1, y1), (z1, z1))
        return ((-_BIG, x0), (y1, y1), (z1, z1))
    x1 = c3
    if piece == 0:
        return ((x0, x0), (y0, y0), (0, z1))
    if piece == 1:
        return ((x1, x1), (-_BIG, y0), (z1, z1))
    return ((np.minimum(x0, x1), np.maximum(x0, x1)), (y0, y0), (z1, z1))


def _box_overlap_np(lb, eb) -> np.ndarray:
    out = None
    for (al, ah), (bl, bh) in zip(lb, eb):
        cond = (al <= bh) & (bl <= ah)
        out = cond if out is None else (out & cond)
    return out


# ---------------------------------------------------------------------------
# order types of four disjoint intervals
# ---------------------------------------------------------------------------

class IntervalMatching(_FrozenRecord):
    """Perfect matching on positions 1..8 read as four intervals."""

    pairs: Tuple[Tuple[int, int], ...]
    components: int

    def __init__(self, pairs, components):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "components", components)


def _component_count(pairs) -> int:
    ivs = sorted((min(p), max(p)) for p in pairs)
    comps = 0
    reach = 0
    for lo, hi in ivs:
        if lo > reach:
            comps += 1
            reach = hi
        else:
            reach = max(reach, hi)
    return comps


def enumerate_order_types() -> List[IntervalMatching]:
    """All 105 perfect matchings of 8 positions, with component counts."""
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(IntervalMatching(tuple(acc), _component_count(acc)))
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            pair = (first, remaining[k])
            rest = [x for x in remaining[1:] if x != remaining[k]]
            acc.append(pair)
            rec(rest, acc)
            acc.pop()

    rec(list(range(1, 9)), [])
    return out


# ---------------------------------------------------------------------------
# candidate quadruple counting and the closed-form bounds
# ---------------------------------------------------------------------------

# Largest DP table, in entries, that count_candidate_quadruples builds; its
# peak memory is about 24 bytes per entry.  Under this limit no block length
# reaches 128, so an entry is at most 764 partial matchings of 8 points times
# C(127, 6) gap sequences, and int64 is exact.
_MAX_TABLE = 1 << 22


def _gap_step(a: np.ndarray) -> np.ndarray:
    """Append one gap g >= 1: out[x + g*(1, ..., 1)] sums a[x] over g.

    Every axis of a DP table is an open interval's span so far or the block
    length, and one gap lengthens all of them.  What moves past an axis end
    is dropped, which prunes spans above the width and lengths above n - 1.
    The sum along the all-ones diagonal is a shift by one and then a
    doubling prefix sum (shifts 1, 2, 4, ...).
    """
    def head(d):
        return (slice(d, None),) * a.ndim

    def tail(d):
        return tuple(slice(None, size - d) for size in a.shape)

    out = np.zeros_like(a)
    out[head(1)] = a[tail(1)]
    d = 1
    while d < min(a.shape):
        out[head(d)] += out[tail(d)]
        d *= 2
    return out


def _block_lengths(n: int, w: int) -> Dict[int, List[int]]:
    """blocks[p][L] = number of (connected matching on p positions, gaps
    >= 1 summing to L) pairs whose matched spans are all at most w, for
    p = 2, 4, 6, 8 and L < min(n, 4w - 2).  Longer blocks do not occur: the
    intervals of a block overlap in a chain, each by at least one, so four
    spans of at most w cover at most 4w - 3, and no block longer than n - 1
    fits in 1..n.

    One left-to-right DP over positions 1..8 covers every matching at once.
    A state is keyed by (open intervals k, block start still open) and is a
    table with one axis per open interval, oldest first, holding its span
    so far; while the block start is open its span is the block length,
    afterwards a last axis holds the length.  Each position either opens an
    interval (span 0) or closes one of the open ones (its axis is summed
    out; the block start's axis becomes the length axis).  A block ends at
    the first position where nothing is open.
    """
    spans = min(w, n - 1) + 1
    lengths = min(n, 4 * w - 2)
    if spans ** 3 * lengths > _MAX_TABLE:
        raise PreconditionViolated(
            f"stair count for n={n}, width {w} needs a table of "
            f"{spans ** 3 * lengths} entries, above {_MAX_TABLE}")
    blocks = {p: np.zeros(lengths, dtype=np.int64) for p in (2, 4, 6, 8)}
    start = np.zeros(spans, dtype=np.int64)
    start[0] = 1
    states = {(1, True): start}
    for p in range(2, 9):
        nxt: Dict[Tuple[int, bool], np.ndarray] = {}

        def add(key, table):
            if key[0] == 0:
                blocks[p] += table
            elif key in nxt:
                nxt[key] += table
            else:
                nxt[key] = table

        for (k, head_open), a in states.items():
            a = _gap_step(a)
            if k + 1 <= 8 - p:                      # room to close k + 1
                b = np.zeros(a.shape[:k] + (spans,) + a.shape[k:], a.dtype)
                b[(slice(None),) * k + (0,)] = a
                add((k + 1, head_open), b)
            for j in range(k):
                if head_open and j == 0:
                    b = np.zeros(a.shape[1:] + (lengths,), a.dtype)
                    b[..., :spans] = np.moveaxis(a, 0, -1)
                    add((k - 1, False), b)
                else:
                    add((k - 1, head_open), a.sum(axis=j))
        states = nxt
    return {p: v.tolist() for p, v in blocks.items()}


def count_candidate_quadruples(n: int, m: int, breakdown: bool = False):
    """Vertex-disjoint edge quadruples of interval_graph(n, m) whose four
    vertex intervals form at most two connected components.

    Each quadruple is an 8-subset of vertices with an interval order type
    whose four matched spans are at most the width w.  A type's connected
    blocks are counted over their gap lengths (`_block_lengths`), and the
    placements in 1..n follow from the block lengths: a one-block type of
    length L has n - L, a two-block type of lengths L1, L2 has
    C(n - L1 - L2, 2).  Time and memory grow as min(w, n)^3 min(4w, n);
    a width that needs a table above `_MAX_TABLE` entries raises
    PreconditionViolated.
    """
    _check_interval_size(n, m)
    if n < 8:
        return (0, {1: 0, 2: 0}) if breakdown else 0
    blocks = _block_lengths(n, interval_width(n, m))
    one = sum(c * (n - L) for L, c in enumerate(blocks[8]))
    two = sum(c1 * c2 * comb(n - L1 - L2, 2)
              for p in (2, 4, 6)
              for L1, c1 in enumerate(blocks[p]) if c1
              for L2, c2 in enumerate(blocks[8 - p]) if c2 and L1 + L2 < n)
    by_r = {1: one, 2: two}
    total = one + two
    return (total, by_r) if breakdown else total


def crossing_bound_105(n: int, m: int) -> int:
    """105 n^2 D^6 with the integer width D actually used by the graph."""
    return 105 * n ** 2 * interval_width(n, m) ** 6


def crossing_bound_explicit(n: int, m: int) -> Fraction:
    """6720 m^6 / n^4, the closed form of the quadruple bound."""
    return Fraction(6720 * m ** 6, n ** 4)
