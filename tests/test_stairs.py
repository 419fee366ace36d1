import itertools
import random
import time
from math import comb

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from spacecross.errors import PreconditionViolated, ValidationError
from spacecross.geometry import Segment3, transversal_exists_segments
from spacecross.stairs import (StretchedGrid, count_candidate_quadruples,
                               crossing_bound_105, crossing_bound_explicit,
                               enumerate_order_types, interval_graph,
                               interval_width, stair_crossing_exists,
                               stair_path)


# ---------------------------------------------------------------------------
# stair paths
# ---------------------------------------------------------------------------

def test_stair_path_base_case():
    assert stair_path((0,), (1,)) == [((0,), (1,))]
    assert stair_path((1,), (1,)) == []


def test_stair_path_two_dimensional():
    assert stair_path((0, 0), (1, 1)) == [((0, 0), (0, 1)), ((0, 1), (1, 1))]


def test_stair_path_three_dimensional_unfolded_by_hand():
    segs = stair_path((0, 0, 0), (1, 1, 1))
    assert segs == [((0, 0, 0), (0, 0, 1)),
                    ((0, 0, 1), (0, 1, 1)),
                    ((0, 1, 1), (1, 1, 1))]


@given(st.tuples(*(st.integers(0, 9) for _ in range(3))),
       st.tuples(*(st.integers(0, 9) for _ in range(3))))
@settings(max_examples=300)
def test_stair_path_properties(a, b):
    segs = stair_path(a, b)
    assert len(segs) <= 3
    # each piece is axis parallel, and no two pieces share an axis
    axes = []
    for lo, hi in segs:
        diff = [i for i in range(3) if lo[i] != hi[i]]
        assert len(diff) == 1
        axes.append(diff[0])
    assert len(set(axes)) == len(axes)
    if segs:
        ends = {segs[0][0], segs[-1][1]}
        assert a in ends and b in ends or a == b
        for s1, s2 in zip(segs, segs[1:]):
            assert s1[1] == s2[0]


# ---------------------------------------------------------------------------
# interval graph
# ---------------------------------------------------------------------------

def test_interval_graph_examples():
    g = interval_graph(10, 20)
    assert interval_width(10, 20) == 4
    assert g.m == 30
    assert g.m > 20
    assert interval_graph(10, 45).m == 45         # complete at D >= n-1
    g2 = interval_graph(10, 5)
    assert interval_width(10, 5) == 1 and g2.m == 9


def test_interval_graph_rejects_bad_m():
    with pytest.raises(ValidationError):
        interval_graph(10, 0)
    with pytest.raises(ValidationError):
        interval_graph(10, 46)
    # n (n - 1) / 2 is positive for n < 0 as well
    for n, m in ((-2, 3), (-1, 1)):
        with pytest.raises(ValidationError):
            interval_graph(n, m)
        with pytest.raises(ValidationError):
            count_candidate_quadruples(n, m)


# ---------------------------------------------------------------------------
# stair-line crossings
# ---------------------------------------------------------------------------

def test_stair_crossing_disjoint_intervals_false():
    assert not stair_crossing_exists([(1, 2), (3, 4), (5, 6), (7, 8)]).exists


def test_stair_crossing_requires_distinct_anchors():
    with pytest.raises(ValidationError):
        stair_crossing_exists([(1, 2), (2, 4), (5, 6), (7, 8)])


def test_stair_crossing_symmetry():
    pats = [[(1, 5), (2, 6), (3, 7), (4, 8)], [(1, 3), (2, 4), (5, 7), (6, 8)],
            [(1, 8), (2, 4), (3, 6), (5, 7)]]
    rng = random.Random(2)
    for pat in pats:
        base = stair_crossing_exists(pat).exists
        for _ in range(5):
            perm = list(pat)
            rng.shuffle(perm)
            flipped = [(t, s) if rng.random() < 0.5 else (s, t)
                       for s, t in perm]
            assert stair_crossing_exists(flipped).exists == base


GEOMETRIC_PATTERNS = [
    [(1, 2), (3, 4), (5, 6), (7, 8)],
    [(1, 8), (2, 7), (3, 6), (4, 5)],
    [(1, 5), (2, 6), (3, 7), (4, 8)],
    [(1, 3), (2, 4), (5, 7), (6, 8)],
    [(1, 4), (2, 3), (5, 8), (6, 7)],
    [(1, 3), (2, 5), (4, 7), (6, 8)],
    [(1, 8), (2, 4), (3, 6), (5, 7)],
    [(1, 6), (2, 8), (3, 5), (4, 7)],
]


def test_stair_crossing_against_geometric_oracle():
    """Geometric space crossings on an explicit grid must be stair
    crossings (the converse may fail; stair crossings overcount)."""
    grid = StretchedGrid.explicit(8, base=2, scale=32)

    def seg(s, t):
        return Segment3(grid.diagonal_point(s), grid.diagonal_point(t))

    for pat in GEOMETRIC_PATTERNS:
        geo = transversal_exists_segments([seg(s, t) for s, t in pat]).exists
        stair = stair_crossing_exists(pat).exists
        if geo:
            assert stair, f"geometric crossing without stair crossing: {pat}"


def test_diagonal_point_indices_run_from_1_to_n():
    grid = StretchedGrid.explicit(3, base=2, scale=2)
    assert grid.diagonal_point(1) == (1, 1, 1)
    assert grid.diagonal_point(3) == (3, 2 ** 4, 2 ** 8)
    for i in (0, 4):
        with pytest.raises(ValidationError):
            grid.diagonal_point(i)


def test_stair_crossing_reads_only_the_anchor_ranks():
    # what the census of the 105 order types relies on to cover every input
    rng = random.Random(3)
    positives = 0
    for _ in range(200):
        vals = rng.sample(range(1, 30), 8)
        rank = {v: r for r, v in enumerate(sorted(vals), 1)}
        pat = [(vals[2 * i], vals[2 * i + 1]) for i in range(4)]
        exists = stair_crossing_exists(pat).exists
        assert exists == stair_crossing_exists(
            [(rank[a], rank[b]) for a, b in pat]).exists, pat
        positives += exists
    assert positives > 10


# ---------------------------------------------------------------------------
# order types
# ---------------------------------------------------------------------------

def _components_oracle(pairs):
    # independent union-find over interval overlap
    ivs = [tuple(sorted(p)) for p in pairs]
    parent = list(range(4))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(4):
        for j in range(i + 1, 4):
            if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(4)})


def test_order_types_total_is_105():
    types = enumerate_order_types()
    assert len(types) == 105
    assert len({t.pairs for t in types}) == 105


def test_order_types_components_match_oracle():
    for t in enumerate_order_types():
        assert t.components == _components_oracle(t.pairs)


def test_nested_matching_has_one_component():
    nested = next(t for t in enumerate_order_types()
                  if set(t.pairs) == {(1, 8), (2, 7), (3, 6), (4, 5)})
    assert nested.components == 1


def test_component_histogram():
    from collections import Counter
    hist = Counter(t.components for t in enumerate_order_types())
    assert hist[1] + hist[2] + hist[3] + hist[4] == 105
    assert hist[4] == 1          # the fully separated matching
    assert hist[1] == 74 and hist[2] == 24 and hist[3] == 6


def test_stair_crossing_census_of_order_types():
    """The decision reads only the ranks of the eight anchors, so the 105
    order types cover every input.  Of them 17 are stair crossings, all
    with at most two components: each is a candidate that
    count_candidate_quadruples counts.  In each, every interval meets
    another one."""
    from collections import Counter
    positives = [t for t in enumerate_order_types()
                 if stair_crossing_exists(t.pairs).exists]
    assert len(positives) == 17
    assert Counter(t.components for t in positives) == {1: 16, 2: 1}
    for t in positives:
        ivs = [tuple(sorted(p)) for p in t.pairs]
        for i, (lo, hi) in enumerate(ivs):
            assert any(lo <= ivs[j][1] and ivs[j][0] <= hi
                       for j in range(4) if j != i), t.pairs


# ---------------------------------------------------------------------------
# candidate quadruple counting
# ---------------------------------------------------------------------------

def _direct_count(n, m):
    g = interval_graph(n, m)
    count = 0
    for quad in itertools.combinations(g.edges, 4):
        verts = [v for e in quad for v in e]
        if len(set(verts)) != 8:
            continue
        ivs = sorted((min(e) + 1, max(e) + 1) for e in quad)
        comps = 0
        reach = 0
        for lo, hi in ivs:
            if lo > reach:
                comps += 1
                reach = hi
            else:
                reach = max(reach, hi)
        if comps <= 2:
            count += 1
    return count


def test_candidate_count_matches_direct_enumeration():
    for n, m in [(9, 5), (9, 9), (9, 14), (10, 12), (8, 8)]:
        assert count_candidate_quadruples(n, m) == _direct_count(n, m)


def _sweep_counts(n):
    """counts[r][w]: (8-subset of 1..n, order type with r components) pairs
    whose four matched spans are all at most w, from every 8-subset."""
    subsets = np.array(list(itertools.combinations(range(1, n + 1), 8)),
                       dtype=np.int16)
    counts = np.zeros((3, n + 1), dtype=np.int64)
    for t in enumerate_order_types():
        if t.components > 2:
            continue
        spans = np.zeros(len(subsets), dtype=np.int16)
        for a, b in t.pairs:
            np.maximum(spans, subsets[:, b - 1] - subsets[:, a - 1], out=spans)
        counts[t.components] += np.cumsum(np.bincount(spans, minlength=n + 1))
    return counts


def _m_for_width(n, w):
    m = w * n // 2
    assert interval_width(n, m) == w
    return m


def test_candidate_count_matches_sweep():
    # widths 1..n-1 are all a graph can have: 2m/n <= n - 1
    for n in range(8, 17):
        counts = _sweep_counts(n)
        for w in range(1, n):
            total, by_r = count_candidate_quadruples(
                n, _m_for_width(n, w), breakdown=True)
            assert by_r == {1: counts[1][w], 2: counts[2][w]}, (n, w)
            assert total == counts[1][w] + counts[2][w]


def test_candidate_count_paper_sizes():
    assert count_candidate_quadruples(24, 48, breakdown=True) == (
        74449, {1: 1740, 2: 72709})
    # on a complete graph every 8-subset realises each of the 74 one-block
    # and 24 two-block order types
    for n in (8, 13, 24):
        assert count_candidate_quadruples(n, comb(n, 2), breakdown=True) == (
            98 * comb(n, 8), {1: 74 * comb(n, 8), 2: 24 * comb(n, 8)})


def test_candidate_count_at_large_n_follows_the_sweep():
    """At width 4 no block is longer than 4w - 3 = 13, so from n = 17 on the
    one-block count is linear and the two-block count quadratic in n; the
    sweep at n = 17, 18, 19 fixes both polynomials."""
    points = [_sweep_counts(n)[:, 4] for n in (17, 18, 19)]
    t0 = time.perf_counter()
    total, by_r = count_candidate_quadruples(1000, 2000, breakdown=True)
    assert time.perf_counter() - t0 < 1.0
    for r in (1, 2):
        f0, f1, f2 = (int(p[r]) for p in points)
        d1, d2 = f1 - f0, f2 - 2 * f1 + f0
        assert by_r[r] == f0 + (1000 - 17) * d1 + comb(1000 - 17, 2) * d2
    assert total == by_r[1] + by_r[2] == 354980257


def test_candidate_count_refuses_a_table_too_large():
    with pytest.raises(PreconditionViolated):
        count_candidate_quadruples(100, 4950)


def test_candidate_count_small_graphs_zero():
    assert count_candidate_quadruples(7, 10) == 0


def test_candidate_count_breakdown_consistent():
    total, by_r = count_candidate_quadruples(12, 20, breakdown=True)
    assert total == by_r[1] + by_r[2]


def test_bounds_hold_on_examples():
    count = count_candidate_quadruples(16, 32)
    assert count <= crossing_bound_explicit(16, 32)
    assert count <= crossing_bound_105(16, 32)
    # the two bounds coincide when 2m/n is an integer
    assert crossing_bound_explicit(16, 32) == crossing_bound_105(16, 32)


def test_per_type_counting_step():
    """The counting argument: a type with r components admits at most
    n^r D^(8-r) realizations, so the grand total is bounded by the sum."""
    n, m = 12, 18
    width = interval_width(n, m)
    total, by_r = count_candidate_quadruples(n, m, breakdown=True)
    from collections import Counter
    hist = Counter(t.components for t in enumerate_order_types())
    for r in (1, 2):
        assert by_r[r] <= hist[r] * n ** r * width ** (8 - r)
