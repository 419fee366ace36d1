"""Deterministic seeded generators for inputs and fixtures."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from typing import List, Tuple

from .drawing import Graph, SpatialDrawing
from .errors import ValidationError
from .geometry import point3
from .linking import PolygonalCycle


def _rng(seed: int) -> random.Random:
    return random.Random(seed & 0xFFFFFFFFFFFFFFFF)


def random_rational(rng: random.Random, denominator_bound: int = 64,
                    span: int = 1) -> Fraction:
    den = rng.randint(1, denominator_bound)
    return Fraction(rng.randint(0, span * den), den)


def random_points(count: int, seed: int, denominator_bound: int = 64,
                  span: int = 1) -> List[Tuple[Fraction, Fraction, Fraction]]:
    rng = _rng(seed)
    return [point3(*(random_rational(rng, denominator_bound, span)
                     for _ in range(3))) for _ in range(count)]


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    if not 0 <= p <= 1:
        raise ValidationError(f"probability {p!r} outside [0, 1]", "p")
    rng = _rng(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _check_lattice(n: int, denominator_bound: int, span: int,
                   dim: int) -> None:
    """Raise ValidationError unless the lattice of ``random_rational`` has
    n distinct points in dimension dim.

    Its coordinates a/b in [0, span] with 0 < b <= denominator_bound take
    V = 1 + span * sum(phi(b)) distinct values: 0, then phi(b) fractions of
    denominator b in each unit interval.  The sampling loops of the
    drawings below need V^dim >= n to end.
    """
    if span < 1 or denominator_bound < 1:
        raise ValidationError("span and denominator_bound must be at least 1")
    values = 1
    for b in range(1, denominator_bound + 1):
        if values ** dim >= n:
            return
        values += span * sum(gcd(a, b) == 1 for a in range(1, b + 1))
    if values ** dim < n:
        raise ValidationError(
            f"{values}^{dim} lattice points cannot place {n} vertices")


def _lattice_points(rng: random.Random, n: int, denominator_bound: int,
                    span: int, flat: bool = False
                    ) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """n distinct points whose coordinates are drawn in turn by
    ``random_rational(rng, denominator_bound, span)``, with z = 0 when
    ``flat``.  The lattice must hold n points."""
    dim = 2 if flat else 3
    _check_lattice(n, denominator_bound, span, dim)
    pts = []
    while len(pts) < n:
        xyz = [random_rational(rng, denominator_bound, span)
               for _ in range(dim)]
        cand = point3(*xyz, 0) if flat else point3(*xyz)
        if cand not in pts:
            pts.append(cand)
    return pts


def random_drawing(n: int, p: float, seed: int, denominator_bound: int = 64,
                   span: int = 4, flat: bool = False) -> SpatialDrawing:
    """Straight-line drawing of G(n, p) on distinct lattice points: each
    coordinate is a/b in [0, span] with 0 < b <= denominator_bound, and
    z = 0 when ``flat``.  The lattice must hold n points."""
    pts = _lattice_points(_rng(seed ^ 0x9E3779B97F4A7C15), n,
                          denominator_bound, span, flat)
    return SpatialDrawing(erdos_renyi(n, p, seed), pts)


def random_six_points(seed: int, denominator_bound: int = 64
                      ) -> List[Tuple[Fraction, Fraction, Fraction]]:
    return random_points(6, seed, denominator_bound)


def hopf_pair() -> Tuple[PolygonalCycle, PolygonalCycle]:
    """The standard positively linked polygonal pair (linking number +1)."""
    c1 = PolygonalCycle((point3(1, 0, 0), point3(0, 1, 0),
                         point3(-1, 0, 0), point3(0, -1, 0)))
    c2 = PolygonalCycle((point3(2, 0, 0), point3(1, 0, 1),
                         point3(0, 0, 0), point3(1, 0, -1)))
    return c1, c2


def stacked_pairs(offset: int = 10) -> Tuple[PolygonalCycle, ...]:
    """Two coaxial linked pairs, one near z = 0 and one near z = offset."""
    c1, c2 = hopf_pair()
    d1 = PolygonalCycle(tuple((x, y, z + offset) for x, y, z in c1.points))
    d2 = PolygonalCycle(tuple((x, y, z + offset) for x, y, z in c2.points))
    return c1, c2, d1, d2


def four_k6_drawing(seed: int, denominator_bound: int = 64
                    ) -> SpatialDrawing:
    """Four vertex-disjoint K6 copies at generic rational positions; the
    witness pipeline fixture.  Coordinates are a/b in [0, 8] with
    0 < b <= denominator_bound."""
    pts = _lattice_points(_rng(seed), 24, denominator_bound, 8)
    edges = []
    for c in range(4):
        edges.extend((a + 6 * c, b + 6 * c)
                     for a, b in itertools.combinations(range(6), 2))
    return SpatialDrawing(Graph.from_edges(24, edges), pts)


def _integer(v) -> bool:
    return type(v) is int    # a bool is no int here


def _count(v) -> bool:
    return _integer(v) and v >= 0


def _positive(v) -> bool:
    return _integer(v) and v >= 1


def _flag(v) -> bool:
    return type(v) is bool


def _probability(v) -> bool:
    return type(v) in (int, float) and 0 <= v <= 1


# the parameters of each kind: key -> (check, default); None marks a
# required key
_PARAMS = {
    "points": {"count": (_count, 8), "denominator_bound": (_positive, 64),
               "span": (_positive, 1)},
    "six-points": {"denominator_bound": (_positive, 64)},
    "graph": {"n": (_count, None), "p": (_probability, 0.5)},
    "drawing": {"n": (_count, None), "p": (_probability, 0.5),
                "denominator_bound": (_positive, 64), "span": (_positive, 4),
                "flat": (_flag, False)},
    "hopf-pair": {},
    "stacked-pairs": {"offset": (_integer, 10)},
    "four-k6": {"denominator_bound": (_positive, 64)},
}


def _checked_params(kind: str, params) -> dict:
    """The parameters of ``kind``, defaults filled in, after checking that
    ``params`` is an object whose every key is known and well typed."""
    if kind not in _PARAMS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    if not isinstance(params, dict):
        raise ValidationError("must be a JSON object", "params")
    spec = _PARAMS[kind]
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise ValidationError(f"unknown keys {unknown} for {kind!r}",
                              "params")
    out = {}
    for key, (check, default) in spec.items():
        if key not in params and default is None:
            raise ValidationError(f"missing {key!r} for {kind!r}", "params")
        out[key] = params.get(key, default)
        if not check(out[key]):
            raise ValidationError(f"bad value {out[key]!r}", f"params.{key}")
    return out


def seeded_generators(kind: str, params: dict, seed: int):
    """Dispatch generator by name; outputs are deterministic in
    (kind, params, seed).  ``params`` is an object of the kind's known
    keys; a malformed one raises ValidationError."""
    params = _checked_params(kind, params)
    if kind == "points":
        return random_points(params["count"], seed,
                             params["denominator_bound"], params["span"])
    if kind == "six-points":
        return random_six_points(seed, params["denominator_bound"])
    if kind == "graph":
        return erdos_renyi(params["n"], params["p"], seed)
    if kind == "drawing":
        return random_drawing(seed=seed, **params)
    if kind == "hopf-pair":
        return hopf_pair()
    if kind == "stacked-pairs":
        return stacked_pairs(params["offset"])
    return four_k6_drawing(seed, params["denominator_bound"])
