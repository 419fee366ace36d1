"""Graphs, spatial drawings and their JSON document codec.

Scalars in documents are canonical 'p/q' strings (reduced, q > 0); bare
integer strings are accepted on input for convenience.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .geometry import Segment3, Vec3
from .scalars import _FrozenRecord, _Record, rat_from_str, rat_to_str

Edge = Tuple[int, int]


class Graph(_FrozenRecord):
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: Tuple[Edge, ...]

    def __init__(self, n, edges):
        if n < 0:
            raise ValidationError(f"negative vertex count {n}", "n")
        seen = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValidationError(f"loop at vertex {u}", "edges")
            if not (0 <= u < v < n):
                raise ValidationError(f"edge {e} out of range or unordered", "edges")
            if e in seen:
                raise ValidationError(f"multiple edge {e}", "edges")
            seen.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
        return Graph(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


class SpatialDrawing(_Record):
    """Vertex positions plus a polyline per edge.

    ``polylines`` maps an edge to its interior points only; the drawn curve
    always starts and ends at the incident vertex positions, so endpoint
    consistency holds by construction.  Edges missing from the map are
    straight segments.
    """

    def __init__(self, graph: Graph, positions: List[Vec3],
                 polylines: Optional[Dict[Edge, List[Vec3]]] = None):
        self.graph = graph
        self.positions = positions
        self.polylines = {} if polylines is None else polylines
        if len(self.positions) != self.graph.n:
            raise ValidationError(
                f"{len(self.positions)} positions for {self.graph.n} vertices",
                "vertices")
        edge_set = set(self.graph.edges)
        for e in self.polylines:
            if e not in edge_set:
                raise ValidationError(f"polyline for unknown edge {e}", "edges")
        for e in self.graph.edges:
            pts = self.edge_points(e)
            for i in range(len(pts) - 1):
                if pts[i] == pts[i + 1]:
                    raise ValidationError(
                        f"repeated consecutive point {i} on edge {e}", "edges")

    def edge_points(self, e: Edge) -> List[Vec3]:
        u, v = e
        return [self.positions[u], *self.polylines.get(e, []), self.positions[v]]

    def edge_segments(self, e: Edge) -> List[Segment3]:
        pts = self.edge_points(e)
        return [Segment3(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]

    def is_straight(self) -> bool:
        return all(not pts for pts in self.polylines.values())

    def is_flat(self) -> bool:
        return all(p[2] == 0 for p in self.positions) and all(
            pt[2] == 0 for pts in self.polylines.values() for pt in pts)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def _pos_to_doc(p: Vec3) -> List[str]:
    return [rat_to_str(c) for c in p]


def _pos_from_doc(doc, where: str) -> Vec3:
    if not isinstance(doc, list) or len(doc) != 3:
        raise ValidationError("position must be a list of 3 scalars", where)
    try:
        return tuple(rat_from_str(c) for c in doc)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad scalar: {exc}", where)


def _list_from_doc(doc, where: str) -> list:
    if not isinstance(doc, list):
        raise ValidationError("expected a list", where)
    return doc


def _points_from_doc(doc, where: str) -> List[Vec3]:
    """The list ``doc`` of positions."""
    return [_pos_from_doc(p, f"{where}[{i}]")
            for i, p in enumerate(_list_from_doc(doc, where))]


def encode_drawing(d: SpatialDrawing) -> bytes:
    doc = {
        "n": d.graph.n,
        "vertices": [{"id": i, "pos": _pos_to_doc(p)}
                     for i, p in enumerate(d.positions)],
        "edges": [{"u": u, "v": v,
                   "polyline": [_pos_to_doc(p) for p in d.polylines.get((u, v), [])]}
                  for u, v in d.graph.edges],
    }
    return json.dumps(doc, indent=1).encode("utf-8")


def _json_object(data) -> dict:
    """The JSON object of the text ``data`` (bytes or str), or ``data``
    itself when it is already decoded."""
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"not valid JSON: {exc}", "document")
    if not isinstance(data, dict):
        raise ValidationError("top level must be an object", "document")
    return data


def decode_drawing(data) -> SpatialDrawing:
    doc = _json_object(data)
    try:
        n = int(doc["n"])
    except (KeyError, TypeError, ValueError):
        raise ValidationError("missing or bad vertex count", "n")
    if n < 0:
        raise ValidationError(f"negative vertex count {n}", "n")
    verts = doc.get("vertices")
    if not isinstance(verts, list) or len(verts) != n:
        raise ValidationError(f"expected {n} vertex records", "vertices")
    positions: List[Optional[Vec3]] = [None] * n
    for k, rec in enumerate(verts):
        where = f"vertices[{k}]"
        try:
            vid = int(rec["id"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError("missing id", where)
        if not (0 <= vid < n) or positions[vid] is not None:
            raise ValidationError(f"bad or duplicate id {vid}", where)
        positions[vid] = _pos_from_doc(rec.get("pos"), where + ".pos")
    edges = []
    polylines: Dict[Edge, List[Vec3]] = {}
    for k, rec in enumerate(_list_from_doc(doc.get("edges", []), "edges")):
        where = f"edges[{k}]"
        try:
            u, v = int(rec["u"]), int(rec["v"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError("missing endpoints", where)
        if u == v:
            raise ValidationError(f"loop at vertex {u}", where)
        e = (min(u, v), max(u, v))
        edges.append(e)
        pts = _points_from_doc(rec.get("polyline") or [], f"{where}.polyline")
        if pts:
            if (u, v) != e:
                pts.reverse()
            polylines[e] = pts
    if len(set(edges)) != len(edges):
        raise ValidationError("multiple edge in document", "edges")
    return SpatialDrawing(Graph.from_edges(n, edges), positions, polylines)
