"""Graph-level procedures: randomized bisection, K6-subdivision extraction
(an exact existence test, then a seeded random search), the linked-cycle
witness pipeline, and the hexagonal-grid construction whose sphere drawing
has no space crossings.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .counting import CrossingWitness, lift_to_sphere
from .drawing import Edge, Graph, SpatialDrawing
from .errors import RetryExhausted, ValidationError
from .geometry import line_meets_segment, point3
from .linking import (LinkedCyclePair, find_linked_pair,
                      transversal_through_cycles, validate_embedding)
from .scalars import _Record


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

class Bisection(_Record):
    def __init__(self, side1: Tuple[int, ...], side2: Tuple[int, ...],
                 edges1: int, edges2: int, retries: int):
        self.side1 = side1
        self.side2 = side2
        self.edges1 = edges1
        self.edges2 = edges2
        self.retries = retries


def _bisection_bound_met(e_i: int, n_edges: int, n_vertices: int) -> bool:
    # e_i >= E/4 - sqrt(V E), decided exactly on integers
    if 4 * e_i >= n_edges:
        return True
    return (n_edges - 4 * e_i) ** 2 <= 16 * n_vertices * n_edges


_BISECTION_RETRIES = 1000     # draws before random_bisection gives up
_BISECTION_ATTEMPTS = 2000    # bisections boost_witness_pipeline tries


def random_bisection(g: Graph, seed: int = 0) -> Bisection:
    """Fair vertex bisection retried until both sides hold at least
    E/4 - sqrt(V E) induced edges; a retry cap guards nontermination."""
    rng = random.Random(seed)
    for attempt in range(1, _BISECTION_RETRIES + 1):
        colors = [rng.randint(0, 1) for _ in range(g.n)]
        e1 = sum(1 for u, v in g.edges if colors[u] == 0 and colors[v] == 0)
        e2 = sum(1 for u, v in g.edges if colors[u] == 1 and colors[v] == 1)
        if _bisection_bound_met(e1, g.m, g.n) and _bisection_bound_met(e2, g.m, g.n):
            side1 = tuple(v for v in range(g.n) if colors[v] == 0)
            side2 = tuple(v for v in range(g.n) if colors[v] == 1)
            return Bisection(side1, side2, e1, e2, attempt)
    raise RetryExhausted(
        f"no valid bisection in {_BISECTION_RETRIES} attempts")


# ---------------------------------------------------------------------------
# K6 subdivisions
# ---------------------------------------------------------------------------

class SubdivisionEmbedding(_Record):
    """Six branch vertices and 15 internally disjoint connecting paths."""

    def __init__(self, branch_vertices: Tuple[int, ...],
                 paths: Dict[Tuple[int, int], List[int]]):
        self.branch_vertices = branch_vertices
        self.paths = paths

    def edge_set(self) -> Set[Edge]:
        out: Set[Edge] = set()
        for path in self.paths.values():
            for a, b in zip(path, path[1:]):
                out.add((min(a, b), max(a, b)))
        return out


_ABSENCE_STEP_LIMIT = 20000


def find_k6_subdivision(g: Graph, budget: int = 200000, seed: int = 0
                        ) -> Optional[SubdivisionEmbedding]:
    """A K6 subdivision, or None.  `_k6_subdivision_absent` runs first, with
    no randomness; unless it proves that there is none, a seeded random
    search of `budget` expansions looks for one.  So None means the proof
    found no subdivision, or the budget ran out on a graph that the proof
    did not rule out."""
    adj = g.adjacency()
    for nbrs in adj:
        nbrs.sort()
    cand = [v for v in range(g.n) if len(adj[v]) >= 5]
    if _k6_subdivision_absent(adj, cand):
        return None
    nbr = [set(a) for a in adj]
    weights = [len(adj[v]) for v in cand]
    rng = random.Random(seed)
    expansions = 0
    while expansions < budget:
        branch = _weighted_sample(rng, cand, weights, 6)
        pairs = _PAIRS.copy()
        _shuffle(rng.getrandbits, pairs)
        # the branch vertices and the inner vertices of the paths so far
        blocked = [False] * g.n
        for v in branch:
            blocked[v] = True
        paths: Dict[Tuple[int, int], List[int]] = {}
        for (i, j) in pairs:
            path, cost = _bfs_path(adj, nbr, branch[i], branch[j], blocked)
            expansions += cost
            if path is None or expansions >= budget:
                break
            paths[(i, j)] = path
            for v in path[1:-1]:
                blocked[v] = True
        else:
            emb = SubdivisionEmbedding(tuple(branch), paths)
            validate_embedding(g, emb)
            return emb
    return None


def _k6_reduced(adj) -> List[Set[int]]:
    """Neighbour sets of the graph after the three rules of
    `_k6_subdivision_absent`, applied until none applies.  Deleted
    vertices keep no neighbour."""
    nbr = [set(a) for a in adj]
    todo = [v for v, a in enumerate(nbr) if len(a) <= 2]
    while todo:
        w = todo.pop()
        if not 0 < len(nbr[w]) <= 2:
            continue
        ends = nbr[w]
        nbr[w] = set()
        for u in ends:
            nbr[u].discard(w)
        if len(ends) == 2:
            u, v = ends
            if v not in nbr[u]:
                nbr[u].add(v)
                nbr[v].add(u)
                continue
        todo.extend(ends)
    return nbr


def _k6_subdivision_absent(adj, cand) -> bool:
    """True only when no six of `cand` are the branch vertices of a K6
    subdivision.

    The search runs on the graph reduced by three rules (`_k6_reduced`).
    Each keeps every subdivision with its branch vertices, which have
    degree >= 5 and so are never touched:
    1. Delete a vertex of degree 1: no path between branch vertices can
       pass it.
    2. Delete a vertex w of degree 2 whose neighbours u, v are adjacent.  A
       path passes w only as u-w-v, and can take the edge uv instead: no
       other path uses uv, as u or v is an inner vertex of that path, or
       both are branch vertices and the path is the one that joins them.
    3. Replace a vertex w of degree 2 whose neighbours u, v are not
       adjacent by the edge uv, which stands for u-w-v.
    The candidates are then those of `cand` that keep degree >= 5.

    Adjacent branch vertices are joined by their edge and the other
    pairs, one after another, by chordless paths; this loses no
    subdivision, as the edge or a shortcut along a chord frees vertices.
    False when a subdivision is found or `_ABSENCE_STEP_LIMIT` steps run
    out.  Branch sets come in descending order of degree, where
    subdivisions are likelier, each searched in increasing vertex order.
    The order of the sets moves no answer: a True one searches every set
    to the end, in the same number of steps in any order."""
    nbr = _k6_reduced(adj)
    cand = [v for v in cand if len(nbr[v]) >= 5]
    if len(cand) < 6:
        return True
    adj = [sorted(a) for a in nbr]
    blocked = [False] * len(adj)   # branch vertices and path vertices
    free = [len(a) for a in adj]   # neighbours not blocked
    need = [0] * len(adj)          # pairs left at each branch vertex
    steps = 0

    def step():
        nonlocal steps
        steps += 1
        if steps > _ABSENCE_STEP_LIMIT:
            raise RetryExhausted("K6 absence search")

    def block(w, flag):
        blocked[w] = flag
        change = -1 if flag else 1
        for x in adj[w]:
            free[x] += change

    def interiors(path, v):
        # extend the chordless path `path`, whose vertices are blocked, to
        # v; at each yield its inner vertices are blocked as well
        for w in adj[path[-1]]:
            if blocked[w] or any(p in nbr[w] for p in path[:-1]):
                continue
            step()
            block(w, True)
            if v in nbr[w]:
                yield
            else:
                path.append(w)
                yield from interiors(path, v)
                path.pop()
            block(w, False)

    def linked(branch, todo, k):
        if k == len(todo):
            return True
        step()
        # each pair left needs its own free neighbour at both ends
        if any(need[x] > free[x] for x in branch):
            return False
        u, v = todo[k]
        need[u] -= 1
        need[v] -= 1
        if any(linked(branch, todo, k + 1) for _ in interiors([u], v)):
            return True
        need[u] += 1
        need[v] += 1
        return False

    try:
        for branch in map(sorted, combinations(
                sorted(cand, key=lambda v: -len(nbr[v])), 6)):
            todo = [(u, v) for u, v in combinations(branch, 2)
                    if v not in nbr[u]]
            for u, v in todo:
                need[u] += 1
                need[v] += 1
            for x in branch:
                block(x, True)
            if linked(branch, todo, 0):
                return False
            for x in branch:
                block(x, False)
                need[x] = 0
        return True
    except RetryExhausted:
        return False


def _weighted_sample(rng, items, weights, k):
    """k distinct items, each drawn with probability proportional to its
    positive weight among those left: the first item whose prefix sum of
    weights reaches a uniform draw from [0, total].  A drawn item's weight
    reads 0 in ``weights`` until the end."""
    drawn, total = [], sum(weights)
    for _ in range(k):
        r, acc = rng.random() * total, 0    # rng.uniform(0, total)
        for i, w in enumerate(weights):
            acc += w
            if acc >= r and w:
                break
        drawn.append((i, w))
        weights[i], total = 0, total - w
    for i, w in drawn:
        weights[i] = w
    return [items[i] for i, _ in drawn]


_PAIRS = list(combinations(range(6), 2))
_SHUFFLE_STEPS = [(i, (i + 1).bit_length()) for i in range(14, 0, -1)]


def _shuffle(getrandbits, pairs):
    """``Random.shuffle`` of the 15 pairs in place, on the same draws: step
    i swaps with ``_randbelow(i + 1)``, bits of i + 1 drawn until <= i."""
    for i, k in _SHUFFLE_STEPS:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        pairs[i], pairs[j] = pairs[j], pairs[i]


def _bfs_path(adj, nbr, src, dst, blocked):
    """A shortest src-dst path whose inner vertices are not flagged in
    `blocked`, and its cost: the vertices dequeued, or all queued ones when
    there is no path.  The ends' own flags do not matter: src is seen from
    the start, and dst ends the search before it could be queued."""
    if src == dst:
        return [src], 1
    if dst in nbr[src]:
        return [src, dst], 1
    seen = blocked.copy()
    seen[src] = True
    prev = [src] * len(adj)
    queue = [src]
    for cost, u in enumerate(queue, 1):  # cost: vertices expanded so far
        if dst in nbr[u]:
            path = [dst, u]
            while u != src:
                u = prev[u]
                path.append(u)
            return path[::-1], cost
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                prev[w] = u
                queue.append(w)
    return None, len(queue)


def extract_disjoint_subdivisions(g: Graph, budget: int = 200000, seed: int = 0
                                  ) -> List[SubdivisionEmbedding]:
    """Greedy edge-disjoint K6 subdivisions: find one, delete its edges,
    repeat until `find_k6_subdivision` returns None, that is until the
    absence proof finds no subdivision in what is left, or the budget runs
    out on a graph that the proof did not rule out."""
    found: List[SubdivisionEmbedding] = []
    edges = set(g.edges)
    round_no = 0
    while True:
        current = Graph(g.n, tuple(sorted(edges)))
        emb = find_k6_subdivision(current, budget=budget, seed=seed + round_no)
        if emb is None:
            return found
        found.append(emb)
        edges -= emb.edge_set()
        round_no += 1


# ---------------------------------------------------------------------------
# linked-cycle witness pipeline
# ---------------------------------------------------------------------------

def _induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    vs = set(vertices)
    return Graph(g.n, tuple(e for e in g.edges if e[0] in vs and e[1] in vs))


def _step_contact(d: SpatialDrawing, line, a: int, b: int, u):
    """The witness contact ``(edge, 0, parameter)`` of ``line`` at
    parameter ``u`` of the loop step a -> b, the parameter running from the
    edge's lower vertex.  On a reversed step u = 0 is the higher vertex or
    a contained segment (which reports 0), so the drawn edge decides."""
    edge = (min(a, b), max(a, b))
    if a > b:
        u = 1 - u if u != 0 else line_meets_segment(
            line, d.edge_segments(edge)[0])[1]
    return edge, 0, u


def boost_witness_pipeline(d: SpatialDrawing, seed: int = 0,
                           budget: int = 100000) -> List[CrossingWitness]:
    """Explicit space-crossing witnesses from linked cycle pairs.

    Bisect the graph, extract edge-disjoint K6 subdivisions on each side,
    convert each to an odd-linked cycle pair, and search a transversal for
    every cross pair of linked pairs.  A witness is the segment the search
    met on each cycle and its contact from the drawn edge's lower vertex, as
    ``count_line_crossings`` reports it.  Because a fair bisection rarely
    keeps whole subdivisions inside one side on small graphs, bisections
    are retried (deterministically seeded) until both sides are
    productive or the attempt budget runs out.  ``budget`` is the number
    of search expansions each K6 extraction may spend, at least 1.
    """
    if budget < 1:
        raise ValidationError(f"must be at least 1, got {budget}", "budget")
    if not d.is_straight():
        raise ValidationError("witness pipeline needs a straight-line drawing")
    g = d.graph
    best: Optional[Tuple[List[SubdivisionEmbedding], List[SubdivisionEmbedding]]] = None
    for attempt in range(_BISECTION_ATTEMPTS):
        bis = random_bisection(g, seed=seed * 1000003 + attempt)
        sides = []
        productive = True
        for side_vertices in (bis.side1, bis.side2):
            sub = _induced_subgraph(g, side_vertices)
            if sum(len(nbrs) >= 5 for nbrs in sub.adjacency()) < 6:
                productive = False
                break
            sides.append(sub)
        if not productive:
            continue
        subs = [extract_disjoint_subdivisions(s, budget=budget, seed=seed + attempt)
                for s in sides]
        if all(len(s) >= 1 for s in subs):
            best = (subs[0], subs[1])
            break
    if best is None:
        return []

    linked: List[List[LinkedCyclePair]] = []
    for side in best:
        pairs = []
        for emb in side:
            pairs.append(find_linked_pair(d, emb))
        linked.append(pairs)

    witnesses: List[CrossingWitness] = []
    seen_quadruples: Set[Tuple[Edge, ...]] = set()
    for lp1 in linked[0]:
        for lp2 in linked[1]:
            # both pairs are linked, so the search finds a line or raises
            indices, res = transversal_through_cycles(
                [lp1.cycle1, lp1.cycle2, lp2.cycle1, lp2.cycle2])
            loops = (lp1.loop1, lp1.loop2, lp2.loop1, lp2.loop2)
            contacts = [_step_contact(d, res.line, loop[i],
                                      loop[(i + 1) % len(loop)], u)
                        for loop, i, u in zip(loops, indices, res.params)]
            edges = tuple(e for e, _, _ in contacts)
            quad = tuple(sorted(edges))
            if quad in seen_quadruples:
                raise AssertionError(
                    "edge-disjoint cycles produced a repeated quadruple (bug)")
            seen_quadruples.add(quad)
            witnesses.append(CrossingWitness(edges, res.line, contacts))
    return witnesses


# ---------------------------------------------------------------------------
# truncated hexagonal grid and its spherical drawing
# ---------------------------------------------------------------------------

_HEX_OFFSETS = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]


def _hex_center(x: int, y: int) -> Tuple[int, int]:
    return (3 * (x - y), 2 * (x + y))


class HexGrid(_Record):
    """Truncated hexagonal grid: the hexagons with axial coordinates in
    [-k, k]^2 except two opposite corner cells (replaced by chords), plus
    one boundary chord per consecutive pair of degree-2 rim vertices.
    """

    def __init__(self, k: int, graph: Graph, coords: List[Tuple[int, int]],
                 faces: List[List[int]]):
        self.k = k
        self.graph = graph
        self.coords = coords
        self.faces = faces


def _trace_faces(n: int, edges, coords):
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort(key=lambda w: math.atan2(coords[w][1] - coords[v][1],
                                             coords[w][0] - coords[v][0]))
    visited = set()
    faces = []
    for a, b in edges:
        for (u, v) in ((a, b), (b, a)):
            if (u, v) in visited:
                continue
            face = []
            cu, cv = u, v
            while (cu, cv) not in visited:
                visited.add((cu, cv))
                face.append(cu)
                ns = adj[cv]
                i = ns.index(cu)
                cu, cv = cv, ns[(i - 1) % len(ns)]
            faces.append(face)
    def signed_area(face):
        s = 0
        for i in range(len(face)):
            x1, y1 = coords[face[i]]
            x2, y2 = coords[face[(i + 1) % len(face)]]
            s += x1 * y2 - x2 * y1
        return s
    outer = min(range(len(faces)), key=lambda i: signed_area(faces[i]))
    return faces, outer


def hexgrid_graph(k: int) -> HexGrid:
    if k < 1:
        raise ValidationError("grid scale must be at least 1")
    cut = {(-k, k), (k, -k)}
    cells = [(x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)
             if (x, y) not in cut]
    edges_xy: Set[Tuple[Tuple[int, int], Tuple[int, int]]] = set()

    def add(a, b):
        edges_xy.add((min(a, b), max(a, b)))

    for (x, y) in cells + sorted(cut):
        c = _hex_center(x, y)
        vs = [(c[0] + dx, c[1] + dy) for dx, dy in _HEX_OFFSETS]
        if (x, y) in cut:
            if (x, y) == (-k, k):
                add(vs[5], vs[1])
            else:
                add(vs[2], vs[4])
            continue
        for i in range(6):
            add(vs[i], vs[(i + 1) % 6])

    verts = sorted({v for e in edges_xy for v in e})
    index = {v: i for i, v in enumerate(verts)}
    base_edges = sorted((index[a], index[b]) if index[a] < index[b]
                        else (index[b], index[a]) for a, b in edges_xy)
    n = len(verts)
    faces, outer = _trace_faces(n, base_edges, verts)
    rim = faces[outer]
    degree = [0] * n
    for a, b in base_edges:
        degree[a] += 1
        degree[b] += 1
    d2 = [i for i, v in enumerate(rim) if degree[v] == 2]
    if len(d2) % 2 != 0:
        raise AssertionError("odd number of rim degree-2 vertices (bug)")
    # pair consecutive degree-2 rim vertices; choose the pairing phase that
    # avoids joining boundary-adjacent vertices (which would double edges)
    closure: List[Edge] = []
    for phase in (0, 1):
        trial = []
        ok = True
        for t in range(0, len(d2), 2):
            i = d2[(t + phase) % len(d2)]
            j = d2[(t + 1 + phase) % len(d2)]
            u, v = rim[i], rim[j]
            gap = (j - i) % len(rim)
            if gap <= 1 or (min(u, v), max(u, v)) in base_edges:
                ok = False
                break
            trial.append((min(u, v), max(u, v)))
        if ok:
            closure = trial
            break
    if not closure:
        raise AssertionError("no valid rim pairing found (bug)")

    all_edges = sorted(set(base_edges) | set(closure))
    graph = Graph(n, tuple(all_edges))
    faces, _ = _trace_faces(n, all_edges, verts)
    _validate_hexgrid(graph, faces)
    return HexGrid(k, graph, verts, faces)


def _validate_hexgrid(graph: Graph, faces):
    """Checks linear in the grid size: every vertex has degree 3, the graph
    is connected, and the faces traced from the drawing's rotation system
    satisfy Euler's formula V - E + F = 2, so that rotation system is a
    plane embedding.  The tests also run the exhaustive checks (no two
    vertices disconnect the grid, no two edges cross) on small grids."""
    adj = graph.adjacency()
    for v, nbrs in enumerate(adj):
        if len(nbrs) != 3:
            raise AssertionError(f"vertex {v} has degree {len(nbrs)}")
    if -1 in _bfs_levels(adj, 0):
        raise AssertionError("grid is not connected")
    euler = graph.n - graph.m + len(faces)
    if euler != 2:
        raise AssertionError(f"V - E + F = {euler}, not 2: the traced faces "
                             "are not a plane embedding")


def _bfs_levels(adj, src) -> List[int]:
    """Distance from src to each vertex of the graph with adjacency lists
    adj, or -1 where src does not reach."""
    level = [-1] * len(adj)
    level[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                queue.append(w)
    return level


def _vertex_face_distances(grid: HexGrid) -> np.ndarray:
    """dist[u, v]: least distance in the planar dual, the outer face
    included, between a face at vertex u and a face at vertex v."""
    edge_faces: Dict[Edge, List[int]] = {}
    vertex_faces: List[List[int]] = [[] for _ in range(grid.graph.n)]
    for fi, face in enumerate(grid.faces):
        for i, a in enumerate(face):
            b = face[(i + 1) % len(face)]
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(fi)
            vertex_faces[a].append(fi)
    dual_adj: List[Set[int]] = [set() for _ in grid.faces]
    for fs in edge_faces.values():
        if len(fs) == 2:
            dual_adj[fs[0]].add(fs[1])
            dual_adj[fs[1]].add(fs[0])
    face_dist = np.array([_bfs_levels(dual_adj, src)
                          for src in range(len(grid.faces))])
    to_face = np.array([face_dist[fs].min(axis=0) for fs in vertex_faces])
    return np.array([to_face[:, fs].min(axis=1) for fs in vertex_faces])


class HexGridConstruction(_Record):
    def __init__(self, graph: Graph,  # the grid plus the special chord edge
                 special_edge: Edge, drawing: SpatialDrawing, grid: HexGrid):
        self.graph = graph
        self.special_edge = special_edge
        self.drawing = drawing
        self.grid = grid


def hexgrid_construction(k: int, subdivision: int, seed: int = 0
                         ) -> HexGridConstruction:
    """Spherical drawing of the truncated hexagonal grid plus one straight
    chord between two vertices at the largest distance in the face metric
    (see `_vertex_face_distances`), at least ceil((2k+1)/4).

    The grid is lifted crossing-free by `lift_to_sphere` as polylines of
    chords inside a large sphere, not arcs on it, so the grid edges alone
    can have transversal quadruples: for k = 3, subdivision 2, one line
    meets grid edges (0, 1), (3, 6), (5, 9) and (12, 17).
    """
    grid = hexgrid_graph(k)
    dist = _vertex_face_distances(grid)
    # the farthest pair; argmax takes the first, i.e. the least (u, v)
    u, v = divmod(int(np.argmax(np.triu(dist))), grid.graph.n)
    need = math.ceil((2 * k + 1) / 4)
    if dist[u, v] < need:
        raise AssertionError(f"face separation {dist[u, v]} below {need}")

    flat = SpatialDrawing(grid.graph, [point3(x, y, 0) for x, y in grid.coords])
    lifted = lift_to_sphere(flat, subdivision, seed=seed)
    edges = sorted(set(grid.graph.edges) | {(min(u, v), max(u, v))})
    full_graph = Graph(grid.graph.n, tuple(edges))
    drawing = SpatialDrawing(full_graph, lifted.positions, dict(lifted.polylines))
    return HexGridConstruction(full_graph, (min(u, v), max(u, v)), drawing, grid)
