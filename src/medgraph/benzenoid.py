"""Benzenoid systems on the hexagonal tiling with their three-tree embedding.

Hexagons are addressed by axial coordinates (a, b); corners live on a
doubled triangular integer lattice so that all corner coordinates and the
three edge directions are exact integers.  Removing the edges of one
direction class leaves a forest whose components, one tree per class, give
an isometric embedding into the Cartesian product of three trees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DisconnectedHexagons, HoleDetected, ParseError
from .graph import DistMatrix, Graph, _data_lines, all_pairs_distances, build_graph

# hexagon center for axial (a, b) is (3a, 2a + 4b); corners are center + these
_CORNERS = ((2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2))
_AXIAL_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

# direction class of an edge by its coordinate difference (up to sign)
_CLASS_OF = {(2, 0): 1, (1, 2): 2, (1, -2): 3}


@dataclass(frozen=True)
class BenzenoidSpec:
    hexagons: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "hexagons",
                           frozenset((int(a), int(b)) for a, b in self.hexagons))
        if not self.hexagons:
            raise ParseError("benzenoid needs at least one hexagon")
        _check_connected(self.hexagons)
        _check_hole_free(self.hexagons)


def _check_connected(cells) -> None:
    start = min(cells)
    seen = {start}
    stack = [start]
    while stack:
        a, b = stack.pop()
        for da, db in _AXIAL_NEIGHBORS:
            nb = (a + da, b + db)
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(cells):
        raise DisconnectedHexagons("hexagon set is not edge-connected")


def _check_hole_free(cells) -> None:
    """Flood fill outside the hexagon set: every complement cell of the
    padded bounding box must reach the boundary."""
    amin = min(a for a, _ in cells) - 1
    amax = max(a for a, _ in cells) + 1
    bmin = min(b for _, b in cells) - 1
    bmax = max(b for _, b in cells) + 1
    outside = set()
    stack = [(amin, bmin)]
    while stack:
        cell = stack.pop()
        if cell in outside or cell in cells:
            continue
        a, b = cell
        if not (amin <= a <= amax and bmin <= b <= bmax):
            continue
        outside.add(cell)
        stack.extend((a + da, b + db) for da, db in _AXIAL_NEIGHBORS)
    for a in range(amin, amax + 1):
        for b in range(bmin, bmax + 1):
            if (a, b) not in cells and (a, b) not in outside:
                raise HoleDetected(f"cell ({a},{b}) is enclosed by the system")


def read_benzenoid_spec(text: str) -> BenzenoidSpec:
    cells = set()
    for ln in _data_lines(text):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad benzenoid line {ln!r}")
        try:
            cells.add((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"bad benzenoid line {ln!r}") from exc
    return BenzenoidSpec(frozenset(cells))


def _hex_center(a: int, b: int) -> tuple[int, int]:
    return (3 * a, 2 * a + 4 * b)


def _hex_corners(a: int, b: int):
    cx, cy = _hex_center(a, b)
    return [(cx + dx, cy + dy) for dx, dy in _CORNERS]


def edge_class(p: tuple[int, int], q: tuple[int, int]) -> int:
    dx, dy = q[0] - p[0], q[1] - p[1]
    if dx < 0:
        dx, dy = -dx, -dy
    cls = _CLASS_OF.get((dx, dy))
    if cls is None:
        raise ValueError(f"{p}-{q} is not a lattice edge")
    return cls


@dataclass(frozen=True)
class BenzenoidGraph:
    graph: Graph
    spec: BenzenoidSpec
    coords: dict[int, tuple[int, int]]
    edge_classes: dict[tuple[int, int], int]          # (u,v) sorted -> 1|2|3
    trees: tuple[Graph, Graph, Graph]
    phi: dict[int, tuple[int, int, int]] = field(default=None)
    hexagons: tuple[tuple[int, ...], ...] = ()        # vertex 6-tuples

    def tree_distance_sum(self, dists, u: int, v: int) -> int:
        return sum(dists[i](self.phi[u][i], self.phi[v][i]) for i in range(3))


def benzenoid(spec: BenzenoidSpec) -> BenzenoidGraph:
    corner_ids: dict[tuple[int, int], int] = {}
    hex_corner_lists = {}
    for cell in sorted(spec.hexagons):
        hex_corner_lists[cell] = _hex_corners(*cell)
        for c in hex_corner_lists[cell]:
            corner_ids.setdefault(c, None)
    for i, c in enumerate(sorted(corner_ids)):
        corner_ids[c] = i
    edges = set()
    for cell, corners in hex_corner_lists.items():
        for i in range(6):
            p, q = corners[i], corners[(i + 1) % 6]
            a, b = corner_ids[p], corner_ids[q]
            edges.add((min(a, b), max(a, b)))
    g = build_graph(len(corner_ids), sorted(edges), name="benzenoid")
    coords = {i: c for c, i in corner_ids.items()}
    classes = {e: edge_class(coords[e[0]], coords[e[1]]) for e in sorted(edges)}
    trees, comp_maps = _tree_factors(g, classes)
    phi = {v: tuple(comp_maps[i][v] for i in range(3)) for v in range(g.n)}
    hexes = tuple(tuple(corner_ids[c] for c in hex_corner_lists[cell])
                  for cell in sorted(spec.hexagons))
    return BenzenoidGraph(g, spec, coords, classes, trees, phi, hexes)


def _tree_factors(g: Graph, classes):
    trees, comp_maps = [], []
    for cls in (1, 2, 3):
        keep = [e for e, c in classes.items() if c != cls]
        comp = _components(g.n, keep)
        comp_maps.append(comp)
        ncomp = max(comp) + 1
        tedges = set()
        for (a, b), c in classes.items():
            if c == cls:
                ca, cb = comp[a], comp[b]
                tedges.add((min(ca, cb), max(ca, cb)))
        tree = build_graph(ncomp, sorted(tedges), name=f"T_{cls}")
        if tree.num_edges() != ncomp - 1:
            raise AssertionError(f"factor {cls} is not a tree")
        trees.append(tree)
    return tuple(trees), comp_maps


def _components(n: int, edges) -> list[int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(x) for x in range(n)})
    index = {r: i for i, r in enumerate(roots)}
    return [index[find(x)] for x in range(n)]


def verify_isometric_embedding(bg: BenzenoidGraph) -> bool:
    d = all_pairs_distances(bg.graph)
    dists = [all_pairs_distances(t) for t in bg.trees]
    return all(d(u, v) == bg.tree_distance_sum(dists, u, v)
               for u in range(bg.graph.n) for v in range(u + 1, bg.graph.n))


def incomplete_hexagons(bg: BenzenoidGraph) -> list[tuple[int, ...]]:
    """Length-3 paths using one edge of each direction class whose tiling
    hexagon meets the graph in exactly that path."""
    g = bg.graph
    cls = bg.edge_classes
    coord_ids = {c: v for v, c in bg.coords.items()}
    present = set(bg.spec.hexagons)
    found = []
    seen = set()
    for x1, x2 in g.edges():
        for x0 in g.adj[x1]:
            if x0 == x2:
                continue
            for x3 in g.adj[x2]:
                if x3 in (x0, x1):
                    continue
                path = (x0, x1, x2, x3)
                key = min(path, path[::-1])
                if key in seen:
                    continue
                pcls = {cls[_ekey(x0, x1)], cls[_ekey(x1, x2)], cls[_ekey(x2, x3)]}
                if len(pcls) != 3:
                    continue
                seen.add(key)
                cell = _containing_hexagon(bg, path)
                if cell is None or cell in present:
                    continue
                if _hexagon_meets_graph_in_path(bg, coord_ids, cell, path):
                    found.append(path)
    return found


def _ekey(a, b):
    return (min(a, b), max(a, b))


def _containing_hexagon(bg: BenzenoidGraph, path):
    """The unique tiling hexagon whose corner cycle contains the path."""
    c0 = bg.coords[path[0]]
    pts = {bg.coords[x] for x in path}
    for dx, dy in _CORNERS:
        cx, cy = c0[0] - dx, c0[1] - dy
        if cx % 3:
            continue
        a = cx // 3
        if (cy - 2 * a) % 4:
            continue
        b = (cy - 2 * a) // 4
        if pts <= set(_hex_corners(a, b)):
            return (a, b)
    return None


def _hexagon_meets_graph_in_path(bg, coord_ids, cell, path) -> bool:
    corners = _hex_corners(*cell)
    inside = {coord_ids[c] for c in corners if c in coord_ids}
    if inside != set(path):
        return False
    hex_edges = set()
    for i in range(6):
        p, q = corners[i], corners[(i + 1) % 6]
        if p in coord_ids and q in coord_ids:
            a, b = coord_ids[p], coord_ids[q]
            if bg.graph.has_edge(a, b):
                hex_edges.add(_ekey(a, b))
    path_edges = {_ekey(path[i], path[i + 1]) for i in range(3)}
    return hex_edges == path_edges
