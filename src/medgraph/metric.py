"""Intervals, convex/gated sets, metric triangles, and quasi-medians."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotEquilateral
from .graph import DistMatrix, Graph


def interval_mask(d: DistMatrix, u: int, v: int) -> int:
    """I(u,v) as a bitset: the vertices at distance i from u and k-i from v."""
    lu, lv, k = d.levels[u], d.levels[v], d(u, v)
    mask = 0
    for i in range(k + 1):
        mask |= lu[i] & lv[k - i]
    return mask


def members(mask: int) -> list[int]:
    """The vertices of a bitset in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def interval(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """I(u,v) = vertices on at least one (u,v)-geodesic."""
    return set(members(interval_mask(d, u, v)))


def interior_interval(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """I(u,v) minus the endpoints."""
    return interval(g, d, u, v) - {u, v}


def is_convex_set(g: Graph, d: DistMatrix, s: set[int]) -> bool:
    for x in s:
        for y in s:
            if x < y and not interval(g, d, x, y) <= s:
                return False
    return True


def is_gated_set(g: Graph, d: DistMatrix, s: set[int]) -> tuple[bool, dict[int, int] | None]:
    """Decide whether s is gated; on success also return the gate map.

    The gate of x, when it exists, is the unique nearest vertex of s and
    lies on a geodesic from x to every vertex of s.
    """
    if not s:
        raise ValueError("gated set must be nonempty")
    gates: dict[int, int] = {}
    for x in range(g.n):
        if x in s:
            gates[x] = x
            continue
        dmin = min(d(x, y) for y in s)
        nearest = [y for y in s if d(x, y) == dmin]
        if len(nearest) != 1:
            return False, None
        gate = nearest[0]
        if any(d(x, gate) + d(gate, y) != d(x, y) for y in s):
            return False, None
        gates[x] = gate
    return True, gates


@dataclass(frozen=True)
class MetricTriangle:
    """A triple whose pairwise intervals meet only at the endpoints.

    `size` is the common side length for equilateral triangles and None
    otherwise.
    """

    v1: int
    v2: int
    v3: int
    size: int | None

    def vertices(self) -> tuple[int, int, int]:
        return (self.v1, self.v2, self.v3)


def is_metric_triangle(g: Graph, d: DistMatrix, v1: int, v2: int, v3: int) -> bool:
    for a, b, c in ((v1, v2, v3), (v2, v1, v3), (v3, v1, v2)):
        if interval(g, d, a, b) & interval(g, d, a, c) != {a}:
            return False
    return True


def make_metric_triangle(g: Graph, d: DistMatrix, v1: int, v2: int, v3: int) -> MetricTriangle:
    sides = {d(v1, v2), d(v2, v3), d(v3, v1)}
    size = sides.pop() if len(sides) == 1 else None
    return MetricTriangle(v1, v2, v3, size)


def is_strongly_equilateral(g: Graph, d: DistMatrix, t: MetricTriangle) -> bool:
    """Each corner is equidistant from every vertex of the opposite side."""
    if t.size is None:
        raise NotEquilateral(f"triangle {t.vertices()} is not equilateral")
    k = t.size
    for apex, a, b in ((t.v1, t.v2, t.v3), (t.v2, t.v1, t.v3), (t.v3, t.v1, t.v2)):
        if any(d(apex, x) != k for x in interval(g, d, a, b)):
            return False
    return True


def _quasi_median_equalities(d: DistMatrix, x: int, y: int, z: int,
                             v1: int, v2: int, v3: int) -> bool:
    return (d(x, y) == d(x, v1) + d(v1, v2) + d(v2, y)
            and d(y, z) == d(y, v2) + d(v2, v3) + d(v3, z)
            and d(z, x) == d(z, v3) + d(v3, v1) + d(v1, x))


def enumerate_quasi_medians(g: Graph, d: DistMatrix, x: int, y: int, z: int) -> list[MetricTriangle]:
    """All quasi-medians of the triplet, by O(n^3) filtering."""
    ixy, ixz, iyz = interval_mask(d, x, y), interval_mask(d, x, z), interval_mask(d, y, z)
    c1, c2, c3 = members(ixy & ixz), members(ixy & iyz), members(ixz & iyz)
    out = []
    for v1 in c1:
        for v2 in c2:
            for v3 in c3:
                if (_quasi_median_equalities(d, x, y, z, v1, v2, v3)
                        and is_metric_triangle(g, d, v1, v2, v3)):
                    out.append(make_metric_triangle(g, d, v1, v2, v3))
    return out


def greedy_quasi_median(g: Graph, d: DistMatrix, x: int, y: int, z: int) -> MetricTriangle:
    """The greedy quasi-median; ties broken by smallest vertex index.

    v1 is picked in I(x,y) & I(x,z) farthest from x, then v2 in
    I(y,v1) & I(y,z) farthest from y, then v3 in I(z,v1) & I(z,v2)
    farthest from z.
    """
    def far(pool: set[int], base: int) -> int:
        dmax = max(d(base, w) for w in pool)
        return min(w for w in pool if d(base, w) == dmax)

    v1 = far(interval(g, d, x, y) & interval(g, d, x, z), x)
    v2 = far(interval(g, d, y, v1) & interval(g, d, y, z), y)
    v3 = far(interval(g, d, z, v1) & interval(g, d, z, v2), z)
    return make_metric_triangle(g, d, v1, v2, v3)


def J_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """J(u,v): vertices z with I(z,u) & I(z,v) = {z}.

    Equivalently, no neighbour y of z is closer than z to both u and v.
    Such a y lies in I(z,u) & I(z,v).  Conversely, if w != z lies in both
    intervals, the first step y of a (z,w)-geodesic has
    d(y,u) <= d(z,w) - 1 + d(w,u) = d(z,u) - 1, and likewise for v.  So
    one pair costs O(n + m).
    """
    if u == v:
        raise ValueError("J_set requires u != v")
    du, dv = d[u], d[v]
    return {z for z in range(g.n)
            if not any(du[y] < du[z] and dv[y] < dv[z] for y in g.adj[z])}


def M_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    return {z for z in J_set(g, d, u, v) if d(u, z) == d(v, z)}


def Jcirc_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    return {z for z in J_set(g, d, u, v) if d(u, z) != d(v, z)}


def S_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """Vertices z whose triplet (z,u,v) admits a strongly equilateral quasi-median."""
    if g.has_edge(u, v):
        raise ValueError("S_set requires nonadjacent u, v")
    out = set()
    for z in range(g.n):
        for t in enumerate_quasi_medians(g, d, z, u, v):
            if t.size is not None and is_strongly_equilateral(g, d, t):
                out.add(z)
                break
    return out


def geodesic_vertices_via_dag(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """Vertices on (u,v)-geodesics found by walking the BFS geodesic DAG.

    Cross-check for `interval`; independent traversal rather than the
    distance-sum definition.
    """
    duv = d(u, v)
    seen = {v}
    stack = [v]
    while stack:
        w = stack.pop()
        for x in g.adj[w]:
            if x not in seen and d(u, x) + 1 == d(u, w) and d(u, x) + d(x, v) == duv:
                seen.add(x)
                stack.append(x)
    return seen
