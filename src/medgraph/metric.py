"""Intervals, gated sets, and the J(u,v) / M(u,v) vertex sets of a pair."""

from __future__ import annotations

from .graph import DistMatrix, Graph


def members(mask: int) -> list[int]:
    """The vertices of a bitset in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def interval(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """I(u,v) = vertices on at least one (u,v)-geodesic: the w with
    d(u,w) + d(w,v) = d(u,v), read off the distance rows of u and v."""
    k = d(u, v)
    return {w for w, a, b in zip(range(g.n), d[u], d[v]) if a + b == k}


def interior_interval(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """I°(u,v), I(u,v) minus the endpoints: the rows of `lp.build_Duv`."""
    return interval(g, d, u, v) - {u, v}


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


def J_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """J(u,v): vertices z with I(z,u) & I(z,v) = {z}.

    Equivalently, no neighbour y of z is closer than z to both u and v.
    Such a y lies in I(z,u) & I(z,v).  Conversely, if w != z lies in both
    intervals, the first step y of a (z,w)-geodesic has
    d(y,u) <= d(z,w) - 1 + d(w,u) = d(z,u) - 1, and likewise for v.

    So z is outside J(u,v) iff some neighbour y of z has d(u,y) =
    d(u,z) - 1 and d(v,y) = d(v,z) - 1, which reads the adjacency lists and
    the two distance rows of u and v; u and v have no such y, so they are
    always in J.
    """
    if u == v:
        raise ValueError("J_set requires u != v")
    du, dv = d[u], d[v]
    out = set()
    for z, (adj, a, b) in enumerate(zip(g.adj, du, dv)):
        for y in adj:
            if du[y] < a and dv[y] < b:
                break
        else:
            out.add(z)
    return out


def M_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    return {z for z in J_set(g, d, u, v) if d(u, z) == d(v, z)}


def Jcirc_set(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    return {z for z in J_set(g, d, u, v) if d(u, z) != d(v, z)}
