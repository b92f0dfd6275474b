"""Reference implementations that the tests compare `medgraph` against.

Each one decides the same thing as a `medgraph` function by a different,
slower route: all pairs instead of the local band, a walk of the geodesic
DAG instead of distance levels, subgraph matching instead of the interval
condition, the simplex on every pair instead of the shared pair verdicts.
"""
from __future__ import annotations

import networkx as nx

from medgraph.families import bn_graph
from medgraph.graph import DistMatrix, Graph
from medgraph.lp import FeasibilityResult, build_Duv, lp_feasible_strict
from medgraph.medians import VertexFunction, _pairs_in_distance_band, check_WP
from medgraph.recognizers import ClassVerdict, is_modular


def is_p_weakly_peakless_full(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """All-pairs variant (every pair with d >= p+1) of the local
    `medians.is_p_weakly_peakless`."""
    return all(check_WP(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(g, d, p + 1, d.diameter))


def solve_pair(g: Graph, d: DistMatrix, u: int, v: int) -> FeasibilityResult:
    """Decide D^uv pi < 0, pi >= 0 with the simplex alone; feasible iff some
    profile violates WC at (u,v).  The plain route of `lp._pair_verdicts`."""
    return lp_feasible_strict(build_Duv(g, d, u, v))


def geodesic_vertices_via_dag(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """Vertices on (u,v)-geodesics found by walking the BFS geodesic DAG.

    Cross-check for `metric.interval`; independent traversal rather than
    the distance-level definition.
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


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def absolute_retract_by_extension(g: Graph, d: DistMatrix,
                                  max_n: int = 5) -> ClassVerdict:
    """Modularity plus: every induced copy of K_{n,n} minus a perfect
    matching (4 <= n <= max_n) extends by two adjacent vertices, one
    dominating each side."""
    mod = is_modular(g, d)
    if not mod:
        return ClassVerdict("absolute_retract_extension", False, mod.witness)
    gn = _to_nx(g)
    for n in range(4, max_n + 1):
        if 2 * n > g.n:
            break
        pattern = _to_nx(bn_graph(n))
        matcher = nx.algorithms.isomorphism.GraphMatcher(gn, pattern)
        seen = set()
        for mapping in matcher.subgraph_isomorphisms_iter():
            inv = {pat: host for host, pat in mapping.items()}
            a_side = frozenset(inv[i] for i in range(n))
            b_side = frozenset(inv[n + i] for i in range(n))
            key = frozenset((a_side, b_side))
            if key in seen:
                continue
            seen.add(key)
            if not _bn_extends(g, a_side, b_side):
                return ClassVerdict("absolute_retract_extension", False,
                                    tuple(sorted(a_side | b_side)))
    return ClassVerdict("absolute_retract_extension", True)


def _bn_extends(g: Graph, a_side, b_side) -> bool:
    doms_b = [x for x in range(g.n)
              if x not in a_side | b_side and b_side <= g.adj_sets[x]]
    doms_a = [y for y in range(g.n)
              if y not in a_side | b_side and a_side <= g.adj_sets[y]]
    return any(y in g.adj_sets[x] for x in doms_b for y in doms_a)
