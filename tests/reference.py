"""Reference implementations that the tests compare `medgraph` against.

Each one decides the same thing as a `medgraph` function by a different,
slower route: F_pi summed in `Fraction`s at each vertex instead of the
integer table den*F_pi, all pairs instead of the local band, a walk of the
geodesic DAG instead of distance sums, subgraph matching instead of the
interval condition, the simplex on every pair instead of the shared pair
verdicts, the phase-1 tableau with its artificial columns stored instead of
implied, the product y^T M over every row instead of the rows a
certificate names, a search over every pair of a set instead of a walk along the
distance rows, the bipartite absolute retracts on interval bitsets instead
of one distance row, modularity and convex balls by a scan of every triple
and of every ball on interval bitsets instead of the conditions that
characterise them, the alpha/beta finders on the distance table and J°(u,v)
instead of adjacency sets, and maximum-cardinality search by a scan of
every vertex instead of heaps.

It also holds each graph corpus and helper that more than one test module
uses, so that no test module imports another.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from operator import add, mul
from pathlib import Path

import networkx as nx
import numpy as np

from medgraph.benzenoid import BenzenoidSpec, benzenoid
from medgraph.errors import BudgetExceeded
from medgraph.families import (alpha_configuration, beta_configuration,
                               bn_graph, cartesian_product,
                               complete_bipartite, cycle_graph, halved_cube,
                               hypercube, johnson, path_graph,
                               projective_incidence_graph)
from medgraph.graph import DistMatrix, Graph, all_pairs_distances, build_graph
import medgraph.lp as lp
from medgraph import symmetry
from medgraph.lp import (FeasibilityResult, RationalMatrix, build_Duv,
                         lp_feasible_strict)
from medgraph.medians import (Profile, VertexFunction, _pairs_in_distance_band,
                              check_WP)
from medgraph.metric import J_set, Jcirc_set, members
from medgraph.recognizers import (ClassVerdict, is_bipartite, is_modular,
                                  personal_neighbor)


def is_p_weakly_peakless_full(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """All-pairs variant (every pair with d >= p+1) of the local
    `medians.is_p_weakly_peakless`."""
    return all(check_WP(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(d, p + 1, d.diameter))


def _median_fractions(g: Graph, d: DistMatrix, pi: Profile) -> list[Fraction]:
    """F_pi(x) = sum_s pi(s) d(s,x) in `Fraction`s, one vertex at a time."""
    return [sum((w * d(s, x) for s, w in pi.weights.items()), Fraction(0))
            for x in range(g.n)]


def median_set_plain(g: Graph, d: DistMatrix, pi: Profile) -> set[int]:
    """`medians.median_set` from the `Fraction` values of F_pi."""
    f = _median_fractions(g, d, pi)
    best = min(f)
    return {x for x in range(g.n) if f[x] == best}


def local_median_set_plain(g: Graph, d: DistMatrix, pi: Profile, p: int) -> set[int]:
    """`medians.local_median_set_p` from the `Fraction` values of F_pi,
    every y with 1 <= d(x,y) <= p tested by a `d(x, y)` call."""
    f = _median_fractions(g, d, pi)
    return {x for x in range(g.n)
            if all(f[x] <= f[y] for y in range(g.n) if 1 <= d(x, y) <= p)}


def is_p_connected_pairwise(g: Graph, d: DistMatrix, s: set[int], p: int) -> bool:
    """`medians.is_p_connected` by a search that tests every pair of s
    with a `d(x, y)` call."""
    if not s:
        return True
    verts = sorted(s)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        x = stack.pop()
        for y in verts:
            if y not in seen and d(x, y) <= p:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def solve_pair(g: Graph, d: DistMatrix, u: int, v: int) -> FeasibilityResult:
    """Decide D^uv pi < 0, pi >= 0 with the simplex alone; feasible iff some
    profile violates WC at (u,v).  The plain route of `lp._pair_verdicts`."""
    return lp_feasible_strict(build_Duv(g, d, u, v))


def balanced_pair_plain(d: DistMatrix, mat: RationalMatrix):
    """`lp._balanced` on the full matrix: the rows i <= j of the first of
    at most `lp._BALANCED_TRIES` balanced pairs whose rows sum to at least
    0 in every column, every pair of rows ranked, each row with itself when
    2 d(u,w_i) = d(u,v) too (d(w_i,w_j) = d(u,v) first, then least
    r(w_i) + r(w_j), then row order), else None."""
    u, v = mat.u, mat.v
    k = d(u, v)
    r = [sum(row) for row in d.d]
    tries = sorted((d(a, b) != k, r[a] + r[b], i, j)
                   for (i, a), (j, b) in itertools.combinations_with_replacement(
                       enumerate(mat.rows), 2)
                   if d(u, a) + d(u, b) == k)
    for *_, i, j in tries[:lp._BALANCED_TRIES]:
        if min(map(add, mat.entries[i], mat.entries[j])) >= 0:
            return i, j
    return None


def presolve_plain(d: DistMatrix, mat: RationalMatrix):
    """The answer that the per-pair head gives the pair of mat before any
    solve, found on the full matrix: (kind, status, certificate, witness)
    for a balanced pair, else the first nonnegative row, else the first
    all-negative column; None when no test holds.  A certificate is 1 on
    each row vertex it names."""
    pair = balanced_pair_plain(d, mat)
    if pair is not None:
        return "balanced", "infeasible", {mat.rows[i]: 1 for i in pair}, None
    for w, row in zip(mat.rows, mat.entries):
        if min(row) >= 0:
            return "row", "infeasible", {w: 1}, None
    for x, col in zip(mat.cols, zip(*mat.entries)):
        if max(col) < 0:
            return "column", "feasible", None, {x: Fraction(1)}
    return None


def orbits_off(monkeypatch) -> None:
    """Turn the orbit search of `lp._pair_verdicts` off: it finds no
    automorphism, and a scan reads every row.  The plain scan that the
    orbit scan is checked against."""
    monkeypatch.setattr(symmetry, "automorphisms", lambda g, d, r: ([], list(range(g.n))))


def _assert_agrees_with_per_pair(g: Graph, per_pair, scanned) -> None:
    """A scan against the per-pair scan of the same band, each given as its
    list of (u, v, verdict) and its own set: the same pairs in the same
    order, every verdict `repr`-equal, and the same own solves."""
    (want, own_want), (got, own) = per_pair, scanned
    assert [t[:2] for t in got] == [t[:2] for t in want]
    for (u, v, a), (_, _, b) in zip(want, got):
        assert repr(b) == repr(a), (g.name, u, v)
    assert own == own_want, g.name


def phase1_explicit(tableau, n_free):
    """`lp._phase1` on the full tableau [A | I | rhs], n_free columns in A
    and one stored artificial column per row after them, the artificials
    the starting basis.  Returns (tableau, D, basis, reentries), reentries
    being the number of pivots that brought an artificial back."""
    m = len(tableau)
    n_cols = n_free + m
    obj = [-sum(col) for col in zip(*tableau)] or [0] * (n_cols + 1)
    obj[n_free:n_cols] = [0] * m
    tableau.append(obj)
    basis = list(range(n_free, n_cols))
    D = 1
    reentries = 0
    while True:
        obj = tableau[-1]
        entering = next((j for j in range(n_cols) if obj[j] < 0), -1)
        if entering < 0:
            return tableau, D, basis, reentries
        reentries += entering >= n_free
        leaving = -1
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = tableau[i][-1] * tableau[leaving][entering]
                rhs = tableau[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise AssertionError("phase-1 objective unbounded")
        prow = tableau[leaving]
        piv = prow[entering]
        for i in range(m + 1):
            if i != leaving:
                c = tableau[i][entering]
                tableau[i] = [(piv * a - c * b) // D for a, b in zip(tableau[i], prow)]
        basis[leaving] = entering
        D = piv


def lp_feasible_strict_explicit(mat: RationalMatrix):
    """`lp.lp_feasible_strict` on the tableau [-M | -I | I | 1] with the
    artificial columns stored; the certificate holds the nonzero entries of
    D*y, keyed by row vertex, y_i being 1 minus the reduced cost of
    artificial i.  Returns the answer, unchecked, and the output of
    `phase1_explicit`."""
    m, n = len(mat.entries), len(mat.cols)
    rows = [[-x for x in mat.entries[i]]
            + [-1 if k == i else 0 for k in range(m)]
            + [1 if k == i else 0 for k in range(m)] + [1]
            for i in range(m)]
    phase = phase1_explicit(rows, n + m)
    tableau, D, basis, _ = phase
    obj = tableau[-1]
    if obj[-1] == 0:
        pi = {mat.cols[b]: Fraction(tableau[i][-1], D)
              for i, b in enumerate(basis) if b < n and tableau[i][-1] != 0}
        return FeasibilityResult("feasible", witness=pi), phase
    y = [D - obj[n + m + i] for i in range(m)]
    return FeasibilityResult("infeasible", certificate={
        w: yw for w, yw in zip(mat.rows, y) if yw}), phase


def certificate_holds_dense(mat: RationalMatrix, certificate) -> bool:
    """`lp._check_result` on a certificate {row vertex: y_w}, with y^T M
    summed over every row of every column: every key a row of mat and every
    y_w > 0, at least one of them, and y^T M >= 0 for y expanded to one
    entry per row of mat, 0 on the rows the certificate does not name."""
    if not certificate or any(w not in mat.rows or yw <= 0 for w, yw in certificate.items()):
        return False
    y = [Fraction(certificate.get(w, 0)) for w in mat.rows]
    return all(sum(map(mul, y, col)) >= 0 for col in zip(*mat.entries))


def geodesic_vertices_via_dag(g: Graph, d: DistMatrix, u: int, v: int) -> set[int]:
    """Vertices on (u,v)-geodesics found by walking the BFS geodesic DAG.

    Cross-check for `metric.interval`; independent traversal rather than
    the distance-sum definition.
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


def interval_masks(g: Graph, d: DistMatrix, u: int) -> list[int]:
    """I(u,v) as a bitset for every v, built down u's BFS DAG: I(u,u) = {u},
    and I(u,v) is v plus the I(u,y) of each neighbour y of v one step closer
    to u, since a (u,v)-geodesic ends in such a y.  The vertices are taken
    in order of their distance from u, so each I(u,y) is built first."""
    row = d[u]
    masks = [1 << v for v in range(g.n)]
    for v in sorted(range(g.n), key=row.__getitem__):
        for y in g.adj[v]:
            if row[y] < row[v]:
                masks[v] |= masks[y]
    return masks


def modular_by_triple_scan(g: Graph, d: DistMatrix) -> ClassVerdict:
    """`recognizers.is_modular` by its definition: every triple u < v < w
    has a vertex in all three pairwise intervals.  A false verdict names
    the first triple in scan order that has none."""
    n = g.n
    intervals = [interval_masks(g, d, u) for u in range(n)]
    for u in range(n):
        Iu = intervals[u]
        for v in range(u + 1, n):
            Iuv, Iv = Iu[v], intervals[v]
            for w in range(v + 1, n):
                if not Iuv & Iv[w] & Iu[w]:
                    return ClassVerdict("modular", False, (u, v, w))
    return ClassVerdict("modular", True)


def convex_balls_by_ball_scan(g: Graph, d: DistMatrix) -> ClassVerdict:
    """`recognizers.has_convex_balls` by its definition: every ball is
    convex.  A false verdict is the first (v, r, x, y, z) in scan order:
    x < y lie in the ball of radius r around v and z is the smallest vertex
    of I(x,y) outside it.  The ball of radius ecc(v) is all of V, so r
    stops below."""
    intervals = [interval_masks(g, d, x) for x in range(g.n)]
    for v in range(g.n):
        row = d[v]
        for r in range(1, max(row)):
            ball = sum(1 << x for x, k in enumerate(row) if k <= r)
            for x, y in itertools.combinations(members(ball), 2):
                outside = intervals[x][y] & ~ball
                if outside:
                    z = (outside & -outside).bit_length() - 1
                    return ClassVerdict("convex_balls", False, (v, r, x, y, z))
    return ClassVerdict("convex_balls", True)


def bipartite_absolute_retract_by_masks(g: Graph, d: DistMatrix) -> ClassVerdict:
    """`recognizers.is_bipartite_absolute_retract` on interval bitsets: for
    d(u,v) >= 3, some x != v of I(u,v) is adjacent to every neighbour of v
    in I(u,v)."""
    if not is_bipartite(g):
        return ClassVerdict("bipartite_absolute_retract", False, ("not_bipartite",))
    nbr = [sum(1 << x for x in a) for a in g.adj]     # N(u) as a bitset
    for u in range(g.n):
        row, intervals = d[u], interval_masks(g, d, u)
        for v in range(g.n):
            if row[v] < 3:
                continue
            iv = intervals[v]
            near = nbr[v] & iv
            if not any(nbr[x] & near == near for x in members(iv & ~(1 << v))):
                return ClassVerdict("bipartite_absolute_retract", False, (u, v))
    return ClassVerdict("bipartite_absolute_retract", True)


def _bn_extends(g: Graph, a_side, b_side) -> bool:
    doms_b = [x for x in range(g.n)
              if x not in a_side | b_side and b_side <= g.adj_sets[x]]
    doms_a = [y for y in range(g.n)
              if y not in a_side | b_side and a_side <= g.adj_sets[y]]
    return any(y in g.adj_sets[x] for x in doms_b for y in doms_a)


# ------------------------------------- alpha/beta and MCS on the table

def _small_clique_interiors_by_table(g: Graph, d: DistMatrix):
    """`recognizers._small_clique_interiors` on the band scan of the table."""
    for u, v in _pairs_in_distance_band(d, 2, 2):
        inner = sorted(g.adj_sets[u] & g.adj_sets[v])
        if 2 <= len(inner) <= 3 and all(
                b in g.adj_sets[a] for a, b in itertools.combinations(inner, 2)):
            yield u, v, inner


def detect_beta_configuration_by_table(g: Graph, d: DistMatrix):
    """`recognizers.detect_beta_configuration` on J°(u,v) from the table."""
    for u, v, inner in _small_clique_interiors_by_table(g, d):
        if len(inner) != 3:
            continue
        owners = {}
        for x in sorted(Jcirc_set(g, d, u, v)):
            pn = personal_neighbor(g, inner, x)
            if pn is not None and pn not in owners:
                owners[pn] = x
        if len(owners) == 3:
            return (u, v, tuple(inner), tuple(owners[s] for s in inner))
    return None


def detect_alpha_configuration_by_table(g: Graph, d: DistMatrix):
    """`recognizers.detect_alpha_configuration` with every distance read
    from the table."""
    adj = g.adj_sets
    for u, v, inner in _small_clique_interiors_by_table(g, d):
        du, dv = d[u], d[v]
        around = [a for a in range(g.n) if du[a] == dv[a] == 2]
        apex = {t: next((a for a in around if d(a, t) == 3 and all(
            d(a, s) == 2 for s in inner if s != t)), None) for t in inner}
        tails = [b for b in sorted(adj[u] | adj[v]) if b not in inner]

        def tail(far):
            return next((b for b in tails
                         if {s for s in inner if s in adj[b]} == far), None)

        for t in inner:
            if apex[t] is not None and (b := tail({t})) is not None:
                return (1, (u, v, tuple(inner), t, apex[t], b))
        if len(inner) == 3:
            for s, t, w in itertools.permutations(inner):
                if None not in (apex[t], apex[w]) and \
                        (b := tail({t, w})) is not None:
                    return (2, (u, v, (s, t, w), apex[t], apex[w], b))
            if None not in apex.values():
                s, t, w = inner
                return (3, (u, v, (s, t, w), apex[t], apex[w], apex[s]))
    return None


def mcs_order_by_scan(g: Graph) -> list[int]:
    """`recognizers._mcs_order` by a scan of every unvisited vertex per
    step, in O(n^2)."""
    order, weight, used = [], [0] * g.n, [False] * g.n
    for _ in range(g.n):
        v = max((x for x in range(g.n) if not used[x]),
                key=lambda x: (weight[x], -x))
        used[v] = True
        order.append(v)
        for y in g.adj[v]:
            if not used[y]:
                weight[y] += 1
    return order


# ------------------------------------------------- oracle by a plain scan

def _ref_oracle(g, d, p, max_weight, budget):
    """The reference for the vectorised oracle: profiles from
    itertools.product, a per-vertex local-minimum loop and a depth-first
    G^p-connectivity check.  Both must report the same first (pair,
    profile)."""
    n = g.n
    dist = d.array(np.int64)
    near = dist <= p
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if p + 1 <= d(u, v) <= 2 * p]
    supports = [sorted(J_set(g, d, u, v)) for u, v in pairs]
    if sum((max_weight + 1) ** len(s) - 1 for s in supports) > budget:
        raise BudgetExceeded("over budget")
    for pair, support in zip(pairs, supports):
        profiles = np.array(list(itertools.product(range(max_weight + 1),
                                                   repeat=len(support)))[1:])
        f = profiles @ dist[support]
        med = f == f.min(axis=1, keepdims=True)
        local = np.ones_like(med)
        for x in range(n):
            others = [y for y in range(n) if y != x and near[x][y]]
            if others:
                local[:, x] = f[:, x] <= f[:, others].min(axis=1)
        for weights, m, loc in zip(profiles, med, local):
            if (loc & ~m).any() or not is_p_connected_pairwise(
                    g, d, {int(x) for x in np.flatnonzero(m)}, p):
                return pair, Profile({s: int(w)
                                      for s, w in zip(support, weights) if w})
    return None


# ------------------------------------------------ graphs the tests share

def _gd(g):
    return g, all_pairs_distances(g)


def _from_nx(h):
    nodes = sorted(h.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return build_graph(len(nodes), [(idx[a], idx[b]) for a, b in h.edges()])


def _connected_atlas_graphs(max_n=7):
    from networkx.generators.atlas import graph_atlas_g
    for h in graph_atlas_g():
        if 2 <= h.number_of_nodes() <= max_n and nx.is_connected(h):
            yield _from_nx(h)


def _pool_graphs():
    """The 240 graphs of the benchmark's random pool."""
    path = Path(__file__).parents[1] / "bench" / "reference" / "random_pool.json"
    for entry in json.loads(path.read_text())["graphs"]:
        yield build_graph(entry["n"], map(tuple, entry["edges"]))


def _corpus():
    coronene = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    yield cycle_graph(7)
    yield cycle_graph(21)
    yield projective_incidence_graph(2)
    yield projective_incidence_graph(3)
    yield cartesian_product(path_graph(5), cycle_graph(5))
    yield halved_cube(6)[0]
    yield johnson(7, 3)[0]
    yield benzenoid(BenzenoidSpec(frozenset(coronene))).graph


def _random_connected_graphs(count, seed=9):
    rng = random.Random(seed)
    while count:
        n = rng.randint(6, 14)
        h = nx.gnp_random_graph(n, rng.uniform(0.15, 0.4), seed=rng.randrange(2**31))
        if nx.is_connected(h):
            count -= 1
            yield build_graph(n, list(h.edges()))


def _random_connected_graph(rng, n):
    while True:
        p = rng.uniform(0.25, 0.7)
        h = nx.gnp_random_graph(n, p, seed=rng.randrange(10**9))
        if nx.is_connected(h):
            return build_graph(n, list(h.edges()))


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _swapped(g, a, b):
    """g with the labels a and b exchanged."""
    swap = {a: b, b: a}
    return build_graph(g.n, [(swap.get(x, x), swap.get(y, y)) for x, y in g.edges()])


def _long_tables():
    """(label, graph) for three tables on both sides of the byte lanes:
    P_300 relabelled, whose 2 ecc(0) >= 256 puts it past the lanes;
    P_200 x K_2 with vertex 0 mid-ladder, a lane table of diameter 200; and
    K_{2,3} with a 130-vertex path hung on vertex 0, relabelled so that
    vertex 0 sits mid-path (n = 135, 2 ecc(0) = 136, diameter 132), a lane
    table of odd width whose 2 diam passes a byte."""
    tail = [(0, 5)] + [(x, x + 1) for x in range(5, 134)]
    k23_tail = build_graph(135, complete_bipartite(2, 3).edges() + tail)
    yield "P_300/relabelled", _relabelled(path_graph(300), 300)
    yield "P_200xK_2/mid", _swapped(cartesian_product(path_graph(200), path_graph(2)), 0, 200)
    yield "K_2,3+P_130/mid", _swapped(k23_tail, 0, 70)


def _recognizer_corpus():
    """Seeded random connected graphs, half of them made bipartite, plus
    class members of the kind the classify benchmark runs, two relabelled
    graphs on more than 32 vertices, and the alpha and beta configurations."""
    rng = random.Random(97)
    graphs = []
    for i in range(60):
        g = _random_connected_graph(rng, rng.randint(4, 12))
        if i % 2:
            level = nx.single_source_shortest_path_length(_to_nx(g), 0)
            g = build_graph(g.n, [(a, b) for a, b in g.edges()
                                  if (level[a] - level[b]) % 2])
        graphs.append(g)
    graphs += [hypercube(4)[0], halved_cube(5)[0], johnson(6, 3)[0],
               cartesian_product(path_graph(4), path_graph(4)),
               beta_configuration(), *map(alpha_configuration, (1, 2, 3))]
    for big in (johnson(7, 3)[0],
                cartesian_product(cycle_graph(5), path_graph(7))):
        perm = list(range(big.n))
        rng.shuffle(perm)
        graphs.append(build_graph(big.n, [(perm[a], perm[b])
                                          for a, b in big.edges()]))
    return graphs
