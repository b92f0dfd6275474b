"""Membership tests for the graph classes and structural conditions.

Every recognizer returns a ClassVerdict; a false verdict carries a witness
tuple that the corresponding predicate can re-check.  The witness is the
first violation in the recognizer's plain scan order, the nested loops of
its definition.  A fast path may decide from bitsets in another order, but
it may re-scan only to rebuild that first violation, so the witness never
depends on which path found it.  A class decided as a conjunction of other
recognizers checks them in a fixed order and reports from the first that
fails: that recognizer's witness (weakly bridged, bridged, convex balls
when TPC fails), or a violation of the class's own definition built from
it (modular, and convex balls when INC fails).

Meshedness, the triangle condition (TC) and the quadrangle condition (QC)
are checked one vertex u at a time, on bitsets over a list of pairs, the
edges for TC and the distance-2 pairs for QC and meshedness
(`_pair_levels`).  Per u, three lists indexed by the distance k from u
hold the pairs whose first end, whose second end and some of whose common
neighbours lie at distance k, and each condition is one or two ANDs per
level.  Memory is O(n) masks of len(pairs) bits.  The witnesses are those
of the plain scans:
TC's is the least failing u, then its first edge; QC's is the
`_quadrangle_witness` of the least failing u, reported only once no u
fails TC; meshedness's is the first failing pair, then the least u that
fails it.

INC, the QC witness and the bipartite absolute retracts read adjacency
lists and distance rows alone.  No recognizer builds interval bitsets:
modularity and convex balls are decided from the conditions that
characterise them (bipartite and weakly modular; INC and TPC).

Chordality, thickness, IC3/IC4 and the alpha and beta configurations are
local, and read no distance table, only the adjacency lists and sets.
`_distance_two_pairs` lists the distance-2 pairs with their common
neighbours, each u by the cheaper of walking its paths u-x-v and
intersecting N(u) with N(v) for each later v.  Every other distance these
conditions read is at most 3 and lies next to such a pair: an alpha apex a
is at distance 2 from u and v, so for an interior vertex t, a neighbour of
u, d(a,t) is 1 if a and t are adjacent, 2 if they have a common
neighbour, else 3; a vertex that can own a beta personal neighbour is a
neighbour of the interior, so it is at distance at most 2 from u and from
v, and its distances are read off N[u] and N[v].  On a 65536-vertex path
the six take 52 MB and 2-3 s in all.  `check` builds the table only
for the other classes.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import EmbeddingUnverified, LabelArity, ParseError
from .graph import DistMatrix, Graph, _data_lines, packed_row
from .medians import _pairs_in_distance_band
from .metric import members


@dataclass(frozen=True)
class ClassVerdict:
    name: str
    verdict: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class LabeledEmbedding:
    labels: dict[int, frozenset[int]]
    target: str                 # "hypercube" | "halved_cube" | "johnson"
    k: int | None = None        # Johnson label size


def read_labels(text: str, target: str, k: int | None = None) -> LabeledEmbedding:
    """Parse lines `vertex: i1,i2,...`, one per vertex, into a LabeledEmbedding."""
    labels: dict[int, frozenset[int]] = {}
    for ln in _data_lines(text):
        if ":" not in ln:
            raise ParseError(f"bad labels line {ln!r}")
        head, tail = ln.split(":", 1)
        try:
            v = int(head)
            items = frozenset(int(t) for t in tail.replace(",", " ").split())
        except ValueError as exc:
            raise ParseError(f"bad labels line {ln!r}") from exc
        if v in labels:
            raise ParseError(f"vertex {v} has two label lines")
        labels[v] = items
    return LabeledEmbedding(labels, target, k=k)


def write_labels(e: LabeledEmbedding) -> str:
    lines = [f"{v}: {','.join(str(i) for i in sorted(e.labels[v]))}"
             for v in sorted(e.labels)]
    return "\n".join(lines) + "\n"


def _distance_two_pairs(g: Graph):
    """(u, v, common) for each pair u < v at distance 2, u ascending, then
    v, the order of `_pairs_in_distance_band(d, 2, 2)`; common is the
    ascending list of common neighbours, which is I°(u,v).

    For each u, the cheaper of two scans, counted off the degrees: walking
    the paths u-x-v takes the sum of deg(x) over N(u) steps, and since
    N(u) is walked in ascending order each common list comes out sorted;
    intersecting N(u) with the neighbourhood of every later non-neighbour v
    takes n - u set tests.  A path takes the walk at every u but the last
    few, and K_n the tests, all of them on neighbours of u."""
    n, adj, sets = g.n, g.adj, g.adj_sets
    deg = list(map(len, adj))
    for u in range(n):
        near = sets[u]
        # the walk's steps, the sum of deg(x) over N(u), against n - u
        # tests; the sum is at least deg(u), which settles a dense u unsummed
        if deg[u] < n - u and sum(map(deg.__getitem__, adj[u])) < n - u:
            common: dict[int, list[int]] = {}
            for x in adj[u]:
                for v in adj[x]:
                    if v > u and v not in near:
                        common.setdefault(v, []).append(x)
            for v in sorted(common):
                yield u, v, common[v]
        else:
            for v in itertools.filterfalse(near.__contains__, range(u + 1, n)):
                if both := near & sets[v]:
                    yield u, v, sorted(both)


def _pair_levels(g: Graph, d: DistMatrix, pairs: list[tuple[int, int]]):
    """Yield F, S, C for each vertex u in turn, lists indexed by the
    distance k from u, one bit per pair: bit i of F[k] (of S[k]) is set
    when the first (second) end of pairs[i] is at distance k, and bit i of
    C[k] when a common neighbour of that pair is.  Each list has two
    trailing zero levels past ecc(u), so k + 1 and k - 1 = -1 read 0.

    A vertex x has three masks: first[x], second[x], and common[x], the OR
    of its neighbours' first masks ANDed with the OR of their second
    masks.  The lists are one pass over u's distance row, so memory is
    O(n) masks of len(pairs) bits."""
    n = g.n
    first, second = [0] * n, [0] * n
    for i, (a, b) in enumerate(pairs):
        first[a] |= 1 << i
        second[b] |= 1 << i
    common = []
    for adj in g.adj:
        f = s = 0
        for y in adj:
            f |= first[y]
            s |= second[y]
        common.append(f & s)
    for row in d.d:
        top = max(row) + 2
        F, S, C = [0] * top, [0] * top, [0] * top
        for k, f, s, c in zip(row, first, second, common):
            F[k] |= f
            S[k] |= s
            C[k] |= c
        yield F, S, C


# ---------------------------------------------------------------- meshedness

def is_meshed(g: Graph, d: DistMatrix) -> ClassVerdict:
    """For d(v,w)=2, some common neighbor x of v,w has 2d(u,x) <= d(u,v)+d(u,w).

    With a = d(u,v) and b = d(u,w), |a-b| <= 2 and every common neighbour
    x has max(a,b)-1 <= d(u,x) <= min(a,b)+1, so a u with |a-b| = 2 always
    passes.  Any other u fails iff no common neighbour lies in the ball of
    radius t = (a+b)//2 around u, that is at distance t-1 or t.  So on the
    `_pair_levels` of the distance-2 pairs, u fails the pairs of
    (F[t] & (S[t] | S[t+1]) | F[t+1] & S[t]) & ~(C[t-1] | C[t]).  The
    witness is the first failing pair, the lowest bit over all u, then the
    least u that fails it.
    """
    pairs = list(_pairs_in_distance_band(d, 2, 2))
    best = u_best = None
    for u, (F, S, C) in enumerate(_pair_levels(g, d, pairs)):
        bad = 0
        for t in range(len(F) - 1):
            fs = F[t] & (S[t] | S[t + 1]) | F[t + 1] & S[t]
            if fs:
                bad |= fs & ~(C[t - 1] | C[t])
        if bad:
            low = (bad & -bad).bit_length() - 1
            if best is None or low < best:
                best, u_best = low, u
    if best is None:
        return ClassVerdict("meshed", True)
    return ClassVerdict("meshed", False, (u_best,) + pairs[best])


# ------------------------------------------------------------ weak modularity

def _triangle_violations(g: Graph, d: DistMatrix):
    """(u, v, w) for each edge vw with d(u,v) = d(u,w) = k >= 2 and no
    common neighbour of v and w at distance k-1 from u; u-major, then in
    edge order.  On the edges' `_pair_levels`, u fails the edges of
    F[k] & S[k] & ~C[k-1]."""
    edges = g.edges()
    for u, (F, S, C) in enumerate(_pair_levels(g, d, edges)):
        bad = 0
        for k in range(2, len(F) - 1):
            fs = F[k] & S[k]
            if fs:
                bad |= fs & ~C[k - 1]
        for i in members(bad):
            yield (u,) + edges[i]


def _quadrangle_witness(g: Graph, d: DistMatrix, u: int):
    """The first ("QC", u, v, w, z) in the scan over z, then over the pairs
    v, w of neighbours of z one step closer to u, v and w nonadjacent with
    no common neighbour one step closer still."""
    adj, row = g.adj_sets, d[u]
    for z in range(g.n):
        k = row[z] - 1
        if k < 2:
            continue
        below = [x for x in g.adj[z] if row[x] == k]
        for v, w in itertools.combinations(below, 2):
            if w not in adj[v] and not any(
                    row[x] == k - 1 and x in adj[w] for x in g.adj[v]):
                return ("QC", u, v, w, z)
    return None


def is_weakly_modular(g: Graph, d: DistMatrix) -> ClassVerdict:
    """The triangle condition (TC) and the quadrangle condition (QC) on the
    `_pair_levels` of the edges followed by the distance-2 pairs.  An edge
    whose ends are both at distance k from u fails TC at u when it is in
    F[k] & S[k] & ~C[k-1], and a distance-2 pair fails QC when it is in
    that mask and in C[k+1].  TC is checked at every u before QC is
    reported: the witness is the first TC violation of
    `_triangle_violations`, else the `_quadrangle_witness` of the least u
    that fails QC."""
    edges = g.edges()
    on_edges = (1 << len(edges)) - 1
    pairs = edges + list(_pairs_in_distance_band(d, 2, 2))
    qc_u = None
    for u, (F, S, C) in enumerate(_pair_levels(g, d, pairs)):
        tc = qc = 0
        for k in range(2, len(F) - 1):
            fs = F[k] & S[k]
            if fs:
                bad = fs & ~C[k - 1]
                tc |= bad & on_edges
                qc |= bad & C[k + 1]
        if tc:
            i = (tc & -tc).bit_length() - 1
            return ClassVerdict("weakly_modular", False, ("TC", u) + edges[i])
        if qc and qc_u is None:
            qc_u = u
    if qc_u is None:
        return ClassVerdict("weakly_modular", True)
    return ClassVerdict("weakly_modular", False, _quadrangle_witness(g, d, qc_u))


def is_modular(g: Graph, d: DistMatrix) -> ClassVerdict:
    """Every triple (u, v, w) has a median, a vertex in I(u,v) & I(v,w) &
    I(u,w).  A graph is modular iff it is bipartite and weakly modular
    (Bandelt & Chepoi 2008, "Metric graph theory and geometry: a survey",
    Contemp. Math. 453), and a false verdict names a triple with no median:

    - not bipartite: `is_bipartite` names the first edge vw with
      d(u,v) = d(u,w) for u = 0.  A median m of (u, v, w) lies in
      I(v,w) = {v, w}; m = v needs d(u,v) + 1 = d(u,w), and m = w the
      mirror, so the triple has none;
    - bipartite: TC asks about edges vw with d(u,v) = d(u,w), and there
      are none, so weak modularity can fail only at QC, with a witness
      ("QC", u, v, w, z): d(v,w) = 2, d(u,v) = d(u,w) = k, and no common
      neighbour x of v and w has d(u,x) = k - 1.  A median of (u, v, w)
      lies in I(v,w), so it is v, w or such an x.  v needs
      d(u,v) + 2 = d(u,w), w the mirror, and x needs d(u,x) + 1 = k, so
      the triple has none."""
    bip = is_bipartite(g)
    if not bip:
        return ClassVerdict("modular", False, (0,) + bip.witness)
    wm = is_weakly_modular(g, d)
    return ClassVerdict("modular", wm.verdict, wm.witness and wm.witness[1:4])


# ------------------------------------------------------------------ chordality

def _mcs_order(g: Graph) -> list[int]:
    """Maximum-cardinality search: each step takes the unvisited vertex
    with the most visited neighbours, the least such vertex on a tie.

    heaps[w] holds the vertices pushed at weight w, least first, and top
    is at least the largest weight of an unvisited vertex, which has an
    entry in heaps[top].  So an unvisited vertex met in heaps[top] has the
    largest weight, and the entries of visited vertices are dropped as
    they reach the top.  Each vertex is pushed once per weight, so the
    search takes O((n + m) log n)."""
    weight, used = [0] * g.n, [False] * g.n
    heaps, top, order = [list(range(g.n))], 0, []
    for _ in range(g.n):
        while True:
            heap = heaps[top]
            if not heap:
                top -= 1
            elif used[heap[0]]:
                heapq.heappop(heap)
            else:
                break
        v = heapq.heappop(heap)
        used[v] = True
        order.append(v)
        for y in g.adj[v]:
            if not used[y]:
                weight[y] += 1
                if weight[y] == len(heaps):
                    heaps.append([])
                heapq.heappush(heaps[weight[y]], y)
                top = max(top, weight[y])
    return order


def _chordless_cycle(g: Graph) -> tuple | None:
    """An induced cycle of length >= 4, found through a nonadjacent
    neighbor pair of some vertex and a shortest path avoiding that
    vertex's other neighbors."""
    adj = g.adj_sets
    for v in range(g.n):
        for w, x in itertools.combinations(g.adj[v], 2):
            if x in adj[w]:
                continue
            banned = (adj[v] | {v}) - {w, x}
            path = _shortest_path_avoiding(g, w, x, banned)
            if path is not None:
                return tuple([v] + path)
    return None


def _shortest_path_avoiding(g: Graph, s: int, t: int, banned) -> list | None:
    prev = {s: None}
    queue = [s]
    while queue:
        nxt = []
        for a in queue:
            for b in g.adj[a]:
                if b not in prev and b not in banned:
                    prev[b] = a
                    if b == t:
                        path = [t]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(b)
        queue = nxt
    return None


def is_chordal(g: Graph) -> ClassVerdict:
    """Maximum-cardinality search plus elimination-ordering verification."""
    order = _mcs_order(g)
    pos = {v: i for i, v in enumerate(order)}
    adj = g.adj_sets
    ok = True
    for v in order:
        earlier = [x for x in g.adj[v] if pos[x] < pos[v]]
        if len(earlier) > 1:
            last = max(earlier, key=pos.get)
            if any(x != last and x not in adj[last] for x in earlier):
                ok = False
                break
    if ok:
        return ClassVerdict("chordal", True)
    return ClassVerdict("chordal", False, _chordless_cycle(g))


def find_induced_c5(g: Graph) -> tuple | None:
    adj = g.adj_sets
    for a, b in g.edges():
        aa, ab = adj[a], adj[b]
        for c in g.adj[b]:
            if c == a or c in aa:
                continue
            ac = adj[c]
            for e in g.adj[a]:
                if e in (b, c) or e in ab or e in ac:
                    continue
                ae = adj[e]
                for x in g.adj[c]:
                    if x in ae and x not in (a, b) and x not in aa and x not in ab:
                        return (a, b, c, x, e)
    return None


def is_weakly_bridged(g: Graph, d: DistMatrix) -> ClassVerdict:
    wm = is_weakly_modular(g, d)
    if not wm:
        return ClassVerdict("weakly_bridged", False, wm.witness)
    c4 = next(induced_squares(g), None)
    return ClassVerdict("weakly_bridged", c4 is None, c4)


def is_bridged(g: Graph, d: DistMatrix) -> ClassVerdict:
    wb = is_weakly_bridged(g, d)
    if not wb:
        return ClassVerdict("bridged", False, wb.witness)
    c5 = find_induced_c5(g)
    return ClassVerdict("bridged", c5 is None, c5)


# ------------------------------------------------------------- convex balls

def has_convex_balls(g: Graph, d: DistMatrix) -> ClassVerdict:
    """Every ball is convex.  By the theorem of Soltan & Chepoi (1983,
    "Conditions for invariance of set diameters under d-convexification in
    a graph", Cybernetics 19) and Farber & Jamison (1987, "On local
    convexity in graphs", Discrete Math. 66), a graph has convex balls iff
    it satisfies the interval neighbourhood condition (INC: for any two
    vertices u, v, the neighbours of u in I(u,v) are pairwise adjacent) and
    the triangle-pentagon condition (TPC: for any vertices v, x, y with
    d(v,x) = d(v,y) = k and x ~ y, some common neighbour of x and y is at
    distance k - 1 from v, or some vertex z at distance k - 2 from v closes
    a pentagon x w z w' y with w ~ x, w' ~ y).  Under INC a pentagon with
    a chord gives the first alternative: a chord xw' or wy is a common
    neighbour at distance k - 1, and a chord ww' alone would leave w and y,
    nonadjacent neighbours of x, in I(x,w').  So `satisfies_TPC`, which
    asks for an induced pentagon, decides TPC here.

    INC is checked first.  When it fails at (u, v, a, b), with k = d(u,v),
    a and b lie in the ball of radius k - 1 around v and u lies in
    I(a,b) = {a, b} plus their common neighbours, outside that ball.  The
    witness is (v, k - 1, a, b, u), and u is the smallest vertex of I(a,b)
    outside the ball: any other is a common neighbour x of a and b at
    distance k from v, so INC fails at (x, v, a, b) too, and the scan of
    `satisfies_INC` meets the least failing vertex first.  When only TPC
    fails, its witness ("TPC", v, x, y) is reported."""
    inc = satisfies_INC(g, d)
    if not inc:
        u, v, a, b = inc.witness
        return ClassVerdict("convex_balls", False, (v, d(u, v) - 1, a, b, u))
    tpc = satisfies_TPC(g, d)
    return ClassVerdict("convex_balls", tpc.verdict,
                        tpc.witness and ("TPC",) + tpc.witness)


def satisfies_INC(g: Graph, d: DistMatrix) -> ClassVerdict:
    """Neighbors of u inside I(u,v) are pairwise adjacent."""
    adj = g.adj_sets
    for u in range(g.n):
        row = d[u]
        for v, dv in enumerate(d.d):
            k = row[v]
            if k < 2:
                continue
            # N(u) & I(u,v): the neighbours of u one step closer to v
            near = [a for a in g.adj[u] if dv[a] == k - 1]
            for a, b in itertools.combinations(near, 2):
                if b not in adj[a]:
                    return ClassVerdict("INC", False, (u, v, a, b))
    return ClassVerdict("INC", True)


def satisfies_TPC(g: Graph, d: DistMatrix) -> ClassVerdict:
    """Edges equidistant from v close into a triangle one step closer, or
    cap an induced pentagon two steps closer."""
    for v, x, y in _triangle_violations(g, d):
        if not _pentagon_cap(g, d, v, x, y, d(v, x)):
            return ClassVerdict("TPC", False, (v, x, y))
    return ClassVerdict("TPC", True)


def _pentagon_cap(g: Graph, d: DistMatrix, v, x, y, k) -> bool:
    adj, row = g.adj_sets, d[v]
    ax, ay = adj[x], adj[y]
    for w in g.adj[x]:
        if w == y or w in ay:
            continue
        aw = adj[w]
        for z in g.adj[w]:
            if row[z] != k - 2 or z in ax or z in ay:
                continue
            az = adj[z]
            for wp in g.adj[y]:
                if (wp in az and wp != w and wp not in aw
                        and wp not in ax and wp != x and wp != z):
                    return True
    return False


# ------------------------------------------ basis-graph style conditions

def induced_squares(g: Graph):
    """Induced 4-cycles (v1, v2, v3, v4) with v1 < v3 and v2 < v4."""
    adj = g.adj_sets
    for v1, v3, common in _distance_two_pairs(g):
        for v2, v4 in itertools.combinations(common, 2):
            if v4 not in adj[v2]:
                yield (v1, v2, v3, v4)


def satisfies_PC(g: Graph, d: DistMatrix) -> ClassVerdict:
    """d(u,v1)+d(u,v3) = d(u,v2)+d(u,v4) on every induced square.  Each
    distance row is packed into one int P(row) = sum of row[x] B^x
    (`packed_row`), one unsigned field of B = 2^8, 2^16 or 2^64 per
    vertex, the narrowest that holds one distance; a byte row is packed as
    it stands.  This is exact.  On
    an induced square v1v2v3v4, v1 and v2 are adjacent, so |d(u,v1) -
    d(u,v2)| <= 1, and |d(u,v3) - d(u,v4)| <= 1 alike, for every u.  So
    P(v1) + P(v3) - P(v2) - P(v4) = sum of e_x B^x with every e_x in
    [-2, 2].  As |e_x| < B, the lowest nonzero e_x B^x is no multiple of
    B^(x+1), so that sum is 0 exactly when every e_x is: the two sums are
    equal exactly when the rows agree.  The rows are packed at the first
    square, and u is looked up in the rows only on a failure."""
    packed = None
    for sq in induced_squares(g):
        if packed is None:
            top = d.diameter
            size = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 8
            packed = [packed_row(row, size) for row in d.d]
        v1, v2, v3, v4 = sq
        if packed[v1] + packed[v3] != packed[v2] + packed[v4]:
            u = next(u for u, (a, b, c, e) in enumerate(zip(d[v1], d[v3], d[v2], d[v4]))
                     if a + b != c + e)
            return ClassVerdict("PC", False, (u,) + sq)
    return ClassVerdict("PC", True)


def satisfies_ICm(g: Graph, m: int) -> ClassVerdict:
    """Every 2-interval embeds induced into the m-hyperoctahedron: its
    complement must be a matching plus isolated vertices, with at most m
    pairs consumed overall.

    The 2-interval of (u, v) is u, v and their k common neighbours, and in
    its complement u and v are a pair, since both are adjacent to all the
    others.  So the complement is a matching plus isolated vertices iff no
    common neighbour is in two of the nonadjacent pairs among the common
    neighbours, and then, with j such pairs, it consumes 1 + j + (k - 2j)
    = 1 + k - j pairs.  As j <= k/2, a pair with k > 2m - 2 fails without
    reading the k(k - 1)/2 pairs of its common neighbours."""
    if m not in (3, 4):
        raise ValueError("m must be 3 or 4")
    adj = g.adj_sets
    for u, v, common in _distance_two_pairs(g):
        k = len(common)
        if k <= 2 * m - 2:
            apart = [x for a, b in itertools.combinations(common, 2)
                     if b not in adj[a] for x in (a, b)]
            if len(set(apart)) == len(apart) and 1 + k - len(apart) // 2 <= m:
                continue
        return ClassVerdict(f"IC{m}", False, (u, v))
    return ClassVerdict(f"IC{m}", True)


def is_thick(g: Graph) -> ClassVerdict:
    """Every distance-2 pair lies in an induced square."""
    adj = g.adj_sets
    for u, v, common in _distance_two_pairs(g):
        if not any(b not in adj[a]
                   for a, b in itertools.combinations(common, 2)):
            return ClassVerdict("thick", False, (u, v))
    return ClassVerdict("thick", True)


# ------------------------------------------------ bipartite absolute retracts

def is_bipartite(g: Graph) -> ClassVerdict:
    """The 2-colouring by BFS level parity from vertex 0 is proper iff g is
    bipartite.  The ends of an edge are at most one level apart, so an edge
    breaks the colouring iff its ends are at the same distance from 0; the
    witness is the first such edge (a, b), which closes an odd walk with
    the two geodesics from 0."""
    level = g.dist0
    odd = next(((a, b) for a, b in g.edges() if level[a] == level[b]), None)
    return ClassVerdict("bipartite", odd is None, odd)


def is_bipartite_absolute_retract(g: Graph, d: DistMatrix) -> ClassVerdict:
    """Bipartite + interval condition: for d(u,v) >= 3 the neighbors of v
    inside I(u,v) have a second common neighbor in I(u,v).

    The condition reads u's distance row and the adjacency lists.  With
    k = d(u,v) >= 3, let near be the neighbours y of v with d(u,y) = k - 1;
    the pair passes iff some neighbour x of near[0] with d(u,x) = k - 2 is
    adjacent to every vertex of near.  On a bipartite graph:

    - near is exactly N(v) & I(u,v), since a neighbour y of v lies in
      I(u,v) iff d(u,y) + 1 = k;
    - a vertex x != v of I(u,v) adjacent to a vertex y of near lies at
      level k - 2: d(u,x) = d(u,y) +- 1, as no edge joins two vertices of
      one level, and at level k, x in I(u,v) would give d(x,v) = 0;
    - a vertex x at level k - 2 adjacent to a vertex of near is at most 2
      from v, and at least d(u,v) - d(u,x) = 2, so d(u,x) + d(x,v) = k and
      x lies in I(u,v).

    So the second common neighbours in I(u,v) are the vertices at level
    k - 2 adjacent to all of near, and as near is not empty, each is a
    neighbour of near[0].  The pairs are scanned in the order u, then v,
    so the witness is the first failing pair."""
    if not is_bipartite(g):
        return ClassVerdict("bipartite_absolute_retract", False, ("not_bipartite",))
    adj, sets = g.adj, g.adj_sets
    for u in range(g.n):
        row = d[u]
        for v, k in enumerate(row):
            if k < 3:
                continue
            near = [y for y in adj[v] if row[y] == k - 1]
            if not any(row[x] == k - 2 and sets[x].issuperset(near)
                       for x in adj[near[0]]):
                return ClassVerdict("bipartite_absolute_retract", False, (u, v))
    return ClassVerdict("bipartite_absolute_retract", True)


# ------------------------------------------------ alpha/beta configurations

def _small_clique_interiors(g: Graph):
    """Distance-2 pairs whose interval interior is 2-3 pairwise adjacent
    vertices (hence the pair lies in no induced square)."""
    adj = g.adj_sets
    for u, v, inner in _distance_two_pairs(g):
        if 2 <= len(inner) <= 3 and all(
                b in adj[a] for a, b in itertools.combinations(inner, 2)):
            yield u, v, inner


def personal_neighbor(g: Graph, s_set, x: int) -> int | None:
    """The unique neighbor of x inside s_set, if there is exactly one."""
    near = g.adj_sets[x]
    hits = [s for s in s_set if s in near]
    return hits[0] if len(hits) == 1 else None


def detect_beta_configuration(g: Graph):
    """Witness (u, v, (s,t,w), (a,b,c)) where each interior vertex is the
    personal neighbor of some vertex of J°(u,v), the vertices z of J(u,v)
    with d(u,z) != d(v,z); the owner of s is the least such vertex.

    Only a neighbour x of the interior can have a personal neighbour there,
    and each interior vertex is adjacent to u and v, so d(u,x), d(v,x) <= 2:
    0 on {u}, 1 on N(u), else 2.  Such an x with d(u,x) != d(v,x) is always
    in J(u,v): x leaves J only through a neighbour y closer to both u and v
    (`metric.J_set`), and with d(u,x) <= 1, say, y would be u itself, which
    is not closer than x to v.  So J°(u,v) meets the interior's neighbours
    in the x of exactly one of N[u] and N[v]."""
    adj = g.adj_sets
    for u, v, inner in _small_clique_interiors(g):
        if len(inner) != 3:
            continue
        owners = {}
        for x in sorted(adj[inner[0]] | adj[inner[1]] | adj[inner[2]]):
            if (x == u or x in adj[u]) == (x == v or x in adj[v]):
                continue
            pn = personal_neighbor(g, inner, x)
            if pn is not None and pn not in owners:
                owners[pn] = x
        if len(owners) == 3:
            return (u, v, tuple(inner), tuple(owners[s] for s in inner))
    return None


def detect_alpha_configuration(g: Graph):
    """(type, witness) for the first matching configuration, or None.

    For each pair u, v of `_small_clique_interiors`, apex[t] is the first
    vertex a with d(a,u) = d(a,v) = 2, d(a,t) = 3 and d(a,s) = 2 for the
    other interior vertices s, and a tail is the first neighbour b of u or
    v outside the interior whose interior neighbours are a given set.
    Type 1 is apex[t] and a tail on {t} alone; with three interior
    vertices, type 2 is apex[t], apex[w] and a tail on {t, w}, and type 3
    an apex for each interior vertex.  Types are tried in that order.

    No distance table is read.  The candidate apexes are the vertices in
    the second rings of both u and v, and an interior vertex t is a
    neighbour of u, so a candidate a is at distance at most 3 from t: 1 if
    a and t are adjacent, 2 if they have a common neighbour, else 3.
    """
    adj = g.adj_sets

    def ring(w: int) -> set[int]:
        """The vertices at distance 2 from w."""
        return set().union(*(adj[x] for x in g.adj[w])) - adj[w] - {w}

    def dist(a: int, t: int) -> int:
        return 1 if t in adj[a] else 3 if adj[a].isdisjoint(adj[t]) else 2

    for u, v, inner in _small_clique_interiors(g):
        around = sorted(ring(u) & ring(v))
        apex = {t: next((a for a in around if dist(a, t) == 3 and all(
            dist(a, s) == 2 for s in inner if s != t)), None) for t in inner}
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


# ------------------------------------------------------- labeled embeddings

def verify_labeled_embedding(g: Graph, d: DistMatrix,
                             e: LabeledEmbedding) -> ClassVerdict:
    for v in range(g.n):
        if v not in e.labels:
            raise LabelArity(f"vertex {v} has no label")
    for v in e.labels:
        if not 0 <= v < g.n:
            raise LabelArity(f"label for vertex {v} outside 0..{g.n - 1}")
    if e.target == "halved_cube":
        for v, lab in e.labels.items():
            if len(lab) % 2:
                raise LabelArity(f"label of {v} has odd size {len(lab)}")
    elif e.target == "johnson":
        if e.k is None:
            raise LabelArity("johnson target needs the label size k")
        for v, lab in e.labels.items():
            if len(lab) != e.k:
                raise LabelArity(f"label of {v} has size {len(lab)} != {e.k}")
    elif e.target != "hypercube":
        raise LabelArity(f"unknown target {e.target!r}")
    scale = 1 if e.target == "hypercube" else 2
    for u in range(g.n):
        for v in range(u + 1, g.n):
            diff = len(e.labels[u] ^ e.labels[v])
            if diff != scale * d(u, v):
                return ClassVerdict("labeled_embedding", False, (u, v))
    return ClassVerdict("labeled_embedding", True)


def _require_embedding(g: Graph, d: DistMatrix, e: LabeledEmbedding | None) -> None:
    """Raise EmbeddingUnverified unless e is None or an isometric labeling."""
    if e is not None:
        ver = verify_labeled_embedding(g, d, e)
        if not ver:
            raise EmbeddingUnverified(f"embedding fails at pair {ver.witness}")


def connected_medians_partial_johnson(g: Graph, d: DistMatrix,
                                      e: LabeledEmbedding | None = None) -> ClassVerdict:
    _require_embedding(g, d, e)
    m = is_meshed(g, d)
    return ClassVerdict("connected_medians_partial_johnson", m.verdict, m.witness)


def connected_medians_partial_halved_cube(g: Graph, d: DistMatrix,
                                          e: LabeledEmbedding | None = None) -> ClassVerdict:
    _require_embedding(g, d, e)
    name = "connected_medians_partial_halved_cube"
    m = is_meshed(g, d)
    if not m:
        return ClassVerdict(name, False, m.witness)
    beta = detect_beta_configuration(g)
    if beta is not None:
        return ClassVerdict(name, False, ("beta",) + beta)
    if is_weakly_modular(g, d):
        # for weakly modular partial halved-cubes the beta test suffices
        return ClassVerdict(name, True)
    alpha = detect_alpha_configuration(g)
    if alpha is not None:
        return ClassVerdict(name, False, ("alpha",) + alpha)
    return ClassVerdict(name, True)
