"""Graph generators: classical families, products, amalgams, the
projective-plane incidence graph, and the alpha/beta configurations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .errors import (ConstraintsUnsatisfiable, NotGated, NotInducedIso,
                     NotPrime, ParameterOutOfRange)
from .graph import Graph, all_pairs_distances, build_graph
from .metric import interior_interval, is_gated_set
from .recognizers import LabeledEmbedding, detect_alpha_configuration


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: dict[str, int] = field(default_factory=dict)


# The most any generator builds: hypercube n = 16, the largest family member
# allowed before these bounds, has 2^16 vertices and 2^19 edges.
MAX_VERTICES = 1 << 16
MAX_EDGES = 1 << 20


def _bounded(name: str, n: int, m: int) -> None:
    """Reject a graph of n vertices and m edges over the bounds, from its
    parameters alone: nothing is allocated before this check."""
    if n > MAX_VERTICES or m > MAX_EDGES:
        raise ParameterOutOfRange(
            f"{name} would have {n} vertices and {m} edges; the bounds are "
            f"{MAX_VERTICES} vertices and {MAX_EDGES} edges")


def check_names(family: str, params: dict, names) -> None:
    """Reject a parameter that the family does not take."""
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ParameterOutOfRange(f"{family} takes no parameter {unknown[0]}")


def _need(spec: FamilySpec, *names: str) -> list[int]:
    """The values of `names`, the only parameters the family takes."""
    check_names(spec.family, spec.params, names)
    out = []
    for name in names:
        if name not in spec.params:
            raise ParameterOutOfRange(f"{spec.family} needs parameter {name}")
        out.append(spec.params[name])
    return out


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRange("path needs n >= 1")
    _bounded(f"P_{n}", n, n - 1)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P_{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterOutOfRange("cycle needs n >= 3")
    _bounded(f"C_{n}", n, n)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C_{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRange("complete needs n >= 1")
    _bounded(f"K_{n}", n, n * (n - 1) // 2)
    return build_graph(n, list(itertools.combinations(range(n), 2)), name=f"K_{n}")


def complete_bipartite(n: int, m: int) -> Graph:
    if n < 1 or m < 1:
        raise ParameterOutOfRange("complete bipartite needs n, m >= 1")
    _bounded(f"K_{n},{m}", n + m, n * m)
    edges = [(i, n + j) for i in range(n) for j in range(m)]
    return build_graph(n + m, edges, name=f"K_{n},{m}")


def hyperoctahedron(m: int) -> Graph:
    """K_{m x 2}: complete graph on 2m vertices minus the matching (2i, 2i+1)."""
    if m < 2:
        raise ParameterOutOfRange("hyperoctahedron needs m >= 2")
    _bounded(f"K_{m}x2", 2 * m, 2 * m * (m - 1))
    edges = [(a, b) for a, b in itertools.combinations(range(2 * m), 2)
             if a // 2 != b // 2]
    return build_graph(2 * m, edges, name=f"K_{m}x2")


def wheel(n: int, broken: bool = False) -> Graph:
    """W_n: an n-cycle plus a hub; broken drops the hub-to-0 spoke (W_n-)."""
    if n < 3:
        raise ParameterOutOfRange("wheel needs n >= 3")
    _bounded(f"W_{n}", n + 1, 2 * n - broken)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n) for i in range(1 if broken else 0, n)]
    return build_graph(n + 1, edges, name=f"W_{n}-" if broken else f"W_{n}")


def propeller() -> Graph:
    """K_5 minus K_3: three triangles glued along the edge 0-1."""
    edges = [(0, 1)] + [(0, x) for x in (2, 3, 4)] + [(1, x) for x in (2, 3, 4)]
    return build_graph(5, edges, name="propeller")


def k4_minus() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], name="K_4-")


def k33_minus() -> Graph:
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    edges.remove((0, 3))
    return build_graph(6, edges, name="K_3,3-")


def hypercube(n: int) -> tuple[Graph, LabeledEmbedding]:
    if not 1 <= n <= 16:
        raise ParameterOutOfRange("hypercube needs 1 <= n <= 16")
    size = 1 << n
    edges = [(a, a | (1 << i)) for a in range(size) for i in range(n)
             if not a & (1 << i)]
    g = build_graph(size, edges, name=f"H_{n}")
    labels = {a: frozenset(i for i in range(n) if a & (1 << i))
              for a in range(size)}
    return g, LabeledEmbedding(labels, "hypercube")


def halved_cube(n: int) -> tuple[Graph, LabeledEmbedding]:
    """Even subsets of an n-set, adjacent when their Hamming distance is 2."""
    if not 2 <= n <= 12:
        raise ParameterOutOfRange("halved cube needs 2 <= n <= 12")
    masks = [a for a in range(1 << n) if bin(a).count("1") % 2 == 0]
    index = {a: i for i, a in enumerate(masks)}
    edges = []
    for a in masks:
        for i, j in itertools.combinations(range(n), 2):
            b = a ^ (1 << i) ^ (1 << j)
            if a < b:
                edges.append((index[a], index[b]))
    g = build_graph(len(masks), edges, name=f"halfH_{n}")
    labels = {index[a]: frozenset(i for i in range(n) if a & (1 << i))
              for a in masks}
    return g, LabeledEmbedding(labels, "halved_cube")


def johnson(n: int, k: int) -> tuple[Graph, LabeledEmbedding]:
    # C(n,k) >= n for 1 <= k < n: a large n is rejected before C(n,k), a
    # number of about n bits for k near n/2, is computed
    if not 1 <= k <= n or (k < n and n > 10000) or comb(n, k) > 10000:
        raise ParameterOutOfRange("johnson needs 1 <= k <= n, C(n,k) <= 10000")
    _bounded(f"J({n},{k})", comb(n, k), comb(n, k) * k * (n - k) // 2)
    sets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    index = {s: i for i, s in enumerate(sets)}
    edges = [(i, j) for i, j in itertools.combinations(range(len(sets)), 2)
             if len(sets[i] & sets[j]) == k - 1]
    g = build_graph(len(sets), edges, name=f"J({n},{k})")
    return g, LabeledEmbedding(dict(enumerate(sets)), "johnson", k=k)


def bn_graph(n: int) -> Graph:
    """K_{n,n} minus a perfect matching; sides 0..n-1 and n..2n-1."""
    if n < 2:
        raise ParameterOutOfRange("B_n needs n >= 2")
    _bounded(f"B_{n}", 2 * n, n * (n - 1))
    edges = [(i, n + j) for i in range(n) for j in range(n) if i != j]
    return build_graph(2 * n, edges, name=f"B_{n}")


def bn_hat_graph(n: int) -> Graph:
    """B_n plus adjacent vertices a = 2n dominating the b-side and
    b = 2n+1 dominating the a-side."""
    if n < 2:
        raise ParameterOutOfRange("B^_n needs n >= 2")
    _bounded(f"B^_{n}", 2 * n + 2, n * n + n + 1)
    edges = [(i, n + j) for i in range(n) for j in range(n) if i != j]
    edges += [(2 * n, n + j) for j in range(n)]
    edges += [(2 * n + 1, i) for i in range(n)]
    edges.append((2 * n, 2 * n + 1))
    return build_graph(2 * n + 2, edges, name=f"B^_{n}")


_FAMILIES = {
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "complete_bipartite": (complete_bipartite, ("n", "m")),
    "hyperoctahedron": (hyperoctahedron, ("m",)),
    "wheel": (wheel, ("n",)),
    "broken_wheel": (lambda n: wheel(n, broken=True), ("n",)),
    "propeller": (propeller, ()),
    "k4_minus": (k4_minus, ()),
    "k33_minus": (k33_minus, ()),
    "hypercube": (hypercube, ("n",)),
    "halved_cube": (halved_cube, ("n",)),
    "johnson": (johnson, ("n", "k")),
    "bn": (bn_graph, ("n",)),
    "bn_hat": (bn_hat_graph, ("n",)),
}


def generate(spec: FamilySpec) -> tuple[Graph, LabeledEmbedding | None]:
    if spec.family not in _FAMILIES:
        raise ParameterOutOfRange(f"unknown family {spec.family!r}")
    fn, names = _FAMILIES[spec.family]
    out = fn(*_need(spec, *names))
    if isinstance(out, tuple):
        return out
    return out, None


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Vertex (i, j) becomes i * n2 + j."""
    n2 = g2.n
    edges = []
    for i in range(g1.n):
        for a, b in g2.edges():
            edges.append((i * n2 + a, i * n2 + b))
    for a, b in g1.edges():
        for j in range(n2):
            edges.append((a * n2 + j, b * n2 + j))
    return build_graph(g1.n * n2, edges,
                       name=f"{g1.name or 'G1'}x{g2.name or 'G2'}")


def gated_amalgam(g1: Graph, g2: Graph,
                  h1: dict, h2: dict) -> Graph:
    """Glue g1 and g2 along the common template mapped by h1 and h2.

    Both images must induce isomorphic subgraphs (via the template) and be
    gated in their host graph.  Vertices of g1 keep their indices; the
    remaining vertices of g2 are appended.
    """
    if set(h1) != set(h2):
        raise NotInducedIso("template maps have different domains")
    keys = sorted(h1)
    for x, y in itertools.combinations(keys, 2):
        if g1.has_edge(h1[x], h1[y]) != g2.has_edge(h2[x], h2[y]):
            raise NotInducedIso(f"template pair ({x},{y}) differs between hosts")
    for g, h in ((g1, h1), (g2, h2)):
        d = all_pairs_distances(g)
        gated, _ = is_gated_set(g, d, set(h.values()))
        if not gated:
            raise NotGated(f"template image not gated in {g.name or 'host'}")
    image2 = {h2[x]: h1[x] for x in keys}
    remap = {}
    nxt = g1.n
    for v in range(g2.n):
        if v in image2:
            remap[v] = image2[v]
        else:
            remap[v] = nxt
            nxt += 1
    edges = set(g1.edges())
    for a, b in g2.edges():
        ra, rb = remap[a], remap[b]
        edges.add((min(ra, rb), max(ra, rb)))
    return build_graph(nxt, sorted(edges),
                       name=f"amalgam({g1.name or 'G1'},{g2.name or 'G2'})")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % f for f in range(2, int(q ** 0.5) + 1))


def projective_incidence_graph(q: int) -> Graph:
    """Points and lines of the projective plane over the q-element field,
    plus a vertex u adjacent to all points and v adjacent to all lines."""
    npts = q * q + q + 1
    # each point lies on q + 1 lines; checked before the primality test,
    # which takes sqrt(q) steps
    _bounded(f"G_{q}", 2 * npts + 2, npts * (q + 1) + 2 * npts)
    if not _is_prime(q):
        raise NotPrime(f"{q} is not prime")
    reps = []
    for first in range(3):
        for tail in itertools.product(range(q), repeat=2 - first):
            reps.append((0,) * first + (1,) + tail)
    assert len(reps) == npts
    edges = []
    for i, p in enumerate(reps):
        for j, l in enumerate(reps):
            if sum(a * b for a, b in zip(p, l)) % q == 0:
                edges.append((i, npts + j))
    u, v = 2 * npts, 2 * npts + 1
    edges += [(i, u) for i in range(npts)]
    edges += [(npts + j, v) for j in range(npts)]
    g = build_graph(2 * npts + 2, sorted(edges), name=f"G_{q}")
    return g


# -------------------------------------------------- alpha/beta configurations

def beta_configuration() -> Graph:
    """Eight vertices: u=0, v=1, interior s,t,w = 2,3,4 pairwise adjacent
    and adjacent to both u and v, tails a,b,c = 5,6,7 with a~s, b~t, c~w,
    each tail also adjacent to u."""
    return build_graph(8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                           (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
                           (3, 4), (3, 6), (4, 7)], name="beta_configuration")


def alpha_configuration(config_type: int) -> Graph:
    """Minimal abstract graph realizing the chosen alpha-configuration
    type on u=0, v=1, interior s,t,w = 2,3,4.

    Each apex vertex gets three private helpers: one linking it to u, one
    to v, and one to its two near interior vertices; helpers stay clear of
    the roles that would realize a smaller type.  The construction is
    validated against the definition before being returned.
    """
    if config_type not in (1, 2, 3):
        raise ParameterOutOfRange("alpha-configuration type must be 1, 2, or 3")
    u, v, s, t, w = 0, 1, 2, 3, 4
    edges = [(u, s), (u, t), (u, w), (v, s), (v, t), (v, w),
             (s, t), (s, w), (t, w)]
    nxt = 5
    apexes = []

    def add_apex(near1, near2):
        nonlocal nxt
        apex, hu, hv, hx = nxt, nxt + 1, nxt + 2, nxt + 3
        nxt += 4
        edges.extend([(apex, hu), (apex, hv), (apex, hx),
                      (hu, u), (hv, v), (hx, near1), (hx, near2)])
        apexes.append(apex)
        return apex

    if config_type == 1:
        add_apex(s, w)                       # far from t
        b = nxt
        nxt += 1
        edges.extend([(b, t), (b, u)])
    elif config_type == 2:
        add_apex(s, w)                       # a1, far from t
        add_apex(s, t)                       # a2, far from w
        b = nxt
        nxt += 1
        edges.extend([(b, t), (b, w), (b, u)])
    else:
        add_apex(s, w)                       # a1, far from t
        add_apex(s, t)                       # a2, far from w
        add_apex(t, w)                       # a3, far from s
    g = build_graph(nxt, sorted(edges), name=f"alpha_type{config_type}")
    _validate_alpha(g, config_type, apexes)
    return g


def _validate_alpha(g: Graph, config_type: int, apexes) -> None:
    d = all_pairs_distances(g)
    u, v = 0, 1
    inner = sorted(interior_interval(g, d, u, v))
    if d(u, v) != 2 or inner != [2, 3, 4]:
        raise ConstraintsUnsatisfiable("interval interior is not {s,t,w}")
    fars = {1: [3], 2: [3, 4], 3: [3, 4, 2]}[config_type]
    for apex, far in zip(apexes, fars):
        near = [x for x in inner if x != far]
        if not (d(apex, u) == d(apex, v) == 2 and d(apex, far) == 3
                and all(d(apex, x) == 2 for x in near)):
            raise ConstraintsUnsatisfiable(
                f"apex {apex} misses its distance pattern")
    found = detect_alpha_configuration(g)
    if found is None or found[0] != config_type:
        raise ConstraintsUnsatisfiable(
            f"built graph detects as {found and found[0]}, wanted {config_type}")
