"""Profiles, median functions, and the step-p local conditions of the paper.

`is_p_weakly_convex` and `is_p_weakly_peakless` check a vertex function on
the pairs at distance p+1..2p only; by the paper's local-to-global theorems
that decides the condition on every pair at distance > p.  With
`is_unimodal_on_power`, `level_set` and `is_p_isometric` they check the
paper's example on the Fano graph G_2 in `verify-paper` (`cli._fano_plane`).

Weights are exact rationals.  `median_set` and `local_median_set_p`
compare the integers den*F_pi(x) = sum_s k_s d(s,x), den being the lcm of
the weights' denominators and k_s = den*pi(s): scaling by den > 0 keeps
every comparison, so the minima and local minima are those of F_pi.
`median_function` divides each integer by den once; `median_value` is the
one-vertex sum of the definition.  No floating point is used anywhere on
a decision path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import ParseError
from .graph import DistMatrix, Graph, _data_lines
from .metric import interior_interval

Rational = Fraction | int


@dataclass(frozen=True)
class Profile:
    """Sparse nonnegative weight function with nonempty finite support."""

    weights: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {v: Fraction(w) for v, w in self.weights.items() if w != 0}
        if not cleaned:
            raise ValueError("profile support must be nonempty")
        if any(w < 0 for w in cleaned.values()):
            raise ValueError("profile weights must be nonnegative")
        object.__setattr__(self, "weights", cleaned)


class VertexFunction:
    """Total rational-valued function on the vertices of a graph."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = [x if type(x) is Fraction else Fraction(x)
                       for x in values]

    def __call__(self, v: int) -> Fraction:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)


def median_value(g: Graph, d: DistMatrix, pi: Profile, x: int) -> Fraction:
    """F_pi(x): weighted sum of distances from x to the profile support."""
    return sum((w * d(u, x) for u, w in pi.weights.items()), Fraction(0))


def _scaled(values) -> tuple[int, list[int]]:
    """Common denominator den of exact rationals and the integers den*value."""
    if all(type(x) is int for x in values):
        return 1, list(values)
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _scaled_median_function(d: DistMatrix, pi: Profile) -> tuple[int, list[int]]:
    """den and the list of den*F_pi(x), one pass over the distance row of
    each support vertex s with its integer weight k_s = den*pi(s)."""
    den, ks = _scaled(list(pi.weights.values()))
    values = [0] * d.n
    for s, k in zip(pi.weights, ks):
        values = [f + k * dist for f, dist in zip(values, d.d[s])]
    return den, values


def median_function(g: Graph, d: DistMatrix, pi: Profile) -> VertexFunction:
    den, values = _scaled_median_function(d, pi)
    return VertexFunction([Fraction(f, den) for f in values])


def median_set(g: Graph, d: DistMatrix, pi: Profile) -> set[int]:
    _, values = _scaled_median_function(d, pi)
    best = min(values)
    return {x for x, f in enumerate(values) if f == best}


def local_minima_on_power(g: Graph, d: DistMatrix, values: list, p: int) -> set[int]:
    """Vertices x with values[x] <= values[y] for every y with
    1 <= d(x,y) <= p.  A neighbour is such a y, so a vertex that loses to
    one is out at once, and at p = 1 the neighbours are every such y; at
    p > 1 the others are tested along their distance row."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return {x for x, (fx, row, nbrs) in enumerate(zip(values, d.d, g.adj))
            if all(values[y] >= fx for y in nbrs)
            and (p == 1
                 or all(fy >= fx for fy, k in zip(values, row) if k <= p))}


def local_median_set_p(g: Graph, d: DistMatrix, pi: Profile, p: int) -> set[int]:
    return local_minima_on_power(g, d, _scaled_median_function(d, pi)[1], p)


def _require_nonadjacent(g: Graph, u: int, v: int) -> None:
    if u == v or g.has_edge(u, v):
        raise ValueError(f"pair ({u},{v}) must be nonadjacent and distinct")


def check_WC(g: Graph, d: DistMatrix, f: VertexFunction, u: int, v: int) -> bool:
    """Some interior vertex w satisfies the chord inequality
    d(u,v) f(w) <= d(v,w) f(u) + d(u,w) f(v)."""
    _require_nonadjacent(g, u, v)
    duv = d(u, v)
    for w in interior_interval(g, d, u, v):
        if duv * f(w) <= d(v, w) * f(u) + d(u, w) * f(v):
            return True
    return False


def check_WP(g: Graph, d: DistMatrix, f: VertexFunction, u: int, v: int) -> bool:
    """Some interior vertex w has f(w) <= max(f(u), f(v)), equality only
    when f(u) = f(w) = f(v)."""
    _require_nonadjacent(g, u, v)
    hi = max(f(u), f(v))
    for w in interior_interval(g, d, u, v):
        fw = f(w)
        if fw < hi or (fw == hi and f(u) == fw == f(v)):
            return True
    return False


def _pairs_in_distance_band(d: DistMatrix, lo: int, hi: int):
    """The pairs u < v with lo <= d(u,v) <= hi, u ascending, then v."""
    for u, row in enumerate(d.d):
        for v in range(u + 1, len(row)):
            if lo <= row[v] <= hi:
                yield u, v


def is_p_weakly_peakless(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """Local check (pairs with p+1 <= d <= 2p); global by the
    local-to-global equivalence."""
    return all(check_WP(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(d, p + 1, 2 * p))


def is_p_weakly_convex(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    return all(check_WC(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(d, p + 1, 2 * p))


def is_unimodal_on_power(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """Every local minimum of f in G^p attains the global minimum."""
    best = min(f.values)
    return all(f(x) == best for x in local_minima_on_power(g, d, f.values, p))


def level_set(f: VertexFunction, alpha: Rational) -> set[int]:
    a = Fraction(alpha)
    return {x for x in range(len(f)) if f(x) <= a}


def is_p_connected(g: Graph, d: DistMatrix, s: set[int], p: int) -> bool:
    """Connectivity of s in G^p (via distance-at-most-p hops inside s): a
    walk from one vertex of s that reads each reached vertex's neighbours,
    at p = 1, or its distance row, testing only the vertices not reached."""
    left = set(s)
    if not left:
        return True
    stack = [left.pop()]
    while stack:
        x = stack.pop()
        if p == 1:
            near = [y for y in g.adj[x] if y in left]
        else:
            row = d.d[x]
            near = [y for y in left if row[y] <= p]
        left.difference_update(near)
        stack.extend(near)
    return not left


def is_p_isometric(g: Graph, d: DistMatrix, s: set[int], p: int) -> bool:
    """Every pair of s at distance >= p+1 has an interior interval vertex in s."""
    verts = sorted(s)
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            if d(x, y) >= p + 1:
                if not (interior_interval(g, d, x, y) & s):
                    return False
    return True


def read_profile(text: str, n: int) -> Profile:
    """Parse lines `vertex weight` on the vertices 0..n-1; weights are
    integers or `a/b` rationals."""
    weights: dict[int, Fraction] = {}
    for ln in _data_lines(text):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad profile line {ln!r}")
        vtok, wtok = parts
        try:
            v = int(vtok)
        except ValueError as exc:
            raise ParseError(f"bad vertex {vtok!r}") from exc
        num, slash, den = wtok.partition("/")
        try:
            w = Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {wtok!r}") from exc
        if w < 0:
            raise ParseError(f"negative weight on vertex {v}")
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range 0..{n - 1}")
        weights[v] = weights.get(v, Fraction(0)) + w
    return Profile(weights)
