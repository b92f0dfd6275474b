"""Profiles, median functions, and step-p peakless/convex analysis.

All weights and function values are exact rationals; no floating point is
used anywhere on a decision path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotPeakless, ParseError
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

    def support(self) -> set[int]:
        return set(self.weights)

    def __call__(self, v: int) -> Fraction:
        return self.weights.get(v, Fraction(0))

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def scaled(self, c: Rational) -> "Profile":
        return Profile({v: w * Fraction(c) for v, w in self.weights.items()})

    def is_integer(self) -> bool:
        return all(w.denominator == 1 for w in self.weights.values())


class VertexFunction:
    """Total rational-valued function on the vertices of a graph."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = [Fraction(x) for x in values]

    def __call__(self, v: int) -> Fraction:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)


def median_value(g: Graph, d: DistMatrix, pi: Profile, x: int) -> Fraction:
    """F_pi(x): weighted sum of distances from x to the profile support."""
    return sum((w * d(u, x) for u, w in pi.weights.items()), Fraction(0))


def median_function(g: Graph, d: DistMatrix, pi: Profile) -> VertexFunction:
    return VertexFunction([median_value(g, d, pi, x) for x in range(g.n)])


def median_set(g: Graph, d: DistMatrix, pi: Profile) -> set[int]:
    f = median_function(g, d, pi)
    best = min(f.values)
    return {x for x in range(g.n) if f.values[x] == best}


def local_minima_on_power(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> set[int]:
    """Vertices x with f(x) <= f(y) for every y with 1 <= d(x,y) <= p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    out = set()
    for x in range(g.n):
        fx = f(x)
        if all(fx <= f(y) for y in range(g.n) if y != x and d(x, y) <= p):
            out.add(x)
    return out


def local_median_set_p(g: Graph, d: DistMatrix, pi: Profile, p: int) -> set[int]:
    return local_minima_on_power(g, d, median_function(g, d, pi), p)


class GeodesicString:
    """Ordered vertices lying on a common geodesic of the graph."""

    __slots__ = ("vertices",)

    def __init__(self, g: Graph, d: DistMatrix, vertices):
        vs = list(vertices)
        if not vs:
            raise ValueError("geodesic string must be nonempty")
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if d(vs[0], vs[j]) != d(vs[0], vs[i]) + d(vs[i], vs[j]):
                    raise ValueError(f"vertices {vs} are not on a common geodesic")
        self.vertices = vs

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i: int) -> int:
        return self.vertices[i]

    def is_p_geodesic(self, d: DistMatrix, p: int) -> bool:
        return _steps_at_most(d, self.vertices, p)


def _steps_at_most(d: DistMatrix, vs: list[int], p: int) -> bool:
    return all(d(vs[i], vs[i + 1]) <= p for i in range(len(vs) - 1))


def is_peakless_on_string(d: DistMatrix, f: VertexFunction,
                          s: GeodesicString | list[int]) -> bool:
    """Local check on consecutive triples; equivalent to the global condition."""
    vs = list(s)
    for i in range(1, len(vs) - 1):
        a, b, c = f(vs[i - 1]), f(vs[i]), f(vs[i + 1])
        hi = max(a, c)
        if b > hi:
            return False
        if b == hi and not (a == b == c):
            return False
    return True


def is_convex_on_string(d: DistMatrix, f: VertexFunction, s: GeodesicString) -> bool:
    """Weighted midpoint inequality on consecutive triples."""
    vs = s.vertices
    for i in range(1, len(vs) - 1):
        a, b, c = vs[i - 1], vs[i], vs[i + 1]
        span = d(a, c)
        if span * f(b) > d(c, b) * f(a) + d(a, b) * f(c):
            return False
    return True


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


def check_Loz(g: Graph, d: DistMatrix, f: VertexFunction, u: int, v: int) -> bool:
    """Two (not necessarily distinct) interior vertices w,w' with
    f(w) + f(w') <= f(u) + f(v)."""
    _require_nonadjacent(g, u, v)
    inner = sorted(interior_interval(g, d, u, v))
    if not inner:
        return False
    vals = sorted(f(w) for w in inner)
    return vals[0] + (vals[1] if len(vals) > 1 else vals[0]) <= f(u) + f(v)


def _pairs_in_distance_band(g: Graph, d: DistMatrix, lo: int, hi: int):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if lo <= d(u, v) <= hi:
                yield u, v


def is_p_weakly_peakless(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """Local check (pairs with p+1 <= d <= 2p); global by the
    local-to-global equivalence."""
    return all(check_WP(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(g, d, p + 1, 2 * p))


def is_p_weakly_convex(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    return all(check_WC(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(g, d, p + 1, 2 * p))


def is_p_weakly_peakless_full(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """All-pairs variant (every pair with d >= p+1); test oracle for the
    local check."""
    return all(check_WP(g, d, f, u, v)
               for u, v in _pairs_in_distance_band(g, d, p + 1, d.diameter))


def find_peakless_p_geodesic(g: Graph, d: DistMatrix, f: VertexFunction,
                             u: int, v: int, p: int) -> GeodesicString:
    """A p-geodesic from u to v along which f is peakless.

    Recursive split at an f-minimizing interior vertex (ties to the
    smallest index), with the shortcut subsequence when the interior
    minimum exceeds min(f(u), f(v)).  Raises NotPeakless if f turns out
    not to be p-weakly peakless between u and v.
    """
    path = _peakless_path(g, d, f, u, v, p)
    s = GeodesicString(g, d, path)
    if not s.is_p_geodesic(d, p) or not is_peakless_on_string(d, f, s):
        raise NotPeakless(f"no peakless p-geodesic found between {u} and {v}")
    return s


def _peakless_path(g, d, f, u, v, p) -> list[int]:
    if d(u, v) <= p:
        return [u, v] if u != v else [u]
    inner = sorted(interior_interval(g, d, u, v))
    if not inner:
        raise NotPeakless(f"empty interval interior between {u} and {v}")
    fmin = min(f(w) for w in inner)
    w = min(x for x in inner if f(x) == fmin)
    left = _peakless_path(g, d, f, u, w, p)
    right = _peakless_path(g, d, f, w, v, p)
    path = left[:-1] + right
    if is_peakless_on_string(d, f, path):
        return path
    # Shortcut of the concatenation proof: when f(w) exceeds an endpoint
    # value, drop the constant plateau around w on the cheap side.
    for cand in _plateau_shortcuts(f, path, left, right):
        if is_peakless_on_string(d, f, cand) and _steps_at_most(d, cand, p):
            return cand
    raise NotPeakless(f"pair ({u},{v}) violates p-weak peaklessness")


def _plateau_shortcuts(f, path, left, right):
    w = left[-1]
    fw = f(w)
    i = len(left) - 1
    # skip the plateau to the right of w, jump from the start
    m = i
    while m + 1 < len(path) and f(path[m + 1]) == fw:
        m += 1
    yield [path[0]] + path[m:]
    # mirror: skip the plateau to the left of w, jump to the end
    l = i
    while l - 1 >= 0 and f(path[l - 1]) == fw:
        l -= 1
    yield path[: l + 1] + [path[-1]]


def is_unimodal_on_power(g: Graph, d: DistMatrix, f: VertexFunction, p: int) -> bool:
    """Every local minimum of f in G^p attains the global minimum."""
    best = min(f.values)
    return all(f(x) == best for x in local_minima_on_power(g, d, f, p))


def level_set(f: VertexFunction, alpha: Rational) -> set[int]:
    a = Fraction(alpha)
    return {x for x in range(len(f)) if f(x) <= a}


def is_p_connected(g: Graph, d: DistMatrix, s: set[int], p: int) -> bool:
    """Connectivity of s in G^p (via distance-at-most-p hops inside s)."""
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


def is_p_isometric(g: Graph, d: DistMatrix, s: set[int], p: int) -> bool:
    """Every pair of s at distance >= p+1 has an interior interval vertex in s."""
    verts = sorted(s)
    for i, x in enumerate(verts):
        for y in verts[i + 1:]:
            if d(x, y) >= p + 1:
                if not (interior_interval(g, d, x, y) & s):
                    return False
    return True


def _parse_rational(tok: str) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {tok!r}") from exc


def _parse_vertex(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ParseError(f"bad vertex {tok!r}") from exc


def read_profile(text: str, n: int | None = None) -> Profile:
    """Parse lines `vertex weight`; weights are integers or `a/b` rationals."""
    weights: dict[int, Fraction] = {}
    for ln in _data_lines(text):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad profile line {ln!r}")
        v = _parse_vertex(parts[0])
        w = _parse_rational(parts[1])
        if w < 0:
            raise ParseError(f"negative weight on vertex {v}")
        if n is not None and not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range 0..{n - 1}")
        weights[v] = weights.get(v, Fraction(0)) + w
    return Profile(weights)


def read_vertex_function(text: str, n: int) -> VertexFunction:
    """Parse a total function file; a `default <value>` header fills gaps."""
    default: Fraction | None = None
    values: dict[int, Fraction] = {}
    for ln in _data_lines(text):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad function line {ln!r}")
        if parts[0] == "default":
            default = _parse_rational(parts[1])
            continue
        v = _parse_vertex(parts[0])
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range 0..{n - 1}")
        values[v] = _parse_rational(parts[1])
    out = []
    for v in range(n):
        if v in values:
            out.append(values[v])
        elif default is not None:
            out.append(default)
        else:
            raise ParseError(f"function value missing for vertex {v}")
    return VertexFunction(out)


def write_profile(pi: Profile) -> str:
    lines = []
    for v in sorted(pi.weights):
        w = pi.weights[v]
        lines.append(f"{v} {w}" if w.denominator > 1 else f"{v} {w.numerator}")
    return "\n".join(lines) + "\n"
