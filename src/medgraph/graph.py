"""Immutable simple connected graphs with precomputed hop distances."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import Disconnected, LoopEdge, ParseError


class Graph:
    """A simple undirected connected graph on vertices 0..n-1.

    Adjacency is stored as sorted neighbor lists, plus neighbor sets for
    O(1) membership tests that are built on first read.  Instances are
    immutable after construction.
    """

    __slots__ = ("n", "adj", "name", "__dict__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str = ""):
        adj_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            adj_sets[u].add(v)
            adj_sets[v].add(u)
        self.n = n
        self.adj = [sorted(s) for s in adj_sets]
        self.name = name
        if n < 1 or -1 in bfs(self, 0):
            raise Disconnected("graph is not connected")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @cached_property
    def adj_sets(self) -> list[set[int]]:
        """adj_sets[u] is N(u) as a set.  Built on first read, and then
        read from the instance dict: a set of a few vertices takes about
        four times the memory of its sorted list, and a graph whose
        adjacency is never tested needs none."""
        return [set(a) for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_sets[u]

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} m={self.num_edges()}>"


class DistMatrix:
    """All-pairs hop distances, computed by a bitset BFS from every vertex."""

    __slots__ = ("d", "n", "diameter", "_levels")

    def __init__(self, d: list[list[int]]):
        self.d = d
        self.n = len(d)
        self.diameter = max((max(row) for row in d), default=0)
        self._levels = None

    @property
    def levels(self) -> list[list[int]]:
        """levels[u][k]: the vertices at distance k from u as a Python-int
        bitset, so levels[u][1] is N(u).  Built once, on first use, so a
        table whose intervals are never read costs no extra memory."""
        if self._levels is None:
            levels = [[0] * (max(row) + 1) for row in self.d]
            for lv, row in zip(levels, self.d):
                for x, k in enumerate(row):
                    lv[k] |= 1 << x
            self._levels = levels
        return self._levels

    def __call__(self, u: int, v: int) -> int:
        return self.d[u][v]

    def __getitem__(self, u: int) -> list[int]:
        return self.d[u]


def _neighbour_masks(g: Graph) -> list[int]:
    """nbr[u] is N(u) as a Python-int bitset."""
    nbr = []
    for a in g.adj:
        mask = 0
        for v in a:
            mask |= 1 << v
        nbr.append(mask)
    return nbr


def _bfs(nbr: list[int], source: int, levels: list[int]) -> list[int]:
    """Level-synchronous BFS on neighbour bitsets: the next frontier is the
    OR of the frontier's neighbour masks, less every vertex already seen.
    The distance k is stored as levels[k], so rows that share levels share
    their int objects: CPython caches only the ints up to 256, and each
    distinct int takes 32 bytes besides the row's 8-byte pointer to it."""
    dist = [-1] * len(nbr)
    seen = frontier = 1 << source
    k = 0
    while frontier:
        reach = 0
        level = levels[k]
        while frontier:
            low = frontier & -frontier
            x = low.bit_length() - 1
            dist[x] = level
            reach |= nbr[x]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
        k += 1
    return dist


def bfs(g: Graph, source: int) -> list[int]:
    """Hop distances from source; -1 marks a vertex it does not reach.

    One source walks the adjacency lists, in O(n + m) time and memory;
    `all_pairs_distances` builds neighbour bitsets instead, whose cost,
    about n^2 / 2 bits on a sparse graph, it spreads over n sources."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    k = 0
    while frontier:
        k += 1
        reach = []
        for x in frontier:
            for y in g.adj[x]:
                if dist[y] < 0:
                    dist[y] = k
                    reach.append(y)
        frontier = reach
    return dist


def build_graph(n: int, edges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    """Build a graph, silently deduplicating repeated edges.

    Raises LoopEdge for self-loops and Disconnected if the result is not
    connected.
    """
    return Graph(n, edges, name=name)


def all_pairs_distances(g: Graph) -> DistMatrix:
    nbr = _neighbour_masks(g)
    levels = list(range(g.n))
    return DistMatrix([_bfs(nbr, s, levels) for s in range(g.n)])


def power_graph(g: Graph, p: int) -> Graph:
    """The p-th power: u ~ v iff 1 <= d_G(u,v) <= p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return g
    d = all_pairs_distances(g)
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if d(u, v) <= p]
    return Graph(g.n, edges, name=f"{g.name}^{p}" if g.name else "")


def _data_lines(text: str) -> list[str]:
    """The stripped lines of an input file, blank lines and `#` comments
    dropped."""
    lines = [ln.strip() for ln in text.splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def read_graph(text: str) -> Graph:
    """Parse the text format: first line `n m`, then m lines `u v`.

    Lines starting with `#` are comments.
    """
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise ParseError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    # a connected graph has n >= 1 and at least n - 1 edges; checked before
    # `Graph` allocates n adjacency sets, so a huge n in the header is cheap
    if n < 1 or m < n - 1:
        raise Disconnected("graph is not connected")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_graph(g: Graph) -> str:
    """Serialize in the text format with lexicographically sorted edges."""
    edges = sorted(g.edges())
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
