"""Immutable simple connected graphs with precomputed hop distances."""

from __future__ import annotations

import sys
from array import array
from functools import cached_property
from typing import Iterable, Sequence

from .errors import Disconnected, LoopEdge, ParseError


class Graph:
    """A simple undirected connected graph on vertices 0..n-1.

    Adjacency is stored as sorted neighbor lists, plus neighbor sets for
    O(1) membership tests that are built on first read.  dist0 is the
    `bfs` row of vertex 0, which the connectivity check reads, and from
    which the table takes ecc(0) and the bipartite test its 2-colouring.
    Instances are immutable after construction.
    """

    __slots__ = ("n", "adj", "name", "dist0", "__dict__")

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
        if n < 1 or -1 in (dist0 := bfs(self, 0)):
            raise Disconnected("graph is not connected")
        self.dist0 = dist0

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
    """All-pairs hop distances, built by `all_pairs_distances`.

    Row u is a sequence of ints, d[u][v] = d(u, v).  On a graph whose
    distances fit in a byte the rows are the `bytes` read off
    `_lane_distances`, n bytes a row; otherwise they are lists from one
    `bfs` per source, whose rows share one int object per distance.
    `array` gives the table to numpy."""

    __slots__ = ("d", "n", "_diameter")

    def __init__(self, d: list[bytes] | list[list[int]]):
        self.d = d
        self.n = len(d)
        self._diameter = None

    @property
    def diameter(self) -> int:
        """The largest distance, found on first read: most readers of the
        table never ask for it, and the scan reads all n^2 entries."""
        if self._diameter is None:
            self._diameter = max(map(max, self.d), default=0)
        return self._diameter

    def __call__(self, u: int, v: int) -> int:
        return self.d[u][v]

    def __getitem__(self, u: int) -> bytes | list[int]:
        return self.d[u]

    def array(self, dtype):
        """The table as a new n x n numpy array of dtype.  Byte rows are
        read as one buffer (`np.frombuffer`), with no int object made per
        entry.  numpy is imported here, so a program that never calls
        this does not load it."""
        import numpy as np
        if isinstance(self.d[0], bytes):
            table = np.frombuffer(b"".join(self.d), np.uint8).reshape(self.n, self.n)
            return table.astype(dtype)
        return np.array(self.d, dtype=dtype)


def _lane_distances(g: Graph, levels: int) -> list[int]:
    """Every row of the distance table at once, in byte lanes.

    A set of vertices is a Python int with vertex x in the 8-bit lane x,
    that is, bit 8x.  The ball B_k(s) = {x : d(s, x) <= k} of every
    source s grows one level per pass, bottom-up, in deg(s) ORs:

        B_k(s) = B_{k-1}(s) | OR of B_{k-1}(y) over y in N(s).

    A shortest path from s to an x with d(s, x) = k >= 1 starts with some
    y in N(s), and d(y, x) = k - 1; and d(s, x) <= 1 + d(y, x) for every y
    in N(s): so the union holds exactly the x with d(s, x) <= k.  Each pass
    reads the balls of the previous level and writes the new ones apart, so
    no source reads a neighbour's ball of the level it is building.

    The row of s counts, in lane x, the levels k < ecc(s) whose ball has
    not reached x, which is d(s, x): the sum of full ^ B_k(s) over those k,
    where full holds a 1 in every lane.  As B_k(s) is a subset of full, that
    sum is ecc(s) * full - (B_0(s) + ... + B_{ecc(s)-1}(s)): acc[s] adds
    one ball a level, and takes the difference when s retires, at the level
    where its ball is full.  Every lane of either term is at most ecc(s) <=
    diam <= 2 ecc(0) <= 255, the caller's condition, so no lane carries into
    the next or borrows from it.  The passes stop after `levels` = 2 ecc(0)
    levels at most, so no count can pass that bound either.  The balls are
    freed on return, and the caller reads row s off the bytes of acc[s]."""
    n, adj = g.n, g.adj
    ball = [1 << (x << 3) for x in range(n)]
    full = int.from_bytes(b"\x01" * n, "little")
    acc = [0] * n
    active = range(n)
    for k in range(1, levels + 1):
        if not active:
            break
        grown = ball[:]
        still = []
        for s in active:
            b = ball[s]
            for y in adj[s]:
                b |= ball[y]
            grown[s] = b
            if b == full:
                acc[s] = k * full - acc[s] - ball[s]
            else:
                acc[s] += ball[s]
                still.append(s)
        active = still
        ball = grown
    return acc


def packed_row(row: bytes | Sequence[int], size: int) -> int:
    """The values of row as one int, value i in the size-byte field i, that
    is, the sum of row[i] 2^(8 size i).  Each value must fit in
    min(size, 8) bytes.  A byte row is read as its values, one a byte: an
    `array` of any code but 'B' made from a `bytes` row would read its raw
    bytes as wider values.  A list row goes through the `array` of its
    field size, up to 8 bytes.  Wider fields are filled by slice
    assignment, byte j of every value to byte j of its field."""
    if isinstance(row, bytes):
        raw, step = row, 1
    else:
        step = min(size, 8)
        items = array(_FIELD_CODES[step], row)
        if sys.byteorder == "big":
            items.byteswap()
        raw = items.tobytes()
    if step == size:
        return int.from_bytes(raw, "little")
    fields = bytearray(size * len(row))
    for j in range(step):
        fields[j::size] = raw[j::step]
    return int.from_bytes(fields, "little")


_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}     # `array` code of each field size


def bfs(g: Graph, source: int, levels: Sequence[int] | None = None) -> list[int]:
    """Hop distances from source; -1 marks a vertex it does not reach.

    One source walks the adjacency lists, in O(n + m) time and memory.
    The distance k is stored as levels[k], range(n + 1) if none is given,
    so rows that share levels share their int objects: CPython caches only
    the ints up to 256, and each distinct int takes 32 bytes besides the
    row's 8-byte pointer to it."""
    adj = g.adj
    if levels is None:
        levels = range(g.n + 1)
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    k = 0
    while frontier:
        k += 1
        level = levels[k]
        reach = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = level
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
    """The distance table.  The diameter is at most 2 ecc(0), read off
    `g.dist0`: when that fits in a byte lane, `_lane_distances` grows every
    source's ball at once, each from its neighbours' balls of the level
    before, and row s is kept as the n bytes of its lanes; otherwise row s
    is `bfs(g, s)`, every row taking distance k from one shared list of
    level ints."""
    reach = 2 * max(g.dist0)
    if reach < 256:
        # the lanes are freed as the rows are built
        lanes = _lane_distances(g, reach)
        lanes.reverse()
        return DistMatrix([lanes.pop().to_bytes(g.n, "little") for _ in range(g.n)])
    levels = list(range(g.n + 1))
    return DistMatrix([bfs(g, s, levels) for s in range(g.n)])


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
    return [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]


def read_graph(text: str) -> Graph:
    """Parse the text format: first line `n m`, then m lines `u v`.

    Lines starting with `#` are comments.  The edge lines are read in one
    pass: the lines are joined with a `;` token after each and split once,
    and the ends are every third token from the fourth and from the fifth.
    When there are 3(m + 1) tokens and every end is an int, the m + 1 `;`
    tokens can only sit at every third place, so every line holds two
    ints.  The list of lines is dropped before the ends are read, and the
    graph is built from the two lists of ends, with no list of edge
    tuples.  A file that fails is read again line by line for the message
    of its first bad edge line.
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
    lines.append("")
    tokens = " ; ".join(lines).split()      # n m ; u v ; ... u v ;
    del lines
    try:
        if len(tokens) != 3 * (m + 1):
            raise ValueError("an edge line does not hold two tokens")
        us, vs = list(map(int, tokens[3::3])), list(map(int, tokens[4::3]))
    except ValueError:
        for ln in _data_lines(text)[1:]:
            try:
                u, v = map(int, ln.split())
            except ValueError as exc:
                raise ParseError(f"bad edge line {ln!r}") from exc
        raise
    del tokens
    try:
        return build_graph(n, zip(us, vs))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def write_graph(g: Graph) -> str:
    """Serialize in the text format with lexicographically sorted edges."""
    edges = sorted(g.edges())
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
