"""Vertex orbits under automorphisms found by individualization and
refinement (McKay & Piperno 2014, "Practical graph isomorphism, II",
J. Symbolic Comput. 60).

`automorphisms` looks for permutations of the vertices that map edges to
edges.  Each one is checked on every edge before it is kept, so a search
that stops early or a refinement too weak to tell two vertices apart costs
time, never a wrong permutation.  The union-find of O(n) that the search
keeps to skip the vertices already in an orbit names each vertex orbit of
the group they generate by its least vertex, and is returned with them.

An ordered partition of the vertices is a list of cells.  It is refined by
a key on the vertices: each cell splits into the runs of equal key, in
increasing key order, and the trace records the key and size of each part.
Two ordered partitions that go through the same refinements with equal
traces stay matched cell by cell.  The keys are the distance rows alone:
when a vertex is alone in its cell, every cell splits by the distance to
it.  On the paper's families distance rows reach a discrete partition in
a few levels.  The rows of the singletons a row makes count:
on the projective planes G_q any two points are at distance 2, so the rows
of the points split no cell of points, but the line through two
individualized points is alone in its cell, and its row splits off the
points on it.

The initial partition groups the vertices by transmission r(w) and
degree.  For each of its cells in order, the first vertex rho is the
root, and for each later vertex b of the cell not yet in rho's orbit a
depth-first search looks for an automorphism rho -> b: rho is
individualized on one side and b on the other, then both sides take the
first of their largest cells, and one side individualizes its first vertex
x while the other tries each vertex y of the matched cell.  A refinement
whose trace differs from the first side's ends the branch.  On G_q the
first cell of two or more vertices holds the lines through rho, and a
wrong choice among them lives on until the partition is discrete: taken
first, it left G_7 and G_11, relabelled, with no automorphism within the
budget, where the largest cell, the points, finds both orbits.  A
discrete pair of partitions is the permutation that maps each cell of the
first side onto its match; it is kept when it maps the neighbours of every
vertex onto the neighbours of its image.  A cell is given up at its first
failed search, and all searches of one graph share a budget of
_WORK_PER_VERTEX * n^2 work units: a graph that asks for more keeps the
automorphisms found so far, and their orbits.  A unit is one step of the
search: a cell passed or a vertex keyed by a distance row in a
refinement, and each of the 2m adjacency entries that a leaf's edge check
reads.  So the budget bounds the time:
a unit took 90-350 ns on every graph measured, the families and the
Latin square graphs SRG(k^2, 3(k-1), k, 6) of random squares alike, and
a search that spends the whole budget on the one of 64 vertices takes
13 ms.  The families of the paper spend at most 7.6 n^2 units (1/2 H_6
as labelled; 1/2 H_5 5.9 n^2) and at most 5.2 n^2 on every other one,
relabelled or not; the complete multipartite graphs K_8,8, K_3,5 and
K_4,4,4 spend 6.8-9.1 n^2, and K_6,10 15.6 n^2, near the budget.  The
Latin square graphs, where the search finds no automorphism and
backtracks through the matched cells, asked for 10-450 n^2 on squares of
order 5 to 8.
"""

from __future__ import annotations

from .graph import DistMatrix, Graph

_WORK_PER_VERTEX = 16         # the search's budget, n^2 times this: see the module docstring


class _OutOfWork(Exception):
    """The search's budget of work units is spent."""


def automorphisms(g: Graph, d: DistMatrix, r) -> tuple[list[list[int]], list[int]]:
    """(gens, root): automorphisms of g, each a list sigma with sigma[x]
    the image of x and each checked on every edge, and root[x], the least
    vertex of x's orbit under the group they generate; r holds the
    transmissions.  See the module docstring.

    A partition is kept as (cells, fixed): its cells of two or more
    vertices, in order, and its singletons in the order they were made, so
    that a refinement passes over the open cells only.  The singletons of
    two matched partitions are matched in that order."""
    n, adj, rows = g.n, g.adj, d.d
    edges = sum(map(len, adj))
    work = [_WORK_PER_VERTEX * n * n]

    def refine(cells, fixed, i):
        """(cells, fixed, trace): cells refined by the distance row of each
        vertex of fixed from index i on, the singletons this makes joining
        fixed."""
        trace = []
        while cells and i < len(fixed):
            trace.append(None)      # one marker per row: which row made each split
            parts = _split(cells, rows[fixed[i]].__getitem__, trace, work)
            i += 1
            if parts is not None:
                cells, singles = parts
                fixed += singles
        return cells, fixed, trace

    def individualize(cells, fixed, c, x):
        """The partition with x made a singleton ahead of the rest of cell
        c, refined."""
        rest = [z for z in cells[c] if z != x]
        if len(rest) == 1:
            return refine(cells[:c] + cells[c + 1:], fixed + [x, *rest], len(fixed))
        return refine(cells[:c] + [rest] + cells[c + 1:], fixed + [x], len(fixed))

    def search(start, c, b, chain):
        """An automorphism that maps the first vertex of cell c of start to
        b, or None.  chain[t] is the first side's partition and trace after
        t + 1 individualizations, extended as the search reaches it."""
        def level(t):
            while len(chain) <= t:
                cells, fixed = chain[-1][:2] if chain else start
                k = _target(cells) if chain else c
                chain.append(individualize(cells, fixed, k, cells[k][0]))
            return chain[t]

        *matched, trace = individualize(*start, c, b)
        if trace != level(0)[2]:
            return None
        stack, t = [], 0
        while True:
            cells, fixed, _ = level(t)
            if not cells:
                sigma = [0] * n
                for x, y in zip(fixed, matched[1]):
                    sigma[x] = y
                work[0] -= edges
                if all(set(map(sigma.__getitem__, adj[x])) == g.adj_sets[sigma[x]]
                       for x in range(n)):
                    return sigma
            else:
                k = _target(cells)
                stack.append((t, matched, k, iter(matched[0][k])))
            while stack:
                t, base, k, candidates = stack[-1]
                y = next(candidates, None)
                if y is None:
                    stack.pop()
                    continue
                *matched, trace = individualize(*base, k, y)
                if trace == level(t + 1)[2]:
                    t += 1
                    break
            else:
                return None

    cells = {}
    for w, key in enumerate(zip(r, map(len, adj))):
        cells.setdefault(key, []).append(w)
    cells = [cells[key] for key in sorted(cells)]
    gens, root = [], list(range(n))
    try:
        fixed = [cell[0] for cell in cells if len(cell) == 1]
        start = refine([cell for cell in cells if len(cell) > 1], fixed, 0)[:2]
        for c, cell in enumerate(start[0]):
            chain = []
            for b in cell[1:]:
                if _find(root, b) == _find(root, cell[0]):
                    continue
                sigma = search(start, c, b, chain)
                if sigma is None:
                    break
                gens.append(sigma)
                _merge(root, sigma)
    except _OutOfWork:
        pass
    return gens, [_find(root, x) for x in range(n)]


def _target(cells) -> int:
    """The index of the first of the largest cells."""
    sizes = list(map(len, cells))
    return sizes.index(max(sizes))


def _split(cells, key, trace, work):
    """(cells, singletons): each cell split into its runs of equal key, in
    increasing key order, the key and size of each part appended to trace;
    the parts of two or more vertices in order, and the singletons in
    order.  None when no cell splits.  Each cell passed and each vertex
    read costs a unit of work."""
    out, singles = [], []
    changed = False
    work[0] -= len(cells)
    for cell in cells:
        work[0] -= len(cell)
        values = list(map(key, cell))
        if values.count(values[0]) == len(values):
            out.append(cell)
            continue
        parts = {}
        for z, value in zip(cell, values):
            parts.setdefault(value, []).append(z)
        for value in sorted(parts):
            part = parts[value]
            trace.append((value, len(part)))
            if len(part) == 1:
                singles.append(part[0])
            else:
                out.append(part)
        changed = True
    if work[0] < 0:
        raise _OutOfWork
    return (out, singles) if changed else None


def _find(root: list[int], x: int) -> int:
    """The name of x's class in the union-find root, its least vertex."""
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def _merge(root: list[int], sigma: list[int]) -> None:
    """Merge the class of each x with that of sigma[x] in the union-find
    root, naming each merged class by its least vertex."""
    for x, y in enumerate(sigma):
        a, b = _find(root, x), _find(root, y)
        if a != b:
            root[max(a, b)] = min(a, b)
