import itertools
import operator
import random

import networkx as nx
import pytest

import medgraph.lp as lp
from medgraph import symmetry
from medgraph.benzenoid import BenzenoidSpec, benzenoid
from medgraph.families import (cartesian_product, cycle_graph, halved_cube,
                               johnson, path_graph, projective_incidence_graph)
from medgraph.graph import all_pairs_distances, build_graph
from reference import (_connected_atlas_graphs, _corpus, _pool_graphs,
                       _relabelled, orbits_off)


def _roots(g):
    """The least vertex of each vertex's orbit under the automorphisms that
    the search finds on g."""
    d = all_pairs_distances(g)
    return symmetry.automorphisms(g, d, [sum(row) for row in d.d])[1]


def _is_automorphism(g, sigma):
    """sigma is a permutation of the vertices that maps every edge onto an
    edge, tested on the sorted edge lists."""
    return sorted(sigma) == list(range(g.n)) and \
        sorted(tuple(sorted((sigma[a], sigma[b]))) for a, b in g.edges()) == sorted(g.edges())


_CORONENE = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


@pytest.mark.parametrize("graph, count", [
    (lambda: cycle_graph(21), 1),
    (lambda: projective_incidence_graph(3), 2),
    (lambda: projective_incidence_graph(5), 2),
    (lambda: projective_incidence_graph(7), 2),
    (lambda: projective_incidence_graph(11), 2),
    (lambda: cartesian_product(path_graph(5), cycle_graph(5)), 3),
    (lambda: benzenoid(BenzenoidSpec(frozenset(_CORONENE))).graph, 3),
    (lambda: halved_cube(6)[0], 1),
    (lambda: johnson(7, 3)[0], 1),
    (lambda: cartesian_product(cycle_graph(16), cycle_graph(16)), 1),
], ids=["C_21", "G_3", "G_5", "G_7", "G_11", "P_5xC_5", "coronene", "halfH_6",
        "J(7,3)", "C_16xC_16"])
def test_the_search_finds_the_vertex_orbits_of_the_families(graph, count):
    """The vertex orbits of the paper's families, as labelled and
    relabelled: the cycles, the tori, the half-cubes and the Johnson graphs
    are vertex-transitive; G_q has the points and lines, swapped by the
    duality of the plane, and its two added vertices; P_5 x C_5 and
    coronene have three.  On G_q the rows of the points tell no two points
    apart, and the search needs the rows of the lines that the points it
    individualizes make singletons."""
    g = graph()
    for h in (g, _relabelled(g, 13)):
        roots = _roots(h)
        assert sum(x == rho for x, rho in enumerate(roots)) == count


def test_the_roots_name_each_orbit_by_its_least_vertex():
    """The search's union-find names each class by its least vertex under
    the group that the permutations generate, not only under each one: on
    12 points, (0 5)(1 2) and (5 9)(2 3 4) join {0, 5, 9} and {1, 2, 3, 4}.
    On the corpus, relabelled too, the roots returned are the least vertex
    of each orbit of the automorphisms returned, found by closing each
    vertex under them."""
    a = list(range(12))
    a[0], a[5], a[1], a[2] = 5, 0, 2, 1
    b = list(range(12))
    b[5], b[9], b[2], b[3], b[4] = 9, 5, 3, 4, 2
    root = list(range(12))
    for sigma in (a, b):
        symmetry._merge(root, sigma)
    assert [symmetry._find(root, x) for x in range(12)] == [0, 1, 1, 1, 1, 0, 6, 7, 8, 0, 10, 11]
    for g in (h for g in _corpus() for h in (g, _relabelled(g, 5))):
        d = all_pairs_distances(g)
        gens, roots = symmetry.automorphisms(g, d, [sum(row) for row in d.d])
        for x in range(g.n):
            orbit, todo = {x}, [x]
            while todo:
                y = todo.pop()
                todo += [sigma[y] for sigma in gens if sigma[y] not in orbit]
                orbit.update(todo)
            assert roots[x] == min(orbit), (g.name, x)


def test_every_automorphism_found_maps_edges_onto_edges():
    """Each permutation the search returns is an automorphism, on the
    connected atlas graphs of up to 7 vertices and on seeded random
    3- and 4-regular graphs, where refinement often matches two vertices
    that no automorphism maps onto each other.  On the graph below, 1 and
    2 have the same transmission and degree and individualizing either
    splits the rest alike, yet the two lie in different orbits: a search
    that kept its permutations unchecked merges them."""
    graphs = [*_connected_atlas_graphs(7)]
    rng = random.Random(3)
    while len(graphs) < 995 + 60:
        n, k = rng.choice([(8, 3), (10, 3), (12, 3), (8, 4), (10, 4), (12, 4)])
        h = nx.random_regular_graph(k, n, seed=rng.randrange(10**9))
        if nx.is_connected(h):
            graphs.append(build_graph(n, list(h.edges())))
    searched = 0
    for g in graphs:
        d = all_pairs_distances(g)
        gens, _ = symmetry.automorphisms(g, d, [sum(row) for row in d.d])
        assert all(_is_automorphism(g, sigma) for sigma in gens), g.edges()
        searched += bool(gens)
    assert searched > 500, searched
    g = build_graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5),
                        (2, 4), (2, 6), (4, 6)])
    every = [sigma for sigma in itertools.permutations(range(7)) if _is_automorphism(g, sigma)]
    roots = _roots(g)
    assert roots == [min(sigma[x] for sigma in every) for x in range(7)]
    d = all_pairs_distances(g)
    assert (sum(d[1]), len(g.adj[1])) == (sum(d[2]), len(g.adj[2]))
    assert roots[2] != roots[1]


def test_a_search_past_its_budget_costs_no_verdict(monkeypatch):
    """With no budget the search finds nothing, the scans read every row,
    and compute_p reports what it reports with the automorphisms; the
    pool's graphs never reach the search."""
    g = cartesian_product(cycle_graph(10), cycle_graph(10))
    d = all_pairs_distances(g)
    want = lp.compute_p(g, d)
    monkeypatch.setattr(symmetry, "_WORK_PER_VERTEX", 0)
    assert symmetry.automorphisms(g, d, [sum(row) for row in d.d]) == ([], list(range(g.n)))
    assert lp.compute_p(g, d) == want
    calls = []
    monkeypatch.setattr(symmetry, "automorphisms", lambda *a: calls.append(a))
    for h in _pool_graphs():
        lp.compute_p(h, all_pairs_distances(h))
    assert not calls


def _latin_square_graph(k, seed):
    """The Latin square graph of a random Latin square of order k: its k^2
    cells, two adjacent when they share their row, their column or their
    symbol, a strongly regular graph SRG(k^2, 3(k-1), k, 6).  The square is
    filled cell by cell, each with a symbol that its row and column lack,
    tried in a seeded random order, backtracking when none is left."""
    rng = random.Random(seed)
    square = {}

    def fill(cell):
        if cell == k * k:
            return True
        i, j = divmod(cell, k)
        used = {square[i, c] for c in range(j)} | {square[r, j] for r in range(i)}
        symbols = [s for s in range(k) if s not in used]
        rng.shuffle(symbols)
        for square[i, j] in symbols:
            if fill(cell + 1):
                return True
        return False

    assert fill(0)
    cells = [(i, j, square[i, j]) for i in range(k) for j in range(k)]
    return build_graph(k * k, [(a, b) for a, b in itertools.combinations(range(k * k), 2)
                               if sum(map(operator.eq, cells[a], cells[b])) == 1])


def test_a_rigid_regular_graph_of_diameter_2_is_decided_no_slower(monkeypatch):
    """On a regular graph of diameter 2 every transmission is 2(n - 1) less
    the degree, so both gates of the search pass once the graph has
    _ORBIT_PAIRS pairs at distance 2.  On the Latin square graphs of random
    squares of order 7 and 8 and on random 20-regular graphs of 50
    vertices the search, given its whole budget, finds no automorphism.
    compute_p stops at the first pair of row 0, which is feasible, and the
    band 3..4 past the diameter holds no pair, so compute_p makes no search
    and takes no longer than with the search off, best of 5 runs each.
    With the whole budget spent, a search took 16 ms on the order 8 graph."""
    import time

    def best(g, d):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            report = lp.compute_p(g, d)
            times.append(time.perf_counter() - start)
        return report, min(times)

    graphs = [_latin_square_graph(7, 1), _latin_square_graph(8, 2)]
    for seed in (1, 2):
        h = nx.random_regular_graph(20, 50, seed=seed)
        graphs.append(build_graph(50, list(h.edges())))
    search = symmetry.automorphisms
    for g in graphs:
        d = all_pairs_distances(g)
        r = [sum(row) for row in d.d]
        assert d.diameter == 2 and len(set(r)) == 1
        assert g.n * (g.n - 1) // 2 - g.num_edges() >= lp._ORBIT_PAIRS
        assert search(g, d, r) == ([], list(range(g.n)))
        calls = []
        with monkeypatch.context() as m:
            m.setattr(symmetry, "automorphisms", lambda *a: calls.append(a) or search(*a))
            on, t_on = best(g, d)
            orbits_off(m)
            off, t_off = best(g, d)
        assert not calls and on == off and on.witness_pair[0] == 0
        assert t_on <= 1.5 * t_off, (g.n, t_on, t_off)
