"""End-to-end acceptance checks.

Each test prints a single CRITERION <n>: PASS/FAIL line so the suite output
doubles as a checklist.  All arithmetic is exact rational; no tolerances.
"""
import random
from fractions import Fraction

import networkx as nx
import pytest

from medgraph.benzenoid import (BenzenoidSpec, benzenoid, incomplete_hexagons,
                                verify_isometric_embedding)
from medgraph.families import (beta_configuration, cartesian_product,
                               complete_graph, cycle_graph, gated_amalgam,
                               halved_cube, hypercube, johnson,
                               projective_incidence_graph)
from medgraph.graph import all_pairs_distances, build_graph, power_graph
from medgraph.lp import (compute_p, disconnecting_profile,
                         has_Gp_connected_medians, witness_to_profile)
from medgraph.medians import (Profile, VertexFunction, is_p_connected,
                              is_p_isometric, is_p_weakly_peakless,
                              is_unimodal_on_power, level_set,
                              local_median_set_p, median_set, median_value)
from medgraph.metric import is_gated_set
from medgraph.oracle import brute_force_oracle
from medgraph.recognizers import (has_convex_balls, is_bridged, is_chordal,
                                  is_meshed, is_thick, satisfies_PC)
from reference import is_p_weakly_peakless_full, solve_pair


@pytest.fixture
def mark(capsys):
    def _mark(n, ok):
        with capsys.disabled():
            print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'}")
        assert ok
    return _mark


def _from_nx(h):
    nodes = sorted(h.nodes())
    idx = {v: i for i, v in enumerate(nodes)}
    return build_graph(len(nodes), [(idx[a], idx[b]) for a, b in h.edges()])


def test_criterion_1_cycle_median_pairs(mark):
    ok = True
    for k, m in ((2, 2), (2, 3), (3, 2), (3, 4), (3, 5)):
        g = cycle_graph(2 * k + m)
        d = all_pairs_distances(g)
        u, v = 0, m
        x = (-k) % g.n
        ok = ok and d(u, x) == k and d(v, x) == k
        pi = Profile({u: k + 1, v: k + 1, x: 1})
        ok = ok and median_set(g, d, pi) == {u, v}
        # the split pair is m apart, so medians are not (m-1)-connected
        ok = ok and not is_p_connected(g, d, {u, v}, m - 1)
    mark(1, ok)


def test_criterion_2_seven_cycle_p_value(mark):
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    mark(2, compute_p(g, d).p == 3 and d.diameter == 3)


def test_criterion_3_projective_incidence_graph(mark):
    g = projective_incidence_graph(2)
    d = all_pairs_distances(g)
    u, v = g.n - 2, g.n - 1
    pi = Profile({z: 1 for z in range(g.n)})
    vals = [median_value(g, d, pi, z) for z in range(g.n)]
    q = 2
    ok = vals[u] == vals[v] == 3 * q * q + 3 * q + 6 == 24
    ok = ok and all(vals[z] == 5 * q * q + 3 * q + 4 == 30
                    for z in range(g.n) if z not in (u, v))
    ok = ok and median_set(g, d, pi) == {u, v} and d(u, v) == 3
    ok = ok and compute_p(g, d).p >= 3
    mark(3, ok)


def test_criterion_4_median_graphs_have_p_1(mark):
    ok = True
    for t in nx.nonisomorphic_trees(2):
        pass  # warm-up; generator exists
    for n in range(2, 9):
        for t in nx.nonisomorphic_trees(n):
            g = _from_nx(t)
            ok = ok and compute_p(g, all_pairs_distances(g)).p == 1
    rng = random.Random(4)
    for n in (9, 10):
        for _ in range(10):
            t = nx.random_labeled_tree(n, seed=rng.randrange(10**9))
            g = _from_nx(t)
            ok = ok and compute_p(g, all_pairs_distances(g)).p == 1
    for n in (2, 3, 4):
        g, _ = hypercube(n)
        ok = ok and compute_p(g, all_pairs_distances(g)).p == 1
    mark(4, ok)


def _random_ktree(rng, n, k):
    h = nx.complete_graph(k + 1)
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        # growing along existing k-cliques keeps the graph chordal
        base = list(rng.choice(cliques))
        rng.shuffle(base)
        clique = base[:k]
        h.add_edges_from((v, c) for c in clique)
        for dropped in clique:
            cliques.append(tuple(sorted(set(clique) - {dropped}) + [v]))
    return _from_nx(h)


def _random_interval_graph(rng, n):
    ivs = [(a := rng.uniform(0, 10), a + rng.uniform(0.5, 4)) for _ in range(n)]
    h = nx.Graph()
    h.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]:
                h.add_edge(i, j)
    if not nx.is_connected(h):
        return None
    return _from_nx(h)


def test_criterion_5_chordal_and_cb_bound(mark):
    rng = random.Random(5)
    chordal_corpus = []
    for _ in range(8):
        chordal_corpus.append(_random_ktree(rng, rng.randint(6, 10),
                                            rng.randint(1, 3)))
    while sum(1 for _ in chordal_corpus) < 16:
        g = _random_interval_graph(rng, rng.randint(5, 9))
        if g is not None and is_chordal(g):
            chordal_corpus.append(g)
    beta = beta_configuration()
    chordal_corpus.append(beta)
    for moved in ((5,), (5, 6), (5, 6, 7)):
        # the beta configuration with tails a, b, c = 5, 6, 7 moved from
        # u = 0 to v = 1
        chordal_corpus.append(build_graph(8, [
            (1, y) if x == 0 and y in moved else (x, y)
            for x, y in beta.edges()]))
    ok = len(chordal_corpus) >= 20
    for g in chordal_corpus:
        d = all_pairs_distances(g)
        ok = ok and bool(is_chordal(g)) and compute_p(g, d).p <= 2

    # convex-ball graphs built around pentagons, none of them bridged
    c5 = cycle_graph(5)
    candidates = [
        c5,
        build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]),
        build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (0, 5), (5, 6), (6, 7), (7, 8), (8, 0)]),
        build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (2, 5), (5, 6), (6, 7)]),
        build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (0, 5), (2, 6)]),
        build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (0, 5), (5, 6)]),
        build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                        (0, 5), (0, 6), (6, 7)]),
    ]
    cb_corpus = []
    for g in candidates:
        d = all_pairs_distances(g)
        if has_convex_balls(g, d) and not is_bridged(g, d):
            cb_corpus.append((g, d))
    ok = ok and len(cb_corpus) >= 5
    for g, d in cb_corpus:
        ok = ok and compute_p(g, d).p <= 2
    mark(5, ok)


def test_criterion_6_beta_configuration_phenomena(mark):
    g = beta_configuration()
    d = all_pairs_distances(g)
    pi = Profile({5: 1, 6: 1, 7: 1, 1: 1})      # tails a, b, c plus v
    med = median_set(g, d, pi)
    loc = local_median_set_p(g, d, pi, 1)
    ok = loc != med
    ok = ok and compute_p(g, d).p == 2
    mark(6, ok)


def test_criterion_7_products_and_amalgams(mark):
    c7k2 = cartesian_product(cycle_graph(7), complete_graph(2))
    ok = compute_p(c7k2, all_pairs_distances(c7k2)).p == 3
    c6c6 = cartesian_product(cycle_graph(6), cycle_graph(6))
    ok = ok and compute_p(c6c6, all_pairs_distances(c6c6)).p == 2
    glued = gated_amalgam(cycle_graph(6), cycle_graph(6),
                          {0: 0, 1: 1}, {0: 0, 1: 1})
    ok = ok and compute_p(glued, all_pairs_distances(glued)).p == 2
    mark(7, ok)


def test_criterion_8_johnson_and_halved_cubes(mark):
    ok = True
    for n, k in ((4, 2), (5, 2)):
        g, _ = johnson(n, k)
        d = all_pairs_distances(g)
        ok = ok and bool(is_meshed(g, d)) and compute_p(g, d).p == 1
    for n in (4, 5):
        g, _ = halved_cube(n)
        d = all_pairs_distances(g)
        ok = ok and bool(is_thick(g, d)) and bool(satisfies_PC(g, d))
        ok = ok and compute_p(g, d).p == 1
    for n in range(3, 7):
        hq, _ = halved_cube(n)
        sq = power_graph(hypercube(n - 1)[0], 2)
        hx = nx.Graph(hq.edges()); hx.add_nodes_from(range(hq.n))
        sx = nx.Graph(sq.edges()); sx.add_nodes_from(range(sq.n))
        ok = ok and nx.is_isomorphic(hx, sx)
    mark(8, ok)


def test_criterion_9_benzenoids(mark):
    specs = [
        {(0, 0)},
        {(0, 0), (1, 0)},
        {(0, 0), (1, 0), (2, 0)},
        {(0, 0), (1, 0), (1, 1), (2, 1)},       # bent 4-chain
    ]
    ok = True
    for cells in specs:
        bg = benzenoid(BenzenoidSpec(frozenset(cells)))
        d = all_pairs_distances(bg.graph)
        ok = ok and verify_isometric_embedding(bg)
        for hexagon in bg.hexagons:
            gated, _ = is_gated_set(bg.graph, d, set(hexagon))
            ok = ok and gated
        for path in incomplete_hexagons(bg):
            gated, _ = is_gated_set(bg.graph, d, set(path))
            ok = ok and gated
        ok = ok and compute_p(bg.graph, d).p <= 2
    mark(9, ok)


def _connected_atlas_graphs(max_n=7):
    from networkx.generators.atlas import graph_atlas_g
    for h in graph_atlas_g():
        if 2 <= h.number_of_nodes() <= max_n and nx.is_connected(h):
            yield _from_nx(h)


def test_criterion_10_lp_oracle_equivalence(mark):
    ok = True
    for g in _connected_atlas_graphs(7):
        d = all_pairs_distances(g)
        for p in (1, 2):
            lp_ok = has_Gp_connected_medians(g, d, p)
            found = brute_force_oracle(g, d, p, 2)
            if found is not None and lp_ok:
                ok = False
            if not lp_ok:
                # rebuild the failing pair and verify the explicit profile
                rep_ok = False
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        if not (p + 1 <= d(u, v) <= 2 * p):
                            continue
                        res = solve_pair(g, d, u, v)
                        if not res.feasible:
                            continue
                        base = witness_to_profile(res.witness)
                        pi = disconnecting_profile(g, d, u, v, base)
                        med = median_set(g, d, pi)
                        if med == {u, v} and not is_p_connected(g, d, med, p):
                            rep_ok = True
                ok = ok and rep_ok
    mark(10, ok)


def test_criterion_11_local_to_global(mark):
    rng = random.Random(11)
    checked = 0
    ok = True
    while checked < 500:
        n = rng.randint(4, 9)
        h = nx.gnp_random_graph(n, rng.uniform(0.25, 0.7),
                                seed=rng.randrange(10**9))
        if not nx.is_connected(h):
            continue
        g = _from_nx(h)
        d = all_pairs_distances(g)
        f = VertexFunction([Fraction(rng.randint(0, 7), rng.randint(1, 3))
                            for _ in range(g.n)])
        p = rng.choice((1, 2))
        band = is_p_weakly_peakless(g, d, f, p)
        full = is_p_weakly_peakless_full(g, d, f, p)
        ok = ok and band == full
        if band:
            ok = ok and is_unimodal_on_power(g, d, f, p)
            for t in sorted(set(f.values)):
                ok = ok and is_p_isometric(g, d, level_set(f, t), p)
        checked += 1
    mark(11, ok)
