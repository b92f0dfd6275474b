"""End-to-end acceptance checks.

Each test prints a single CRITERION <n>: PASS/FAIL line so the suite output
doubles as a checklist.  All arithmetic is exact rational; no tolerances.
Criteria 1-3 and 5-9 run the entries of `medgraph.cli._PAPER`, the list
`verify-paper` runs, and add the corpora that need networkx or a seed.
"""
import random
from fractions import Fraction

import networkx as nx
import pytest

from medgraph import cli
from medgraph.families import halved_cube, hypercube
from medgraph.graph import all_pairs_distances, power_graph
from medgraph.lp import compute_p, disconnecting_profile, has_Gp_connected_medians
from medgraph.medians import (VertexFunction, is_p_connected, is_p_isometric,
                              is_p_weakly_peakless, is_unimodal_on_power,
                              level_set, median_set)
from medgraph.oracle import brute_force_oracle
from medgraph.recognizers import is_chordal
from reference import (_connected_atlas_graphs, _from_nx, _to_nx,
                       is_p_weakly_peakless_full, solve_pair)


@pytest.fixture
def mark(capsys):
    def _mark(n, ok):
        with capsys.disabled():
            print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'}")
        assert ok
    return _mark


def _holds(*entries):
    """Every check of these check functions of `cli._PAPER` passes."""
    assert set(entries) <= {fn for _, _, fn in cli._PAPER}
    return all(passed for fn in entries for _, passed in fn())


def test_criterion_1_cycle_median_pairs(mark):
    mark(1, _holds(cli._cycle_median_pairs))


def test_criterion_2_seven_cycle_p_value(mark):
    mark(2, _holds(cli._seven_cycle))


def test_criterion_3_projective_incidence_graph(mark):
    mark(3, _holds(cli._fano_plane))


def test_criterion_4_median_graphs_have_p_1(mark):
    ok = True
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
    # 26 draws give the 8 interval graphs; a bound on the draws makes a
    # recognizer that rejects them fail here rather than loop
    for _ in range(64):
        g = _random_interval_graph(rng, rng.randint(5, 9))
        if g is not None and is_chordal(g):
            chordal_corpus.append(g)
            if len(chordal_corpus) == 16:
                break
    assert len(chordal_corpus) == 16
    ok = _holds(cli._chordal_examples, cli._convex_ball_examples)
    for g in chordal_corpus:
        d = all_pairs_distances(g)
        ok = ok and bool(is_chordal(g)) and compute_p(g, d).p <= 2
    mark(5, ok)


def test_criterion_6_beta_configuration_phenomena(mark):
    mark(6, _holds(cli._beta_medians))


def test_criterion_7_products_and_amalgams(mark):
    mark(7, _holds(cli._products_and_amalgams))


def test_criterion_8_johnson_and_halved_cubes(mark):
    ok = _holds(cli._johnson_examples, cli._halved_cube_examples)
    for n in range(3, 7):
        hq, _ = halved_cube(n)
        sq = power_graph(hypercube(n - 1)[0], 2)
        ok = ok and nx.is_isomorphic(_to_nx(hq), _to_nx(sq))
    mark(8, ok)


def test_criterion_9_benzenoids(mark):
    mark(9, _holds(cli._benzenoid_examples))


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
                        pi = disconnecting_profile(g, d, u, v, res.witness)
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
