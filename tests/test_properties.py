"""Randomized cross-checks between independent implementations."""
import itertools
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from medgraph.benzenoid import BenzenoidSpec, benzenoid
from medgraph.families import (alpha_configuration, beta_configuration,
                               cartesian_product, complete_graph,
                               cycle_graph, gated_amalgam, halved_cube,
                               hypercube, johnson, path_graph,
                               projective_incidence_graph)
from medgraph.errors import (BudgetExceeded, Disconnected, NotGated,
                             NotInducedIso)
from medgraph.graph import all_pairs_distances, build_graph, power_graph
from medgraph.lp import (FeasibilityResult, RationalMatrix, _check_result,
                         compute_p, disconnecting_profile,
                         has_Gp_connected_medians, lp_feasible_strict,
                         verify_feasibility_result, witness_to_profile)
from medgraph.metric import (J_set, Jcirc_set, interior_interval, interval,
                             members)
from medgraph.medians import (Profile, VertexFunction, _pairs_in_distance_band,
                              check_WC, check_WP, is_p_connected,
                              is_p_weakly_peakless, is_unimodal_on_power,
                              level_set, local_median_set_p,
                              local_minima_on_power, median_function,
                              median_set, median_value)
from medgraph import lp, oracle, symmetry
from medgraph.oracle import brute_force_oracle
from medgraph.recognizers import (ClassVerdict, _distance_two_pairs,
                                  _mcs_order, _triangle_violations,
                                  detect_alpha_configuration,
                                  detect_beta_configuration, has_convex_balls,
                                  induced_squares, is_bipartite, is_bridged,
                                  is_meshed, is_modular, is_thick,
                                  is_weakly_bridged, is_weakly_modular,
                                  personal_neighbor, satisfies_ICm,
                                  satisfies_INC, satisfies_PC, satisfies_TPC)
from reference import (_assert_agrees_with_per_pair, _connected_atlas_graphs,
                       _corpus, _pool_graphs, _random_connected_graph,
                       _random_connected_graphs, _recognizer_corpus,
                       _ref_oracle, _relabelled, _to_nx, certificate_holds_dense, geodesic_vertices_via_dag,
                       detect_alpha_configuration_by_table,
                       detect_beta_configuration_by_table, interval_masks,
                       is_p_connected_pairwise, local_median_set_plain, presolve_plain,
                       mcs_order_by_scan, median_set_plain, solve_pair,
                       orbits_off)


def _random_profile(rng, n):
    support = rng.sample(range(n), rng.randint(1, n))
    return Profile({v: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                    for v in support})


def test_median_function_consistency():
    rng = random.Random(11)
    for _ in range(30):
        g = _random_connected_graph(rng, rng.randint(4, 9))
        d = all_pairs_distances(g)
        pi = _random_profile(rng, g.n)
        f = median_function(g, d, pi)
        med = median_set(g, d, pi)
        lo = min(f.values)
        assert med == {v for v in range(g.n) if f.values[v] == lo}
        # global medians are always p-local medians
        for p in (1, 2):
            assert med <= local_median_set_p(g, d, pi, p)


def test_median_sets_match_the_fraction_reference():
    """The integer table den*F_pi against F_pi summed in `Fraction`s, on
    random graphs and the atlas, with weights a/b of mixed denominators
    b in 1..6: a table that dropped den, or a p-ball without its distance-p
    sphere, disagrees here."""
    rng = random.Random(31)
    graphs = [_random_connected_graph(rng, rng.randint(4, 16)) for _ in range(40)]
    graphs += _connected_atlas_graphs(7)
    for g in graphs:
        d = all_pairs_distances(g)
        support = rng.sample(range(g.n), rng.randint(1, g.n))
        pi = Profile({v: Fraction(rng.randint(1, 9), rng.randint(1, 6))
                      for v in support})
        f = median_function(g, d, pi)
        assert f.values == [median_value(g, d, pi, x) for x in range(g.n)]
        assert median_set(g, d, pi) == median_set_plain(g, d, pi)
        for p in (1, 2, 3):
            assert (local_median_set_p(g, d, pi, p)
                    == local_median_set_plain(g, d, pi, p)), (g.edges(), pi, p)
    with pytest.raises(ValueError):
        local_median_set_p(g, d, pi, 0)
    with pytest.raises(ValueError):
        local_minima_on_power(g, d, f.values, 0)


def test_p_connectivity_matches_the_pairwise_reference():
    """The walk along adjacency lists (p = 1) and distance rows (p > 1)
    against the search over every pair, on random subsets of random
    graphs and the atlas at p = 0..3: connected and disconnected sets,
    the empty set and single vertices among them."""
    rng = random.Random(28)
    graphs = [_random_connected_graph(rng, rng.randint(4, 16)) for _ in range(60)]
    graphs += _connected_atlas_graphs(7)
    outcomes = Counter()
    for g in graphs:
        d = all_pairs_distances(g)
        for _ in range(3):
            s = set(rng.sample(range(g.n), rng.randint(0, g.n)))
            for p in range(4):
                got = is_p_connected(g, d, s, p)
                assert got == is_p_connected_pairwise(g, d, s, p), (g.edges(), s, p)
                outcomes[got] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000, outcomes


def test_wc_implies_wp():
    rng = random.Random(23)
    g = cycle_graph(9)
    d = all_pairs_distances(g)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 2, g.n)
             if d(u, v) >= 2]
    for _ in range(60):
        f = VertexFunction([Fraction(rng.randint(0, 8)) for _ in range(g.n)])
        for u, v in pairs:
            if check_WC(g, d, f, u, v):
                assert check_WP(g, d, f, u, v)


def test_band_check_equals_full_check():
    rng = random.Random(37)
    for _ in range(40):
        g = _random_connected_graph(rng, rng.randint(4, 8))
        d = all_pairs_distances(g)
        f = VertexFunction([Fraction(rng.randint(0, 6), rng.randint(1, 2))
                            for _ in range(g.n)])
        for p in (1, 2):
            band = is_p_weakly_peakless(g, d, f, p)
            if band:
                # passing functions are unimodal on G^p with p-isometric levels
                assert is_unimodal_on_power(g, d, f, p)
                for t in sorted(set(f.values)):
                    assert is_p_connected(g, d, level_set(f, t), p)


def test_lp_verdicts_match_oracle_on_random_graphs():
    rng = random.Random(41)
    for _ in range(15):
        g = _random_connected_graph(rng, rng.randint(4, 7))
        d = all_pairs_distances(g)
        for p in (1, 2):
            lp_ok = has_Gp_connected_medians(g, d, p)
            found = brute_force_oracle(g, d, p, 2)
            if found is not None:
                assert not lp_ok
            if lp_ok:
                assert found is None


def test_disconnecting_profiles_split_medians():
    rng = random.Random(53)
    built = 0
    while built < 10:
        g = _random_connected_graph(rng, rng.randint(5, 8))
        d = all_pairs_distances(g)
        rep = compute_p(g, d)
        if rep.p == 1:
            continue
        q = rep.p - 1
        failing = 0
        for u, v in _pairs_in_distance_band(d, q + 1, 2 * q):
            res = solve_pair(g, d, u, v)
            if not res.feasible:
                continue
            failing += 1
            assert verify_feasibility_result(g, d, u, v, res)
            pi = disconnecting_profile(g, d, u, v, witness_to_profile(res.witness))
            med = median_set(g, d, pi)
            assert med == {u, v}
            assert not is_p_connected(g, d, med, q)
        assert failing
        built += 1


def test_p_bounded_by_diameter():
    rng = random.Random(61)
    for _ in range(20):
        g = _random_connected_graph(rng, rng.randint(4, 8))
        d = all_pairs_distances(g)
        assert compute_p(g, d).p <= d.diameter


def test_feasible_distances_run_from_two_to_p():
    """On the test corpus, the benchmark's random pool and 40 seeded
    random graphs, the distances of the feasible pairs are exactly
    2, 3, ..., p, and so p = max(F, default=1) for the set F of them.

    This is why no test pins the top 2p of `compute_p`'s level band.  A
    scan of p+1..2p - 1 for p >= 2 gives another p only on a graph whose
    feasible distances skip from p to 2p, with none at p+1..2p - 1; while
    F runs from 2 to its largest distance, the band p+1..2p - 1 holds the
    feasible distance p+1 whenever p+1..2p holds any.  No such graph was
    found: every one of the 1,443 graphs of the corpus, the pool, the
    atlas and 200 seeded random graphs has such an F, and so do 86,554
    seeded G(n,q), tree-plus-edges and cycle-with-chords graphs of 6 to 30
    vertices.  So the mutant that scans p+1..max(2, 2p - 1) survives this
    test; only the order of the solves in
    `test_lp.py::test_compute_p_re_solves_a_witness_pair_decided_by_its_class`
    sees it."""
    graphs = [*_corpus(), *_pool_graphs(), *_random_connected_graphs(40, seed=47)]
    tops = Counter()
    for g in graphs:
        d = all_pairs_distances(g)
        scan, _ = lp._pair_verdicts(g, d)
        feasible = {d(u, v) for u, v, res in scan(2, d.diameter) if res.feasible}
        p = compute_p(g, d).p
        assert feasible == set(range(2, p + 1)), (g.name, p, sorted(feasible))
        tops[p] += 1
    assert len(graphs) == 288 and len(tops) > 3, tops


def test_product_law():
    """p(G□H) = max(p(G), p(H)) on 30 seeded products of connected atlas
    graphs, and on C_n□C_m for n = 5..9 and m = 4..7, where it also equals
    floor((max(n, m) - 1) / 2), the cycle formula p(C_n) = floor((n - 1)/2).

    Proof sketch.  d((a,b),(x,y)) = d(a,x) + d(b,y), so the median function
    of a profile pi of G□H is the sum of those of its marginals pi_G and
    pi_H, and Med(pi) = Med(pi_G) x Med(pi_H).  A product of a
    G^q-connected and an H^q-connected set is (G□H)^q-connected: move one
    coordinate at a time, each step of length at most q.  So p(G□H) is at
    most max(p(G), p(H)).  A profile of G placed on the layer G x {b} has
    pi_H all on b, so its medians lie in that layer, where distances are
    those of G: a median set of G that is not G^q-connected stays one that
    is not (G□H)^q-connected, and p(G□H) >= p(G), and likewise p(H)."""
    def p(g):
        return compute_p(g, all_pairs_distances(g)).p

    atlas = list(_connected_atlas_graphs(7))
    rng = random.Random(2026)
    above_one = 0
    for _ in range(30):
        g, h = rng.choice(atlas), rng.choice(atlas)
        want = max(p(g), p(h))
        assert p(cartesian_product(g, h)) == want, (g.name, h.name)
        above_one += want > 1
    assert above_one == 24
    for n in range(5, 10):
        for m in range(4, 8):
            assert p(cartesian_product(cycle_graph(n), cycle_graph(m))) \
                == max(p(cycle_graph(n)), p(cycle_graph(m))) == (max(n, m) - 1) // 2


def test_gated_amalgam_law_along_an_edge():
    """p of a gated amalgam is the larger p of its parts, on 200 seeded
    amalgams of connected atlas graphs on at most 6 vertices and the cycles
    C_3..C_13, glued along an edge of each (`gated_amalgam`).  The law
    holds along any gated set S, a cut vertex or a gated edge alike
    (ROADMAP, item 3, "p(G) part by part"): each part is convex, so a pair
    of one part has the same interior rows in G, and a column x beyond S
    is the column of its gate g(x), since d(y, x) = d(y, g(x)) + d(g(x), x)
    for every y of the part; and a cross pair u, v, with gates g(u), g(v)
    at distances alpha and beta, has the Farkas certificate
    {g(u): beta, g(v): alpha}, or {g: 1} when the gates agree.  So the
    feasible pairs of G are those of its parts.  A draw whose edge is not
    gated in its host, such as an edge of a triangle or of an odd cycle, is
    drawn again."""
    def p(g):
        return compute_p(g, all_pairs_distances(g)).p

    parts = list(_connected_atlas_graphs(6)) + [cycle_graph(n) for n in range(3, 14)]
    rng = random.Random(207)
    glued = above_one = 0
    while glued < 200:
        g1, g2 = rng.choice(parts), rng.choice(parts)
        e1, e2 = rng.choice(g1.edges()), rng.choice(g2.edges())
        try:
            g = gated_amalgam(g1, g2, dict(enumerate(e1)),
                              dict(enumerate(rng.sample(e2, 2))))
        except (NotGated, NotInducedIso):
            continue
        want = max(p(g1), p(g2))
        assert p(g) == want, (g1.edges(), e1, g2.edges(), e2)
        glued += 1
        above_one += want > 1
    assert above_one == 112, above_one


def test_power_graph_distances():
    rng = random.Random(71)
    for _ in range(10):
        g = _random_connected_graph(rng, rng.randint(4, 9))
        d = all_pairs_distances(g)
        for p in (2, 3):
            gp = power_graph(g, p)
            dp = all_pairs_distances(gp)
            for u in range(g.n):
                for v in range(g.n):
                    assert dp(u, v) == -(-d(u, v) // p)


def test_is_bipartite_matches_networkx():
    rng = random.Random(83)
    for i in range(60):
        g = _random_connected_graph(rng, rng.randint(1, 10))
        if i % 2:
            # keep the edges between BFS levels of different parity; the
            # BFS tree survives, so the result is connected and bipartite
            level = nx.single_source_shortest_path_length(_to_nx(g), 0)
            g = build_graph(g.n, [(a, b) for a, b in g.edges()
                                  if (level[a] - level[b]) % 2])
        bip = is_bipartite(g)
        assert bip.verdict == nx.is_bipartite(_to_nx(g))
        level = nx.single_source_shortest_path_length(_to_nx(g), 0)
        if bip:
            # the BFS level parity from 0 is a proper 2-colouring
            assert bip.witness is None
            assert all((level[a] - level[b]) % 2 for a, b in g.edges())
        else:
            # the first edge whose ends are equidistant from 0, which
            # closes an odd walk with their geodesics from 0
            assert bip.witness == next((a, b) for a, b in g.edges()
                                       if level[a] == level[b])


def _int_matrix(m, n):
    return st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=m, max_size=m)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(lambda n: _int_matrix(m, n))))
def test_strict_lp_result_verifies_on_random_matrices(entries):
    m, n = len(entries), len(entries[0])
    mat = RationalMatrix(tuple(map(tuple, entries)), tuple(range(m)),
                         tuple(range(n)), 0, 0)
    # a verified witness or Farkas certificate is the correct verdict
    assert _check_result(mat, lp_feasible_strict(mat))


def test_sparse_certificate_check_equals_the_dense_product():
    # _check_result sums y^T M over the rows the certificate names only;
    # the dense reference expands y over every row of the matrix
    rng = random.Random(23)
    accepted = 0
    for k in range(20000):
        m, n = rng.randint(0, 5), rng.randint(0, 6)
        entries = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
        kind = k % 4
        if kind == 0:       # all zero
            y = [0] * m
        elif kind == 1:     # mostly zero, nonnegative
            y = [rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(m)]
        elif kind == 2:     # any sign
            y = [rng.randint(-2, 3) for _ in range(m)]
        else:               # rationals, some zero
            y = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(m)]
        rows = tuple(rng.sample(range(2 * m), m))
        cert = {w: yw for w, yw in zip(rows, y) if yw}      # the nonzero entries
        if m and rng.random() < 0.1:
            cert[rng.randrange(2 * m + 1)] = 1      # a key that may be no row
        if m and rng.random() < 0.1:
            cert[rng.choice(rows)] = 0              # an entry stored as 0
        mat = RationalMatrix(entries, rows, tuple(range(n)), 0, 0)
        sparse = _check_result(mat, FeasibilityResult("infeasible", certificate=cert))
        assert sparse == certificate_holds_dense(mat, cert), (entries, rows, cert)
        accepted += sparse
    assert accepted > 2000


def test_pair_verdicts_match_the_plain_solve(monkeypatch):
    """Presolve, balanced-pair and own verdicts against the plain simplex
    on every pair: the atlas bands at p = 1, 2, the benchmark's random
    pool, and relabelled half-cube, Johnson and projective-plane graphs."""
    relabelled = [_relabelled(g, 5) for g in (
        halved_cube(6)[0], johnson(7, 3)[0], projective_incidence_graph(3))]
    sets = {
        "atlas": (list(_connected_atlas_graphs(7)), 2, 4),
        "pool": (list(_pool_graphs()), 2, None),
        "symmetric": (relabelled, 2, None),
    }
    assert [len(graphs) for graphs, _, _ in sets.values()] == [995, 240, 3]
    sources, checks = [], []
    real_balanced, real_holds, real_tail = lp._balanced, lp._holds, lp._unbalanced

    def balanced(*args):
        pair = real_balanced(*args)
        if pair is not None:
            sources.append("balanced")
        return pair

    def holds(d, u, v, y):
        ok = real_holds(d, u, v, y)
        checks.append((dict(y), ok))
        return ok

    def tail(*args):
        mat, res = real_tail(*args)
        if res is not None:
            sources.append("row" if res.certificate else "column")
        return mat, res

    monkeypatch.setattr(lp, "_balanced", balanced)
    monkeypatch.setattr(lp, "_holds", holds)
    monkeypatch.setattr(lp, "_unbalanced", tail)
    # Each pair takes the answer of the test that `presolve_plain` finds
    # first on the full matrix, and each certificate is checked by `_holds`
    # once, the column witness inside `_unbalanced`.  The symmetric graphs'
    # scans read the rows of orbit roots alone; the atlas and the pool
    # never search for automorphisms
    kinds = {name: Counter() for name in sets}
    for name, (graphs, lo, hi) in sets.items():
        for g in graphs:
            d = all_pairs_distances(g)
            scan, own = lp._pair_verdicts(g, d)
            sources.clear()
            checks.clear()
            for u, v, res in scan(lo, hi or d.diameter):
                if (u, v) in own:
                    kind = "own solve"
                    assert not sources
                else:   # a balanced pair or a one-vertex answer
                    (kind,) = sources
                kinds[name][kind] += 1
                assert checks == ([(res.certificate, True)] if kind in ("balanced", "row")
                                  else []), (name, u, v, checks)
                mat = lp.build_Duv(g, d, u, v)
                plain = lp_feasible_strict(mat)     # `solve_pair`
                assert res.feasible == plain.feasible, (name, u, v)
                want = presolve_plain(d, mat)
                assert kind == (want[0] if want else "own solve"), (name, u, v, kind)
                sources.clear()     # the scan decides the next pair after this
                checks.clear()
    assert all(count["balanced"] for count in kinds.values()), kinds
    # a balanced pair comes first, so the symmetric graphs take no other
    # certificate.  Their scans read the roots' rows alone, 16, 22 and 31
    # of their 256, 385 and 300 pairs at distance 2 or more.  Of the 15,671
    # pool pairs at distance 2 or more, a balanced pair decides 5,722, a
    # nonnegative row 20 and an all-negative column 8,029, and 1,900 are
    # solved: 20 more than when the row-sum certificate y = 1 was tried
    # after the column
    assert sum(kinds["symmetric"].values()) == 16 + 22 + 31, kinds
    assert kinds["atlas"]["row"] + kinds["atlas"]["column"], kinds
    assert kinds["pool"] == {"balanced": 5722, "row": 20, "column": 8029,
                             "own solve": 1900}, kinds


def test_orbit_and_plain_verdicts_agree(monkeypatch):
    """A scan of the pairs at distance 2 or more with the orbit search on
    reads the rows of orbit roots and gives each pair there the verdict of
    the plain scan, with the search off; and the first failing pair of
    every band k..2k, the one that `compute_p` stops at, is the plain
    scan's: on the test corpus, the random pool, the atlas, the tori
    C_n x C_n for n = 6..10, G_2, G_3, G_5, J(6,3), J(7,3), 1/2 H_6 and
    1/2 H_7, all relabelled.  The size gate is lowered to 0 pairs, so that
    every graph whose transmissions are all shared searches, atlas graphs
    too."""
    symmetric = [*(cartesian_product(cycle_graph(n), cycle_graph(n)) for n in range(6, 11)),
                 *map(projective_incidence_graph, (2, 3, 5)), johnson(6, 3)[0],
                 johnson(7, 3)[0], halved_cube(6)[0], halved_cube(7)[0]]
    graphs = [*_corpus(), *_pool_graphs(), *_connected_atlas_graphs(7),
              *(_relabelled(g, 11) for g in symmetric)]
    assert len(graphs) == 8 + 240 + 995 + 12
    monkeypatch.setattr(lp, "_ORBIT_PAIRS", 0)
    search = symmetry.automorphisms
    searched = Counter()
    for k, g in enumerate(graphs):
        d = all_pairs_distances(g)
        with monkeypatch.context() as m:
            orbits_off(m)
            scan, own = lp._pair_verdicts(g, d)
            plain = list(scan(2, d.diameter))
            first = [next((t[:2] for t in scan(q, 2 * q) if t[2].feasible), None)
                     for q in range(2, d.diameter + 1)]
        found = []
        monkeypatch.setattr(symmetry, "automorphisms", lambda *a: (
            out := search(*a), found.append(out))[0])
        scan, got_own = lp._pair_verdicts(g, d)
        got = list(scan(2, d.diameter))
        rows = {u for u, _, _ in got}
        _assert_agrees_with_per_pair(g, ([t for t in plain if t[0] in rows],
                                         {(u, v) for u, v in own if u in rows}), (got, got_own))
        assert [next((t[:2] for t in scan(q, 2 * q) if t[2].feasible), None)
                for q in range(2, d.diameter + 1)] == first, g.name
        searched["corpus" if k < 8 else "pool" if k < 248 else "atlas" if k < 1243
                 else "symmetric"] += bool(found and found[0][0])
    # the pool's transmissions are never all shared; 148 atlas graphs
    # search, and the complete graphs K_2..K_7, whose bands of distance 2
    # or more are empty, make none
    assert searched == {"corpus": 8, "pool": 0, "atlas": 148, "symmetric": 12}, searched


# ---------------------------------------------- the J(u,v) support lemma
# D^uv has a column per vertex because moving a violating profile's weight
# onto J(u,v) keeps it violating (see the lp module docstring).

def _push_onto_J(g, d, u, v, weights):
    """Move each weight outside J(u,v) to a neighbour closer to both u
    and v, until the support lies in J(u,v)."""
    J = J_set(g, d, u, v)
    pushed = dict(weights)
    while not pushed.keys() <= J:
        z = next(z for z in pushed if z not in J)
        y = next(y for y in g.adj[z] if d(u, y) < d(u, z) and d(v, y) < d(v, z))
        pushed[y] = pushed.get(y, 0) + pushed.pop(z)
    return pushed


def test_J_columns_decide_every_pair_like_all_columns():
    pushed_witnesses = feasible = 0
    for g in [*_connected_atlas_graphs(6), *_random_connected_graphs(40)]:
        d = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if d(u, v) < 2:
                    continue
                mat = lp.build_Duv(g, d, u, v)
                res = lp_feasible_strict(mat)       # `solve_pair`
                J = sorted(J_set(g, d, u, v))
                on_J = RationalMatrix(tuple(tuple(row[x] for x in J)
                                            for row in mat.entries),
                                      mat.rows, tuple(J), u, v)
                assert lp_feasible_strict(on_J).feasible == res.feasible
                if not res.feasible:
                    continue
                feasible += 1
                pushed = _push_onto_J(g, d, u, v, res.witness)
                pushed_witnesses += pushed != res.witness
                assert verify_feasibility_result(
                    g, d, u, v, FeasibilityResult("feasible", witness=pushed))
    # some pairs are feasible, and some witnesses leave J(u,v) before the push
    assert feasible and pushed_witnesses


# ------------------------------------- recognizers vs. definitional scans
# Plain per-vertex scans of each definition, kept here as references for the
# bitset recognizers; they must agree on verdict and witness.

def _ref_triangle_condition(g, d):
    for u in range(g.n):
        for v, w in g.edges():
            if d(u, v) == d(u, w) > 1:
                k = d(u, v)
                if not any(x in g.adj_sets[w] and d(u, x) == k - 1
                           for x in g.adj[v]):
                    return ("TC", u, v, w)
    return None


def _ref_quadrangle_condition(g, d):
    for u in range(g.n):
        for z in range(g.n):
            for v, w in itertools.combinations(g.adj[z], 2):
                if d(v, w) == 2 and 2 <= d(u, v) == d(u, w) == d(u, z) - 1:
                    k = d(u, v)
                    if not any(x in g.adj_sets[w] and d(u, x) == k - 1
                               for x in g.adj[v]):
                        return ("QC", u, v, w, z)
    return None


def _ref_is_modular(g, d):
    for u, v, w in itertools.combinations(range(g.n), 3):
        if not any(d(u, m) + d(m, v) == d(u, v)
                   and d(v, m) + d(m, w) == d(v, w)
                   and d(u, m) + d(m, w) == d(u, w)
                   for m in range(g.n)):
            return ClassVerdict("modular", False, (u, v, w))
    return ClassVerdict("modular", True)


def _ref_is_meshed(g, d):
    for v in range(g.n):
        for w in range(v + 1, g.n):
            if d(v, w) != 2:
                continue
            common = [x for x in g.adj[v] if x in g.adj_sets[w]]
            for u in range(g.n):
                bound = d(u, v) + d(u, w)
                if not any(2 * d(u, x) <= bound for x in common):
                    return ClassVerdict("meshed", False, (u, v, w))
    return ClassVerdict("meshed", True)


def _ref_induced_squares(g, d):
    for v1 in range(g.n):
        for v3 in range(v1 + 1, g.n):
            if d(v1, v3) != 2:
                continue
            common = [x for x in g.adj[v1] if x in g.adj_sets[v3]]
            for v2, v4 in itertools.combinations(common, 2):
                if v4 not in g.adj_sets[v2]:
                    yield (v1, v2, v3, v4)


def _ref_satisfies_PC(g, d):
    for v1, v2, v3, v4 in _ref_induced_squares(g, d):
        for u in range(g.n):
            if d(u, v1) + d(u, v3) != d(u, v2) + d(u, v4):
                return ClassVerdict("PC", False, (u, v1, v2, v3, v4))
    return ClassVerdict("PC", True)


def _ref_satisfies_INC(g, d):
    for u in range(g.n):
        for v in range(g.n):
            if u == v or g.has_edge(u, v):
                continue
            near = [x for x in g.adj[u] if d(u, x) + d(x, v) == d(u, v)]
            for a, b in itertools.combinations(near, 2):
                if b not in g.adj_sets[a]:
                    return ClassVerdict("INC", False, (u, v, a, b))
    return ClassVerdict("INC", True)


def _ref_is_thick(g, d):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d(u, v) != 2:
                continue
            common = [x for x in g.adj[u] if x in g.adj_sets[v]]
            if not any(b not in g.adj_sets[a]
                       for a, b in itertools.combinations(common, 2)):
                return ClassVerdict("thick", False, (u, v))
    return ClassVerdict("thick", True)


def _ref_satisfies_ICm(g, d, m):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d(u, v) != 2:
                continue
            verts = [w for w in range(g.n) if d(u, w) + d(w, v) == 2]
            comp_deg = {x: 0 for x in verts}
            comp_edges = 0
            for a, b in itertools.combinations(verts, 2):
                if b not in g.adj_sets[a]:
                    comp_deg[a] += 1
                    comp_deg[b] += 1
                    comp_edges += 1
            if any(deg > 1 for deg in comp_deg.values()):
                return ClassVerdict(f"IC{m}", False, (u, v))
            isolated = sum(1 for deg in comp_deg.values() if deg == 0)
            if comp_edges + isolated > m:
                return ClassVerdict(f"IC{m}", False, (u, v))
    return ClassVerdict(f"IC{m}", True)


def _ref_satisfies_TPC(g, d):
    for v in range(g.n):
        for x, y in g.edges():
            k = d(v, x)
            if k < 2 or d(v, y) != k:
                continue
            if any(d(v, z) == k - 1 for z in g.adj_sets[x] & g.adj_sets[y]):
                continue
            # or an induced pentagon x-y-w'-z-w-x with d(v,z) = k-2
            if any(d(v, z) == k - 2 and _ref_is_induced_cycle(g, (x, y, wp, z, w))
                   for w in g.adj[x] for wp in g.adj[y]
                   for z in g.adj_sets[w] & g.adj_sets[wp]):
                continue
            return ClassVerdict("TPC", False, (v, x, y))
    return ClassVerdict("TPC", True)


def _ref_is_induced_cycle(g, cycle):
    """The vertices are distinct, consecutive ones (cyclically) are adjacent
    and no other two are."""
    n = len(cycle)
    return len(set(cycle)) == n and all(
        g.has_edge(cycle[i], cycle[j]) == ((j - i) % n in (1, n - 1))
        for i, j in itertools.combinations(range(n), 2))


def _ref_find_induced_c5(g):
    for a, b in g.edges():
        for c in g.adj[b]:
            for e in g.adj[a]:
                for x in g.adj[c]:
                    if _ref_is_induced_cycle(g, (a, b, c, x, e)):
                        return (a, b, c, x, e)
    return None


def _ref_is_weakly_bridged(g, d):
    bad = (_ref_triangle_condition(g, d) or _ref_quadrangle_condition(g, d)
           or next(_ref_induced_squares(g, d), None))
    return ClassVerdict("weakly_bridged", bad is None, bad)


def _ref_is_bridged(g, d):
    wb = _ref_is_weakly_bridged(g, d)
    bad = wb.witness if not wb else _ref_find_induced_c5(g)
    return ClassVerdict("bridged", bad is None, bad)


def _ref_has_convex_balls(g, d):
    for v in range(g.n):
        for r in range(1, max(d[v])):
            ball = [x for x in range(g.n) if d(v, x) <= r]
            for x, y in itertools.combinations(ball, 2):
                outside = [z for z in range(g.n) if d(v, z) > r
                           and d(x, z) + d(z, y) == d(x, y)]
                if outside:
                    return ClassVerdict("convex_balls", False,
                                        (v, r, x, y, outside[0]))
    return ClassVerdict("convex_balls", True)


def _ref_small_clique_interiors(g, d):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d(u, v) != 2:
                continue
            inner = [w for w in range(g.n)
                     if w not in (u, v) and d(u, w) + d(w, v) == 2]
            if 2 <= len(inner) <= 3 and all(
                    b in g.adj_sets[a]
                    for a, b in itertools.combinations(inner, 2)):
                yield u, v, inner


def _ref_detect_alpha_configuration(g, d):
    """The alpha finder as a plain scan: each apex and each tail is searched
    again wherever a type asks for it."""
    def apex(far, near):
        return next((a for a in range(g.n) if d(a, u) == d(a, v) == 2
                     and d(a, far) == 3 and all(d(a, s) == 2 for s in near)),
                    None)

    def tail(far):
        return next((b for b in range(g.n) if b not in inner
                     and b not in (u, v)
                     and (u in g.adj_sets[b] or v in g.adj_sets[b])
                     and all((s in g.adj_sets[b]) == (s in far)
                             for s in inner)), None)

    for u, v, inner in _ref_small_clique_interiors(g, d):
        for t in inner:
            a, b = apex(t, [s for s in inner if s != t]), tail({t})
            if None not in (a, b):
                return 1, (u, v, tuple(inner), t, a, b)
        if len(inner) != 3:
            continue
        for s, t, w in itertools.permutations(inner):
            a1, a2, b = apex(t, [s, w]), apex(w, [s, t]), tail({t, w})
            if None not in (a1, a2, b):
                return 2, (u, v, (s, t, w), a1, a2, b)
        for s, t, w in itertools.permutations(inner):
            a1, a2, a3 = apex(t, [s, w]), apex(w, [s, t]), apex(s, [t, w])
            if None not in (a1, a2, a3):
                return 3, (u, v, (s, t, w), a1, a2, a3)
    return None


def _ref_detect_beta_configuration(g, d):
    for u, v, inner in _ref_small_clique_interiors(g, d):
        if len(inner) != 3:
            continue
        owners = {}
        for x in sorted(Jcirc_set(g, d, u, v)):
            pn = personal_neighbor(g, inner, x)
            if pn is not None and pn not in owners:
                owners[pn] = x
        if len(owners) == 3:
            return (u, v, tuple(inner), tuple(owners[s] for s in inner))
    return None


def _first_triangle_violation(g, d):
    bad = next(_triangle_violations(g, d), None)
    return None if bad is None else ("TC",) + bad


def _ref_is_weakly_modular(g, d):
    bad = _ref_triangle_condition(g, d) or _ref_quadrangle_condition(g, d)
    return ClassVerdict("weakly_modular", bad is None, bad)


def test_bitset_recognizers_match_definitional_scans():
    # modular and convex balls are compared on their verdicts alone: their
    # witnesses come from the conditions that decide them, and
    # tests/test_recognizers.py re-checks each against its definition
    pairs = {"TC": (_first_triangle_violation, _ref_triangle_condition),
             "weakly_modular": (is_weakly_modular, _ref_is_weakly_modular),
             "modular": (lambda g, d: is_modular(g, d).verdict,
                         lambda g, d: _ref_is_modular(g, d).verdict),
             "meshed": (is_meshed, _ref_is_meshed),
             "PC": (satisfies_PC, _ref_satisfies_PC),
             "TPC": (satisfies_TPC, _ref_satisfies_TPC),
             "weakly_bridged": (is_weakly_bridged, _ref_is_weakly_bridged),
             "bridged": (is_bridged, _ref_is_bridged),
             "convex_balls": (lambda g, d: has_convex_balls(g, d).verdict,
                              lambda g, d: _ref_has_convex_balls(g, d).verdict),
             "INC": (satisfies_INC, _ref_satisfies_INC),
             "thick": (lambda g, d: is_thick(g), _ref_is_thick),
             "IC3": (lambda g, d: satisfies_ICm(g, 3),
                     lambda g, d: _ref_satisfies_ICm(g, d, 3)),
             "IC4": (lambda g, d: satisfies_ICm(g, 4),
                     lambda g, d: _ref_satisfies_ICm(g, d, 4)),
             "squares": (lambda g, d: list(induced_squares(g)),
                         lambda g, d: list(_ref_induced_squares(g, d))),
             "alpha": (lambda g, d: detect_alpha_configuration(g),
                       _ref_detect_alpha_configuration),
             "beta": (lambda g, d: detect_beta_configuration(g),
                      _ref_detect_beta_configuration)}
    verdicts = {name: set() for name in [*pairs, "QC"]}
    capped = 0
    for g in _recognizer_corpus():
        d = all_pairs_distances(g)
        for name, (fn, ref) in pairs.items():
            got = fn(g, d)
            assert got == ref(g, d), (name, g.n, g.edges())
            verdicts[name].add(bool(got))
        tc = _first_triangle_violation(g, d)
        if tc is None:
            # where TC holds, the weak-modularity witness is QC's alone
            qc = _ref_quadrangle_condition(g, d)
            assert is_weakly_modular(g, d).witness == qc, (g.n, g.edges())
            verdicts["QC"].add(qc is None)
        capped += bool(satisfies_TPC(g, d)) and tc is not None
    # the corpus exercises both outcomes of every recognizer, and some
    # graphs satisfy TPC only through a pentagon cap
    assert all(seen == {True, False} for seen in verdicts.values())
    assert capped


def test_alpha_finder_matches_the_plain_scan_on_perturbed_configurations():
    # The three alpha configurations with up to three edges toggled, then
    # relabelled: hits of every type, with apexes and tails in every
    # position, and pairs whose apexes exist but whose tails do not.
    rng = random.Random(113)
    kinds = Counter()
    for config_type in (1, 2, 3):
        base = alpha_configuration(config_type)
        for _ in range(40):
            edges = set(base.edges())
            for _ in range(rng.randint(0, 3)):
                edges ^= {tuple(sorted(rng.sample(range(base.n), 2)))}
            perm = list(range(base.n))
            rng.shuffle(perm)
            try:
                g = build_graph(base.n, [(perm[a], perm[b]) for a, b in edges])
            except Disconnected:
                continue
            d = all_pairs_distances(g)
            got = detect_alpha_configuration(g)
            assert got == _ref_detect_alpha_configuration(g, d), g.edges()
            kinds[got and got[0]] += 1
    assert all(kinds[k] for k in (None, 1, 2, 3)), kinds


def _classify_corpus():
    """The six graphs of the benchmark's `classify` workload."""
    coronene = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    yield hypercube(6)[0]
    yield halved_cube(7)[0]
    yield johnson(8, 3)[0]
    yield cartesian_product(path_graph(6), path_graph(6))
    yield projective_incidence_graph(3)
    yield benzenoid(BenzenoidSpec(frozenset(coronene))).graph


def _random_trees_with_chords(count, seed=1):
    """Seeded connected graphs on 5..16 vertices, each vertex after the
    first joined to 1..3 earlier ones: sparse, with many distance-2 pairs
    whose interior is a small clique, where alpha and beta configurations
    live."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 16)
        yield build_graph(n, [(u, v) for v in range(1, n)
                              for u in rng.sample(range(v), min(v, rng.randint(1, 3)))])


def test_distance_two_pairs_are_the_band_scan_of_the_table():
    # pairs with v < u or v in N[u], or a common list out of order, would
    # differ here.  Each u walks the paths u-x-v or intersects N(u) with
    # every later N(v), whichever is cheaper: K_n and the clique of a clique
    # with a tail take the intersections, a long path the walk, and Q_8 and
    # the classify corpus both
    clique_with_tail = build_graph(30, [*itertools.combinations(range(20), 2),
                                        *((i, i + 1) for i in range(19, 29))])
    for g in [*_recognizer_corpus(), *_classify_corpus(), complete_graph(40),
              clique_with_tail, _relabelled(clique_with_tail, 1),
              _relabelled(path_graph(300), 2), hypercube(8)[0]]:
        d = all_pairs_distances(g)
        want = [(u, v, sorted(g.adj_sets[u] & g.adj_sets[v]))
                for u, v in _pairs_in_distance_band(d, 2, 2)]
        assert list(_distance_two_pairs(g)) == want, g.edges()


def test_alpha_and_beta_finders_match_the_table_reading_finders():
    # the neighbour-bitset finders against the same finders on the distance
    # table and J°(u,v), on a corpus with many hits of each
    graphs = [*_connected_atlas_graphs(), *_pool_graphs(),
              *_random_trees_with_chords(300), beta_configuration(),
              *map(alpha_configuration, (1, 2, 3))]
    hits = Counter()
    for g in graphs:
        d = all_pairs_distances(g)
        alpha, beta = detect_alpha_configuration(g), detect_beta_configuration(g)
        assert alpha == detect_alpha_configuration_by_table(g, d), g.edges()
        assert beta == detect_beta_configuration_by_table(g, d), g.edges()
        hits["alpha"] += alpha is not None
        hits["beta"] += beta is not None
    assert hits["alpha"] >= 50 and hits["beta"] >= 10, hits


def test_mcs_order_matches_the_scan_of_every_vertex():
    for g in [*_connected_atlas_graphs(), *_pool_graphs(), *_classify_corpus()]:
        assert _mcs_order(g) == mcs_order_by_scan(g), g.edges()


def test_weakly_modular_witnesses_violate_their_condition():
    kinds = set()
    for g in _recognizer_corpus():
        ref = nx.floyd_warshall(_to_nx(g))
        dist = {u: {v: int(ref[u][v]) for v in ref[u]} for u in ref}
        wm = is_weakly_modular(g, all_pairs_distances(g))
        if wm:
            continue
        kind, u, v, w, *rest = wm.witness
        kinds.add(kind)
        k = dist[u][v]
        assert k == dist[u][w] >= 2 and v != w
        if kind == "TC":
            assert w in g.adj_sets[v] and rest == []
        else:
            (z,) = rest
            assert dist[v][w] == 2 and dist[u][z] == k + 1
            assert v in g.adj_sets[z] and w in g.adj_sets[z]
        # no common neighbour of v and w is one step closer to u
        assert not any(dist[u][x] == k - 1
                       for x in g.adj_sets[v] & g.adj_sets[w])
    assert kinds == {"TC", "QC"}


# ------------------------------------------- oracle vs. a plain profile scan
# `reference._ref_oracle` and the vectorised oracle must report the same
# first (pair, profile).

def _oracle_outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded:
        return "budget"


def _assert_oracle_matches_plain_scan(monkeypatch, graphs, levels, budget):
    """p and max_weight each range over `levels`."""
    monkeypatch.setattr(oracle, "_BUDGET", budget)
    outcomes = set()
    for g in graphs:
        d = all_pairs_distances(g)
        for p in levels:
            for max_weight in levels:
                got = _oracle_outcome(brute_force_oracle, g, d, p, max_weight)
                ref = _oracle_outcome(_ref_oracle, g, d, p, max_weight,
                                      budget)
                assert got == ref, (g.edges(), p, max_weight)
                outcomes.add("none" if got is None else
                             got if got == "budget" else "hit")
    assert outcomes == {"none", "hit", "budget"}


def test_oracle_matches_plain_profile_scan(monkeypatch):
    rng = random.Random(101)
    graphs = [_random_connected_graph(rng, rng.randint(3, 9))
              for _ in range(12)]
    graphs += [cycle_graph(7), cycle_graph(9), hypercube(3)[0]]
    _assert_oracle_matches_plain_scan(monkeypatch, graphs, (1, 2, 3), 10_000)


@pytest.mark.parametrize("block", [50, 1])
def test_oracle_block_split_matches_plain_profile_scan(monkeypatch, block):
    # A block holds at most _BLOCK // (ball size) profiles, so with a small
    # _BLOCK most supports are split into an inner table and prefix offsets
    # (with 1, one profile a block): the offsets and the all-zero profile,
    # skipped in the first block only, are checked against the plain scan.
    monkeypatch.setattr(oracle, "_BLOCK", block)
    rng = random.Random(107)
    graphs = [_random_connected_graph(rng, rng.randint(4, 8))
              for _ in range(4)]
    graphs += [cycle_graph(7), hypercube(3)[0]]
    _assert_oracle_matches_plain_scan(monkeypatch, graphs, (1, 2), 2_000)


# Graphs with packed blocks and split supports at _BLOCK = 200 (cap =
# 200 // ball profiles a block): K_{2,4}, where later kept pairs are packed
# and the last is split at max_weight 1, and every pair is split at
# max_weight 2; and two atlas graphs whose first bad profile is on the
# second or a later pair of a packed block.
_PACKED_BLOCK_GRAPHS = (
    [(0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)],
    [(0, 2), (1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 6), (4, 5)],
)


def test_oracle_packed_blocks_match_plain_profile_scan(monkeypatch):
    # Later kept pairs share blocks, so the first bad column of a block
    # must be mapped back to its own pair and code; a support with more
    # than cap profiles is split into prefix blocks instead.
    monkeypatch.setattr(oracle, "_BLOCK", 200)
    seen = {"packed": 0, "split": 0, "later_hit": 0}
    scan = oracle._scan_block

    def spy(dist, near, slots, seeds, block, radix):
        hit = scan(dist, near, slots, seeds, block, radix)
        seen["packed"] += len(block) > 1
        seen["split"] += any(split for _, _, split, _ in block)
        seen["later_hit"] += (hit is not None and len(block) > 1
                              and hit[0] != block[0][0])
        return hit

    monkeypatch.setattr(oracle, "_scan_block", spy)
    rng = random.Random(109)
    graphs = [build_graph(max(map(max, edges)) + 1, edges)
              for edges in _PACKED_BLOCK_GRAPHS]
    graphs += [_random_connected_graph(rng, rng.randint(5, 8))
               for _ in range(3)]
    _assert_oracle_matches_plain_scan(monkeypatch, graphs, (1, 2), 3_000)
    assert seen["packed"] and seen["split"] and seen["later_hit"] >= 2, seen


def _sparse_connected_graph(rng, n, extra):
    """A random tree on n vertices plus `extra` random edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    return build_graph(n, edges)


def _J_by_definition(dist, u, v):
    """{z : I(z,u) & I(z,v) = {z}} from a distance array: w lies in I(z,u)
    iff d(z,w) + d(w,u) = d(z,u); z itself always does."""
    both = ((dist + dist[u] == dist[:, [u]])
            & (dist + dist[v] == dist[:, [v]]))
    return set(np.flatnonzero(both.sum(axis=1) == 1).tolist())


def test_J_set_matches_its_definition_on_masks_wider_than_a_word():
    # Interval bitsets of more than 64 vertices: the halved cube on 128
    # vertices, C_70, and random graphs with up to 90 vertices, both dense
    # and sparse (diameters from 2 to about 20).
    rng = random.Random(113)
    cases = [(halved_cube(8)[0], [0, 77]), (cycle_graph(70), range(70))]
    for n in (65, 72, 81, 90):
        cases.append((_random_connected_graph(rng, n), rng.sample(range(n), 4)))
        cases.append((_sparse_connected_graph(rng, n, rng.randint(0, n // 4)),
                      rng.sample(range(n), 6)))
    checked = 0
    for g, sources in cases:
        d = all_pairs_distances(g)
        dist = d.array(np.int64)
        for u in sources:
            masks = interval_masks(g, d, u)
            for v in range(g.n):
                assert members(masks[v]) == np.flatnonzero(
                    dist[u] + dist[v] == dist[u, v]).tolist(), (g.n, u, v)
                if v != u:
                    assert J_set(g, d, u, v) == _J_by_definition(dist, u, v), (
                        g.n, u, v)
                    checked += 1
    assert checked > 8_000


def test_interval_and_J_set_match_their_definitions():
    rng = random.Random(103)
    for _ in range(25):
        g = _random_connected_graph(rng, rng.randint(2, 10))
        d = all_pairs_distances(g)
        ivl = {(u, v): {w for w in range(g.n) if d(u, w) + d(w, v) == d(u, v)}
               for u in range(g.n) for v in range(g.n)}
        for u in range(g.n):
            masks = interval_masks(g, d, u)
            for v in range(g.n):
                assert members(masks[v]) == sorted(ivl[u, v])
                assert interval(g, d, u, v) == ivl[u, v]
                assert ivl[u, v] == geodesic_vertices_via_dag(g, d, u, v)
                if u != v:
                    assert J_set(g, d, u, v) == {
                        z for z in range(g.n)
                        if ivl[z, u] & ivl[z, v] == {z}}
                if d(u, v) >= 2:
                    # D^uv reads its rows from the distance rows
                    assert lp.build_Duv(g, d, u, v).rows == tuple(
                        sorted(interior_interval(g, d, u, v)))
