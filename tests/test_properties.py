"""Randomized cross-checks between independent implementations."""
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from medgraph.families import (alpha_configuration, cartesian_product,
                               cycle_graph, halved_cube, hypercube, johnson,
                               path_graph, projective_incidence_graph)
from medgraph.errors import BudgetExceeded, Disconnected
from medgraph.graph import all_pairs_distances, build_graph, power_graph
from medgraph.lp import (FeasibilityResult, RationalMatrix, _check_result,
                         compute_p, disconnecting_profile,
                         has_Gp_connected_medians, lp_feasible_strict,
                         verify_feasibility_result, witness_to_profile)
from medgraph.metric import (J_set, Jcirc_set, interior_interval, interval,
                             interval_mask, members)
from medgraph.medians import (Profile, VertexFunction, _pairs_in_distance_band,
                              check_WC, check_WP, is_p_connected,
                              is_p_weakly_peakless, is_unimodal_on_power,
                              level_set, local_median_set_p,
                              local_minima_on_power, median_function,
                              median_set, median_value)
from medgraph import lp, oracle
from medgraph.oracle import brute_force_oracle
from medgraph.recognizers import (ClassVerdict, _quadrangle_condition,
                                  _triangle_condition,
                                  detect_alpha_configuration,
                                  detect_beta_configuration, has_convex_balls,
                                  induced_squares, is_bipartite, is_bridged,
                                  is_meshed, is_modular, is_thick,
                                  is_weakly_bridged, is_weakly_modular,
                                  personal_neighbor, satisfies_ICm,
                                  satisfies_INC, satisfies_PC, satisfies_TPC)
from reference import (_connected_atlas_graphs, _corpus, _pool_graphs,
                       _random_connected_graph, _random_connected_graphs,
                       _recognizer_corpus, _ref_oracle, _relabelled, _to_nx,
                       certificate_holds_dense, geodesic_vertices_via_dag,
                       is_p_connected_pairwise, local_median_set_plain,
                       median_set_plain, solve_pair)


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
        ok, color = is_bipartite(g)
        assert ok == nx.is_bipartite(_to_nx(g))
        if ok:
            assert len(color) == g.n and set(color) <= {0, 1}
            assert all(color[a] != color[b] for a, b in g.edges())
        else:
            assert color is None


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
    assert _check_result(lp_feasible_strict(mat))


def test_sparse_certificate_check_equals_the_dense_product():
    # _check_result sums y^T M over the rows with y_i != 0 only
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
        if m and rng.random() < 0.1:
            y = y[:-1]      # one entry short
        mat = RationalMatrix(entries, tuple(range(m)), tuple(range(n)), 0, 0)
        sparse = _check_result(FeasibilityResult("infeasible", certificate=tuple(y),
                                                 matrix=mat))
        assert sparse == certificate_holds_dense(mat, y), (entries, y)
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
    sources = []
    real = lp._checked

    def recording(res, source):
        sources.append(source)
        return real(res, source)

    monkeypatch.setattr(lp, "_checked", recording)
    # every pair on the per-pair path, whose presolve and balanced-pair
    # answers pass through `_checked`; the bulk path is held to this one by
    # test_bulk_and_per_pair_verdicts_agree
    monkeypatch.setattr(lp, "_BULK_PAIRS", sys.maxsize)
    kinds = {name: Counter() for name in sets}
    for name, (graphs, lo, hi) in sets.items():
        for g in graphs:
            d = all_pairs_distances(g)
            scan, own = lp._pair_verdicts(g, d)
            sources.clear()
            for u, v, res in scan(lo, hi or d.diameter):
                if (u, v) in own:
                    kind = "own solve"
                else:   # a checked presolve or balanced-pair answer
                    (kind,) = sources
                kinds[name][kind] += 1
                assert res.feasible == solve_pair(g, d, u, v).feasible, (name, u, v)
                sources.clear()     # the scan decides the next pair after this
    for name, count in kinds.items():
        assert count["row-sum answer"] and count["balanced answer"], (name, count)


def test_bulk_and_per_pair_verdicts_agree(monkeypatch):
    """Every verdict of a scan of the pairs at distance 2 or more, with
    every pair decided in bulk and with every pair decided on its own: the
    test corpus, the random pool, the atlas, and relabelled half-cube,
    Johnson, grid-cycle, projective-plane and cycle graphs.  Verdicts,
    matrices and solved pairs are equal, and every array row is the row
    `build_Duv` builds.  The corpus and the relabelled graphs, whose
    arrays hold the most pairs, are also decided in arrays of one pair."""
    symmetric = [halved_cube(6)[0], johnson(7, 3)[0],
                 cartesian_product(path_graph(5), cycle_graph(5)),
                 projective_incidence_graph(3), cycle_graph(21)]
    graphs = [*_corpus(), *_pool_graphs(), *_connected_atlas_graphs(7),
              *(_relabelled(g, 11) for g in symmetric)]
    assert len(graphs) == 8 + 240 + 995 + 5
    arrays = []
    real = lp._bulk_array

    def recording(dist, us, vs, inside, m):
        D, ws = real(dist, us, vs, inside, m)
        arrays.append((us.tolist(), vs.tolist(), D.tolist(), ws.tolist()))
        return D, ws

    monkeypatch.setattr(lp, "_bulk_array", recording)

    def scanned(g, d, gate, entries):
        monkeypatch.setattr(lp, "_BULK_PAIRS", gate)
        monkeypatch.setattr(lp, "_BULK_ENTRIES", entries)
        scan, own = lp._pair_verdicts(g, d)
        return [repr(t) for t in scan(2, d.diameter)], own

    padded = 0
    for k, g in enumerate(graphs):
        d = all_pairs_distances(g)
        plain = scanned(g, d, sys.maxsize, 2 ** 16)
        assert not arrays
        assert scanned(g, d, 1, 2 ** 16) == plain
        if k < 8 or k >= 8 + 240 + 995:
            assert scanned(g, d, 1, 1) == plain
        for us, vs, D, ws in arrays:
            for u, v, rows, row_vertices in zip(us, vs, D, ws):
                mat = lp.build_Duv(g, d, u, v)
                m = len(mat.rows)
                assert tuple(row_vertices[:m]) == mat.rows
                assert tuple(map(tuple, rows[:m])) == mat.entries
                # a padding row stands for u and is -1 everywhere
                assert set(row_vertices[m:]) <= {u}
                assert all(x == -1 for row in rows[m:] for x in row)
                padded += len(rows) > m
        arrays.clear()
    assert padded


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
                res = solve_pair(g, d, u, v)
                mat = res.matrix
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


def test_bitset_recognizers_match_definitional_scans():
    pairs = {"TC": (_triangle_condition, _ref_triangle_condition),
             "QC": (_quadrangle_condition, _ref_quadrangle_condition),
             "modular": (is_modular, _ref_is_modular),
             "meshed": (is_meshed, _ref_is_meshed),
             "PC": (satisfies_PC, _ref_satisfies_PC),
             "TPC": (satisfies_TPC, _ref_satisfies_TPC),
             "weakly_bridged": (is_weakly_bridged, _ref_is_weakly_bridged),
             "bridged": (is_bridged, _ref_is_bridged),
             "convex_balls": (has_convex_balls, _ref_has_convex_balls),
             "INC": (satisfies_INC, _ref_satisfies_INC),
             "thick": (is_thick, _ref_is_thick),
             "IC3": (lambda g, d: satisfies_ICm(g, d, 3),
                     lambda g, d: _ref_satisfies_ICm(g, d, 3)),
             "IC4": (lambda g, d: satisfies_ICm(g, d, 4),
                     lambda g, d: _ref_satisfies_ICm(g, d, 4)),
             "squares": (lambda g, d: list(induced_squares(g, d)),
                         lambda g, d: list(_ref_induced_squares(g, d))),
             "alpha": (detect_alpha_configuration,
                       _ref_detect_alpha_configuration),
             "beta": (detect_beta_configuration,
                      _ref_detect_beta_configuration)}
    verdicts = {name: set() for name in pairs}
    capped = 0
    for g in _recognizer_corpus():
        d = all_pairs_distances(g)
        for name, (fn, ref) in pairs.items():
            got = fn(g, d)
            assert got == ref(g, d), (name, g.n, g.edges())
            verdicts[name].add(bool(got))
        capped += bool(satisfies_TPC(g, d)) and _triangle_condition(g, d) is not None
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
            got = detect_alpha_configuration(g, d)
            assert got == _ref_detect_alpha_configuration(g, d), g.edges()
            kinds[got and got[0]] += 1
    assert all(kinds[k] for k in (None, 1, 2, 3)), kinds


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
    # Level bitsets of more than 64 vertices: the halved cube on 128
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
        dist = np.array(d.d)
        for u in sources:
            for v in range(g.n):
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
            # levels[u] partitions the vertices by their distance from u
            assert len(d.levels[u]) == max(d[u]) + 1
            for k, mask in enumerate(d.levels[u]):
                assert members(mask) == [x for x in range(g.n) if d(u, x) == k]
            for v in range(g.n):
                assert members(interval_mask(d, u, v)) == sorted(ivl[u, v])
                assert interval(g, d, u, v) == ivl[u, v]
                assert ivl[u, v] == geodesic_vertices_via_dag(g, d, u, v)
                if u != v:
                    assert J_set(g, d, u, v) == {
                        z for z in range(g.n)
                        if ivl[z, u] & ivl[z, v] == {z}}
                if d(u, v) >= 2:
                    # D^uv reads its rows from the distance rows, not levels
                    assert lp.build_Duv(g, d, u, v).rows == tuple(
                        sorted(interior_interval(g, d, u, v)))
