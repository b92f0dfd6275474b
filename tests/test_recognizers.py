import random
from collections import Counter

import pytest

from medgraph import recognizers
from medgraph.benzenoid import BenzenoidSpec, benzenoid
from medgraph.errors import LabelArity
from medgraph.families import (beta_configuration, bn_hat_graph,
                               cartesian_product, complete_bipartite,
                               complete_graph, cycle_graph, halved_cube,
                               hypercube, johnson, path_graph, wheel)
from medgraph.graph import all_pairs_distances, build_graph
from medgraph.metric import interval
from medgraph.recognizers import (connected_medians_partial_halved_cube,
                                  connected_medians_partial_johnson,
                                  detect_alpha_configuration,
                                  detect_beta_configuration, find_induced_c5,
                                  has_convex_balls, induced_squares,
                                  is_bipartite,
                                  is_bipartite_absolute_retract, is_bridged,
                                  is_chordal, is_meshed, is_modular, is_thick,
                                  is_weakly_bridged, is_weakly_modular,
                                  read_labels, satisfies_ICm, satisfies_INC,
                                  satisfies_PC, verify_labeled_embedding,
                                  write_labels)
from reference import (_connected_atlas_graphs, _gd, _long_tables,
                       _pool_graphs, _recognizer_corpus, _relabelled,
                       absolute_retract_by_extension,
                       bipartite_absolute_retract_by_masks,
                       convex_balls_by_ball_scan, modular_by_triple_scan)


def _glued_cycles(count, seed=31):
    """Seeded graphs glued from 3-, 5- and 7-cycles, one to four of them:
    each cycle after the first shares a vertex or an edge with the graph so
    far.  A C_7 alone satisfies INC and fails TPC."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        edges, n = [], 1
        for _ in range(rng.randint(1, 4)):
            length = rng.choice((3, 5, 7))
            if edges and rng.random() < 0.5:
                ends, inner = rng.choice(edges), length - 2
            else:
                x = rng.randrange(n)
                ends, inner = (x, x), length - 1
            path = [ends[0], *range(n, n + inner), ends[1]]
            edges += zip(path, path[1:])
            n += inner
        graphs.append(build_graph(n, edges))
    return graphs


def _cross_check_corpus():
    """The recognizer corpus, the connected atlas graphs (C_4..C_7, K_4,
    W_5, W_6 and J(4,2) among them), the random pool and 200 glued odd
    cycles."""
    return (_recognizer_corpus() + list(_connected_atlas_graphs())
            + list(_pool_graphs()) + _glued_cycles(200))


# ------------------------------------------------------------------ meshedness

def test_meshed_octahedron():
    g, d = _gd(johnson(4, 2)[0])
    assert is_meshed(g, d)


def test_meshed_complete():
    g, d = _gd(complete_graph(5))
    assert is_meshed(g, d)


def test_c6_not_meshed():
    g, d = _gd(cycle_graph(6))
    verdict = is_meshed(g, d)
    assert not verdict
    u, v, w = verdict.witness
    # v, w at distance two with no common neighbor weakly between them and u
    assert d(v, w) == 2
    common = [x for x in g.adj[v] if x in g.adj_sets[w]]
    assert all(2 * d(u, x) > d(u, v) + d(u, w) for x in common)


def test_meshed_witness_is_the_first_failing_pair_then_its_least_u():
    # C_5 as 0-1-2-3-4-0: the first distance-2 pair (0, 2) fails only at
    # u = 3, while u = 0, the least failing vertex, fails the later (2, 4)
    g, d = _gd(cycle_graph(5))
    assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert is_meshed(g, d).witness == (3, 0, 2)


# -------------------------------------------------------------- weak modularity

def test_weakly_modular_reports_tc_at_any_vertex_before_qc():
    # QC first fails at u = 0, on the pair 3, 4 below 5; TC holds at u = 0
    # and first fails at u = 1, on the edge 3-5
    g, d = _gd(build_graph(7, [(0, 1), (0, 2), (1, 2), (1, 4), (1, 6), (2, 3),
                               (3, 5), (4, 5)]))
    assert is_weakly_modular(g, d).witness == ("TC", 1, 3, 5)


def test_weakly_modular_examples():
    for g in (complete_graph(2), complete_graph(4), hypercube(3)[0]):
        g, d = _gd(g)
        assert is_weakly_modular(g, d)
    g, d = _gd(cycle_graph(5))
    assert not is_weakly_modular(g, d)


def test_chordal_is_weakly_modular():
    g, d = _gd(build_graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                               (3, 4), (2, 4)]))
    assert is_chordal(g)
    assert is_weakly_modular(g, d)


def test_modular_examples():
    g, d = _gd(hypercube(2)[0])
    assert is_modular(g, d)
    g, d = _gd(path_graph(5))
    assert is_modular(g, d)
    g, d = _gd(complete_graph(3))
    assert not is_modular(g, d)


def test_modular_skips_weak_modularity_on_a_non_bipartite_graph(monkeypatch):
    # vertices 1 and 2 of halfH_7 are adjacent and both at distance 1 from
    # 0, so the triple (0, 1, 2) fails and no QC pass over the 64 vertices
    # is run
    g, d = _gd(halved_cube(7)[0])
    monkeypatch.setattr(recognizers, "is_weakly_modular",
                        lambda g, d: pytest.fail("is_weakly_modular called"))
    assert is_bipartite(g).witness == (1, 2)
    assert is_modular(g, d).witness == (0, 1, 2)


def test_modular_iff_bipartite_and_weakly_modular():
    """`is_modular`, decided as bipartite and weakly modular (Bandelt &
    Chepoi 2008), equals the triple scan of its definition on the
    cross-check corpus.  Every false verdict names a triple with no median,
    taken from the first odd edge or from the QC witness, and both branches
    are reached."""
    seen = Counter()
    for g in _cross_check_corpus():
        g, d = _gd(g)
        got = is_modular(g, d)
        assert got.verdict == modular_by_triple_scan(g, d).verdict, g.edges()
        if got:
            assert got.witness is None
            seen["modular"] += 1
            continue
        u, v, w = got.witness
        assert not (interval(g, d, u, v) & interval(g, d, v, w)
                    & interval(g, d, u, w)), (g.edges(), got.witness)
        bip = is_bipartite(g)
        if bip:
            qc = is_weakly_modular(g, d).witness
            assert qc[0] == "QC" and got.witness == qc[1:4], (g.edges(), qc)
            seen["QC"] += 1
        else:
            assert got.witness == (0,) + bip.witness
            seen["odd edge"] += 1
    assert seen == {"modular": 102, "QC": 8, "odd edge": 1395}, seen


# ------------------------------------------------------------------- chordality

def test_chordal_examples():
    assert is_chordal(complete_graph(4))
    assert not is_chordal(cycle_graph(4))
    assert is_chordal(beta_configuration())
    verdict = is_chordal(cycle_graph(6))
    cyc = verdict.witness
    # the witness is a chordless cycle of length >= 4
    assert len(cyc) >= 4
    cs = set(cyc)
    g = cycle_graph(6)
    for i, a in enumerate(cyc):
        b = cyc[(i + 1) % len(cyc)]
        assert g.has_edge(a, b)
        assert sum(1 for z in g.adj[a] if z in cs) == 2


def test_find_induced_cycles():
    assert next(induced_squares(cycle_graph(4)), None) is not None
    assert find_induced_c5(cycle_graph(5)) is not None
    assert find_induced_c5(cycle_graph(4)) is None
    assert next(induced_squares(complete_graph(4)), None) is None


# ------------------------------------------------------------- bridged variants

def test_w5_weakly_bridged_not_bridged():
    g, d = _gd(wheel(5))
    assert is_weakly_bridged(g, d)
    assert not is_bridged(g, d)


def test_k4_bridged():
    g, d = _gd(complete_graph(4))
    assert is_bridged(g, d)
    assert is_weakly_bridged(g, d)


def test_c4_neither():
    g, d = _gd(cycle_graph(4))
    assert not is_weakly_bridged(g, d)
    assert not is_bridged(g, d)


# ------------------------------------------------------------------ convex balls

def test_convex_balls():
    g, d = _gd(cycle_graph(5))
    assert has_convex_balls(g, d)
    g, d = _gd(cycle_graph(6))
    verdict = has_convex_balls(g, d)
    assert not verdict
    v, r, x, y, z = verdict.witness
    assert d(v, x) <= r and d(v, y) <= r and d(v, z) > r
    assert d(x, z) + d(z, y) == d(x, y)
    assert z == min(w for w in interval(g, d, x, y) if d(v, w) > r)


def test_convex_balls_witness_is_the_smallest_vertex_outside_the_ball():
    # INC first fails at u = 0 and v = 31: 0's neighbours 1 and 2 lie in
    # the ball of radius 1 around 31, and I(1,2) = {0, 1, 2, 31, 32} leaves
    # it at 0 and 32.  The ball scan meets the ball N[0] first, which
    # I(1,2) leaves at 31 and 32; a set of these five vertices iterates 32
    # before 31, so neither witness may come from set order.  Vertices
    # 3..30 are leaves of 0.
    edges = [(0, k) for k in range(1, 31)] + [(1, 31), (2, 31), (1, 32), (2, 32)]
    g, d = _gd(build_graph(33, edges))
    assert has_convex_balls(g, d).witness == (31, 1, 1, 2, 0)
    assert convex_balls_by_ball_scan(g, d).witness == (0, 1, 1, 2, 31)


def test_bridged_implies_convex_balls_small():
    for g in (complete_graph(4), wheel(6), beta_configuration()):
        g, d = _gd(g)
        if is_bridged(g, d):
            assert has_convex_balls(g, d)


# ------------------------------------------------------------ INC/TPC/PC/IC/thick

def test_inc():
    g, d = _gd(cycle_graph(4))
    assert not satisfies_INC(g, d)
    g, d = _gd(complete_graph(4))
    assert satisfies_INC(g, d)


def _violates_tpc(g, d, v, x, y):
    """The edge xy is at distance k >= 2 from v, and neither a common
    neighbour at k - 1 nor an induced pentagon x w z w' y with d(v,z) =
    k - 2 closes it."""
    k = d(v, x)
    return (g.has_edge(x, y) and d(v, y) == k >= 2
            and not any(d(v, z) == k - 1 for z in g.adj_sets[x] & g.adj_sets[y])
            and not any(d(v, z) == k - 2 and w != wp and not g.has_edge(w, wp)
                        and not g.has_edge(x, wp) and not g.has_edge(w, y)
                        for w in g.adj[x] for wp in g.adj[y]
                        for z in g.adj_sets[w] & g.adj_sets[wp]))


def test_cb_iff_inc_and_tpc():
    """`has_convex_balls`, decided as INC and TPC (Soltan & Chepoi 1983;
    Farber & Jamison 1987), equals the ball scan of its definition on the
    cross-check corpus.  An INC failure names a ball, two of its vertices
    and the smallest vertex of their interval outside it; a TPC failure
    names a violation of TPC on a graph that satisfies INC.  Both branches
    are reached."""
    seen = Counter()
    for g in _cross_check_corpus():
        g, d = _gd(g)
        got = has_convex_balls(g, d)
        assert got.verdict == convex_balls_by_ball_scan(g, d).verdict, g.edges()
        if got:
            assert got.witness is None
            seen["cb"] += 1
        elif got.witness[0] == "TPC":
            assert satisfies_INC(g, d) and _violates_tpc(g, d, *got.witness[1:]), (
                g.edges(), got.witness)
            seen["TPC"] += 1
        else:
            v, r, x, y, z = got.witness
            ball = {w for w in range(g.n) if d(v, w) <= r}
            assert x in ball and y in ball, (g.edges(), got.witness)
            assert z == min(interval(g, d, x, y) - ball), (g.edges(), got.witness)
            seen["INC"] += 1
    assert seen == {"cb": 452, "TPC": 47, "INC": 1006}, seen
    g, d = _gd(cycle_graph(7))
    assert has_convex_balls(g, d).witness == ("TPC", 0, 3, 4)


def test_pc_ic_thick_octahedron_family():
    g, d = _gd(johnson(5, 2)[0])
    assert satisfies_PC(g, d)
    assert satisfies_ICm(g, 3)
    assert is_thick(g)
    g, d = _gd(halved_cube(4)[0])
    assert satisfies_PC(g, d)
    assert satisfies_ICm(g, 4)
    assert is_thick(g)


def test_pc_on_a_byte_table_whose_doubled_diameter_passes_a_byte():
    # K_{2,3} with a 130-vertex path hung on a vertex, vertex 0 mid-path:
    # a lane table, n = 135 bytes a row, of diameter 132.  satisfies_PC
    # packs a row one distance a field; a field that held 2 diam = 264
    # would take two bytes, and a byte row of odd length is no whole number
    # of such fields.  The witness is the first square, then its least u,
    # as a plain scan of every u on every square finds it.
    g = dict(_long_tables())["K_2,3+P_130/mid"]
    d = all_pairs_distances(g)
    assert (g.n, 2 * max(g.dist0), d.diameter) == (135, 136, 132)
    assert isinstance(d[0], bytes)
    plain = next((u,) + sq for sq in induced_squares(g) for u in range(g.n)
                 if d(u, sq[0]) + d(u, sq[2]) != d(u, sq[1]) + d(u, sq[3]))
    verdict = satisfies_PC(g, d)
    assert not verdict and verdict.witness == plain == (4, 1, 2, 70, 3)


def test_path_not_thick():
    assert not is_thick(path_graph(3))


def test_ic_m_parameter():
    with pytest.raises(ValueError):
        satisfies_ICm(complete_graph(3), 5)


# ------------------------------------------------------- bipartite absolute retracts

def test_bipartiteness():
    bip = is_bipartite(cycle_graph(6))
    assert bip and bip.witness is None
    # C_5 as 0-1-2-3-4-0: 2 and 3 are both at distance 2 from 0
    bip = is_bipartite(cycle_graph(5))
    assert not bip and bip.witness == (2, 3)


def test_bn_hat_absolute_retract():
    g, d = _gd(bn_hat_graph(4))
    assert is_bipartite_absolute_retract(g, d)


def test_trees_absolute_retract():
    g, d = _gd(path_graph(7))
    assert is_bipartite_absolute_retract(g, d)


def test_c6_not_absolute_retract():
    g, d = _gd(cycle_graph(6))
    assert not is_bipartite_absolute_retract(g, d)


def test_retract_rows_agree_with_the_interval_masks():
    # verdict and witness, the first failing pair in scan order, of the
    # distance-row test equal those of the interval-bitset test
    coronene = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    bipartite = [path_graph(7), cycle_graph(8), bn_hat_graph(3),
                 bn_hat_graph(4), hypercube(3)[0], complete_bipartite(3, 3),
                 cartesian_product(path_graph(5), path_graph(5)),
                 cartesian_product(cycle_graph(6), path_graph(3)),
                 benzenoid(BenzenoidSpec(frozenset(coronene))).graph]
    seen = Counter()
    for g in _recognizer_corpus() + bipartite:
        for h in (g, _relabelled(g, 1), _relabelled(g, 2)):
            h, d = _gd(h)
            got = is_bipartite_absolute_retract(h, d)
            assert got == bipartite_absolute_retract_by_masks(h, d), h.edges()
            seen[got.verdict, got.witness == ("not_bipartite",)] += 1
    assert seen[True, False] >= 100 and seen[False, False] >= 25, seen


def test_extension_check_agrees_on_small_graphs():
    for g in (path_graph(5), hypercube(3)[0], cycle_graph(6),
              bn_hat_graph(3)):
        g, d = _gd(g)
        interval_ok = bool(is_bipartite_absolute_retract(g, d))
        ext_ok = bool(absolute_retract_by_extension(g, d, max_n=4))
        assert interval_ok == ext_ok, g.name


# ------------------------------------------------------------- alpha/beta configs

def test_detect_beta():
    g, d = _gd(beta_configuration())
    found = detect_beta_configuration(g)
    assert found is not None
    u, v, interior, outer = found
    assert d(u, v) == 2 and len(interior) == 3


def test_no_beta_in_hypercube():
    g = hypercube(3)[0]
    assert detect_beta_configuration(g) is None
    assert detect_alpha_configuration(g) is None


def test_detect_alpha_types():
    from medgraph.families import alpha_configuration
    for t in (1, 2, 3):
        kind, witness = detect_alpha_configuration(alpha_configuration(t))
        assert kind == t


# ------------------------------------------------------------- labeled embeddings

def test_verify_canonical_labels():
    for g, emb in (hypercube(4), halved_cube(4), johnson(5, 2)):
        d = all_pairs_distances(g)
        assert verify_labeled_embedding(g, d, emb)


def test_labels_roundtrip():
    g, emb = hypercube(3)
    text = write_labels(emb)
    back = read_labels(text, emb.target, emb.k)
    assert back.labels == emb.labels


def test_bad_labels_rejected():
    g, emb = halved_cube(4)
    d = all_pairs_distances(g)
    bad = {v: s for v, s in emb.labels.items()}
    bad[0] = frozenset({0})  # odd-size set is not a halved-cube label
    from medgraph.recognizers import LabeledEmbedding
    with pytest.raises(LabelArity):
        verify_labeled_embedding(g, d, LabeledEmbedding(bad, "halved_cube", emb.k))


# ------------------------------------------------------------ composite verdicts

def test_partial_johnson_criterion():
    g, emb = johnson(5, 2)
    d = all_pairs_distances(g)
    assert connected_medians_partial_johnson(g, d, emb)
    g, d = _gd(cycle_graph(6))
    assert not connected_medians_partial_johnson(g, d, None)


def test_partial_halved_cube_criterion():
    g, emb = halved_cube(4)
    d = all_pairs_distances(g)
    assert connected_medians_partial_halved_cube(g, d, emb)
    g, d = _gd(beta_configuration())
    assert not connected_medians_partial_halved_cube(g, d, None)
