import networkx as nx
import pytest

from medgraph.errors import (NotGated, NotInducedIso, NotPrime,
                             ParameterOutOfRange)
from medgraph.families import (FamilySpec, alpha_configuration,
                               beta_configuration, bn_graph, bn_hat_graph,
                               cartesian_product, complete_bipartite,
                               complete_graph, cycle_graph, gated_amalgam,
                               generate, halved_cube, hyperoctahedron,
                               hypercube, johnson, k4_minus, k33_minus,
                               path_graph, projective_incidence_graph,
                               propeller, wheel)
from medgraph.graph import all_pairs_distances
from medgraph.recognizers import verify_labeled_embedding


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    for u in range(g.n):
        for v in g.adj[u]:
            if u < v:
                h.add_edge(u, v)
    return h


def test_basic_counts():
    assert (path_graph(5).n, path_graph(5).num_edges()) == (5, 4)
    assert (cycle_graph(6).n, cycle_graph(6).num_edges()) == (6, 6)
    assert (complete_graph(5).n, complete_graph(5).num_edges()) == (5, 10)
    assert (complete_bipartite(2, 3).n, complete_bipartite(2, 3).num_edges()) == (5, 6)
    assert (hyperoctahedron(3).n, hyperoctahedron(3).num_edges()) == (6, 12)
    assert (wheel(5).n, wheel(5).num_edges()) == (6, 10)
    assert wheel(5, broken=True).num_edges() == 9
    assert (propeller().n, k4_minus().n, k33_minus().n) == (5, 4, 6)


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        path_graph(0)
    with pytest.raises(ParameterOutOfRange):
        cycle_graph(2)
    with pytest.raises(ParameterOutOfRange):
        hypercube(0)
    with pytest.raises(ParameterOutOfRange):
        halved_cube(1)
    with pytest.raises(ParameterOutOfRange):
        johnson(3, 5)
    with pytest.raises(ParameterOutOfRange):
        wheel(2)


def test_octahedron_isomorphisms():
    assert nx.is_isomorphic(_nx(hyperoctahedron(3)), _nx(johnson(4, 2)[0]))
    assert nx.is_isomorphic(_nx(hyperoctahedron(4)), _nx(halved_cube(4)[0]))


def test_halved_cube_is_power_of_smaller_cube():
    from medgraph.graph import power_graph
    for n in (3, 4, 5):
        hq = halved_cube(n)[0]
        sq = power_graph(hypercube(n - 1)[0], 2)
        assert nx.is_isomorphic(_nx(hq), _nx(sq))


def test_bn_is_even_cycle_for_n3():
    assert nx.is_isomorphic(_nx(bn_graph(3)), _nx(cycle_graph(6)))
    g = bn_hat_graph(3)
    assert g.n == 8 and g.has_edge(6, 7)


def test_canonical_labels_verify():
    for g, emb in (hypercube(4), halved_cube(4), johnson(5, 2)):
        d = all_pairs_distances(g)
        assert verify_labeled_embedding(g, d, emb)


def test_generate_dispatch():
    g, emb = generate(FamilySpec("hypercube", {"n": 3}))
    assert g.n == 8 and emb is not None
    g, emb = generate(FamilySpec("cycle", {"n": 5}))
    assert g.n == 5 and emb is None
    with pytest.raises(ParameterOutOfRange):
        generate(FamilySpec("no_such_family", {}))


def test_cartesian_product():
    c4 = cartesian_product(complete_graph(2), complete_graph(2))
    assert nx.is_isomorphic(_nx(c4), _nx(cycle_graph(4)))
    q3 = cartesian_product(cartesian_product(complete_graph(2),
                                             complete_graph(2)),
                           complete_graph(2))
    assert nx.is_isomorphic(_nx(q3), _nx(hypercube(3)[0]))


def test_gated_amalgam_of_hexagons():
    c6 = cycle_graph(6)
    h = complete_graph(2)
    glued = gated_amalgam(c6, c6, {0: 0, 1: 1}, {0: 0, 1: 1})
    assert glued.n == 10 and glued.num_edges() == 11


def test_gated_amalgam_rejects_ungated_site():
    k3 = complete_graph(3)
    h = complete_graph(2)
    # an edge of a triangle has no gate for the opposite vertex
    with pytest.raises(NotGated):
        gated_amalgam(k3, k3, {0: 0, 1: 1}, {0: 0, 1: 1})


def test_gated_amalgam_rejects_non_induced_map():
    c6 = cycle_graph(6)
    with pytest.raises(NotInducedIso):
        gated_amalgam(c6, c6, {0: 0, 1: 2}, {0: 0, 1: 1})


def test_projective_incidence_graph():
    g = projective_incidence_graph(2)
    # 7 points + 7 lines + two apexes
    assert g.n == 16
    u, v = 14, 15
    assert not g.has_edge(u, v)
    assert len(g.adj[u]) == 7 and len(g.adj[v]) == 7
    # each line of the Fano plane contains exactly 3 points
    for line in range(7, 14):
        assert sum(1 for x in g.adj[line] if x < 7) == 3
    g3 = projective_incidence_graph(3)
    assert g3.n == 13 + 13 + 2
    for line in range(13, 26):
        assert sum(1 for x in g3.adj[line] if x < 13) == 4
    with pytest.raises(NotPrime):
        projective_incidence_graph(4)


def test_beta_configuration_variants():
    g = beta_configuration()
    assert g.n == 8
    g2 = beta_configuration(attachment={"a": "u", "b": "v", "c": "u"},
                            extra_edges={"ab"})
    assert g2.num_edges() == g.num_edges() + 1
    with pytest.raises(ParameterOutOfRange):
        beta_configuration(attachment={"a": "x"})


def test_alpha_configuration_sizes():
    assert alpha_configuration(1).n == 10
    assert alpha_configuration(2).n == 14
    assert alpha_configuration(3).n == 17
    with pytest.raises(ParameterOutOfRange):
        alpha_configuration(4)
