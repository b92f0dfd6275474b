from medgraph.families import complete_graph, cycle_graph, johnson, path_graph
from medgraph.graph import all_pairs_distances
from medgraph.metric import (J_set, Jcirc_set, M_set, interior_interval,
                             interval, is_gated_set)
from reference import _gd, geodesic_vertices_via_dag


def test_interval_cycle():
    g, d = _gd(cycle_graph(6))
    assert interval(g, d, 0, 2) == {0, 1, 2}
    assert interval(g, d, 0, 3) == {0, 1, 2, 3, 4, 5}
    assert interior_interval(g, d, 0, 2) == {1}


def test_interval_matches_geodesic_dag():
    g, d = _gd(cycle_graph(7))
    for u in range(7):
        for v in range(7):
            assert interval(g, d, u, v) == geodesic_vertices_via_dag(g, d, u, v)


def test_gated_edge_in_even_cycle():
    g, d = _gd(cycle_graph(6))
    ok, gates = is_gated_set(g, d, {0, 1})
    assert ok
    assert gates[3] in (0, 1) and gates[4] in (0, 1)


def test_edge_not_gated_in_triangle():
    g, d = _gd(complete_graph(3))
    ok, _ = is_gated_set(g, d, {0, 1})
    assert not ok


def test_j_sets_path():
    g, d = _gd(path_graph(5))
    # every path vertex z has I(z,0) & I(z,4) == {z}
    assert J_set(g, d, 0, 4) == {0, 1, 2, 3, 4}
    assert M_set(g, d, 0, 4) == {2}
    assert Jcirc_set(g, d, 0, 4) == {0, 1, 3, 4}


def test_j_sets_octahedron():
    g, _ = johnson(4, 2)
    d = all_pairs_distances(g)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if d(u, v) == 2]
    for u, v in pairs:
        j = J_set(g, d, u, v)
        assert u in j and v in j
        assert M_set(g, d, u, v) <= j
