from types import SimpleNamespace

import pytest

from medgraph.errors import Disconnected, LoopEdge, ParseError
from medgraph.families import complete_bipartite, cycle_graph, path_graph
from medgraph.graph import (Graph, all_pairs_distances, bfs, build_graph,
                            power_graph, read_graph, write_graph)


def test_build_and_distances():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    d = all_pairs_distances(g)
    assert d(0, 3) == 3 and d(0, 0) == 0 and d(1, 3) == 2
    assert d.diameter == 3


def test_distance_rows_share_their_ints():
    # CPython caches the ints up to 256 only; every row takes distance k
    # from one shared list, so P_2048's table is not one int per entry
    d = all_pairs_distances(path_graph(300))
    assert d.d[0][280] == d.d[1][281] == 280
    assert d.d[0][280] is d.d[1][281]


def test_neighbour_sets_are_built_on_first_read():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    assert "adj_sets" not in vars(g)
    assert g.adj == [[1], [0, 2], [1, 3], [2]]
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    sets = vars(g)["adj_sets"]
    assert sets == [{1}, {0, 2}, {1, 3}, {2}] and g.adj_sets is sets


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        build_graph(2, [(0, 0)])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize("n", [0, -1])
def test_no_vertex_rejected(n):
    with pytest.raises(Disconnected):
        Graph(n, [])


def test_single_vertex():
    g = Graph(1, [])
    assert all_pairs_distances(g).diameter == 0


def test_out_of_range_rejected():
    with pytest.raises(Exception):
        build_graph(2, [(0, 5)])


def test_read_write_round_trip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    g = read_graph(text)
    assert write_graph(g) == text
    assert write_graph(read_graph(write_graph(g))) == write_graph(g)


def test_read_comments_and_errors():
    g = read_graph("# a path\n3 2\n0 1\n1 2\n")
    assert g.n == 3
    with pytest.raises(ParseError):
        read_graph("3 2\n0 1\n")          # missing edge
    with pytest.raises(ParseError):
        read_graph("nonsense\n")


def test_power_graph():
    g = build_graph(5, [(i, i + 1) for i in range(4)])
    g2 = power_graph(g, 2)
    assert g2.has_edge(0, 2) and g2.has_edge(0, 1) and not g2.has_edge(0, 3)
    assert power_graph(g, 1) is g


def test_distances_match_networkx():
    import networkx as nx
    from reference import _recognizer_corpus, _to_nx
    wide = [cycle_graph(41), path_graph(30), complete_bipartite(1, 20)]
    for g in _recognizer_corpus() + wide:
        d = all_pairs_distances(g)
        lengths = dict(nx.all_pairs_shortest_path_length(_to_nx(g)))
        assert d.d == [[lengths[u][v] for v in range(g.n)] for u in range(g.n)]
    # bfs marks unreached vertices -1, which the connectivity check reads;
    # Graph rejects this disconnected input, so bfs gets its n and adj bare
    halves = SimpleNamespace(n=5, adj=[[1], [0], [3], [2], []])
    assert bfs(halves, 0) == [0, 1, -1, -1, -1]
    assert bfs(halves, 3) == [-1, -1, 1, 0, -1]
