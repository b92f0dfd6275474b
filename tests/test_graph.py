from types import SimpleNamespace

import pytest

from medgraph.errors import Disconnected, LoopEdge, ParseError
from medgraph.families import (complete_bipartite, complete_graph, cycle_graph,
                               halved_cube, path_graph,
                               projective_incidence_graph)
from medgraph.graph import (Graph, all_pairs_distances, bfs, build_graph,
                            packed_row, power_graph, read_graph, write_graph)


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


@pytest.mark.parametrize("size", [1, 2, 4, 8, 12, 16])
def test_a_packed_row_holds_each_value_in_its_field(size):
    # value i of the row in bytes size i .. size (i + 1) - 1, for a byte
    # row read as values, one a byte, not as raw bytes of wider values,
    # and for a list row, whose values fill up to 8 bytes of each field
    values = [0, 1, 7, 200, 255, 3]
    want = sum(x << 8 * size * i for i, x in enumerate(values))
    assert packed_row(bytes(values), size) == packed_row(values, size) == want
    if size >= 2:
        wide = [0, 2**(8 * min(size, 8)) - 1, 256, 5]
        assert packed_row(wide, size) == sum(x << 8 * size * i for i, x in enumerate(wide))


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


@pytest.mark.parametrize("text, error, message", [
    ("", ParseError, "empty graph file"),
    ("# only a comment\n\n", ParseError, "empty graph file"),
    ("3 2 1\n0 1\n", ParseError, "bad header line '3 2 1'"),
    ("3 x\n0 1 2\n", ParseError, "bad header line '3 x'"),
    ("4 2\n0 1 2\n", ParseError, "expected 2 edge lines, found 1"),
    ("3 2\n0 1\n1 2\n2 0\n", ParseError, "expected 2 edge lines, found 3"),
    ("4 2\n0 x\n1 2\n", Disconnected, "graph is not connected"),
    ("3 2\n0 1 2\n1\n", ParseError, "bad edge line '0 1 2'"),
    ("2 1\n0 1 0 1 0\n", ParseError, "bad edge line '0 1 0 1 0'"),
    ("3 2\n0\n1 2 3\n", ParseError, "bad edge line '0'"),
    ("3 2\n0 1\n; 2\n", ParseError, "bad edge line '; 2'"),
    ("2 1\n0 1 ;\n", ParseError, "bad edge line '0 1 ;'"),
    ("3 2\n0 1 # edge\n1 2\n", ParseError, "bad edge line '0 1 # edge'"),
    ("3 2\n0 5\n1 x\n", ParseError, "bad edge line '1 x'"),
    ("3 2\n0 5\n1 2\n", ParseError, "edge (0,5) out of range for n=3"),
    ("3 2\n+0 1_0\n1 2\n", ParseError, "edge (0,10) out of range for n=3"),
    ("3 2\n1 1\n1 2\n", LoopEdge, "loop at vertex 1"),
], ids=["empty", "comments-only", "header-three-tokens", "header-before-count",
        "count-before-bound", "count-over", "bound-before-edges", "three-then-one-token",
        "five-tokens",
        "one-then-three-tokens", "separator-token", "trailing-separator", "trailing-comment",
        "bad-line-before-range", "range", "int-syntax", "loop"])
def test_read_graph_messages(text, error, message):
    # each error and the first that applies, in the order header, edge
    # count, n/m bound, the first bad edge line, then the graph's own:
    # the edge lines are read in one pass, and a file with a line of other
    # than two int tokens is read again line by line for the message
    with pytest.raises(error) as info:
        read_graph(text)
    assert type(info.value) is error and str(info.value) == message


def test_read_graph_takes_any_whitespace_between_ends():
    g = read_graph("3 2\n0\t1\n\n# c\n 1  2 \n")
    assert (g.n, g.edges()) == (3, [(0, 1), (1, 2)])


def test_power_graph():
    g = build_graph(5, [(i, i + 1) for i in range(4)])
    g2 = power_graph(g, 2)
    assert g2.has_edge(0, 2) and g2.has_edge(0, 1) and not g2.has_edge(0, 3)
    assert power_graph(g, 1) is g


def _clique_with_tails(k: int, *tails: tuple[int, int]) -> Graph:
    """K_k with a path of `length` vertices hung on clique vertex `at`, for
    each (at, length) in tails."""
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    n = k
    for at, length in tails:
        edges += [(at, n)] + [(x, x + 1) for x in range(n, n + length - 1)]
        n += length
    return build_graph(n, edges)


def test_distances_match_networkx():
    import networkx as nx
    from reference import _recognizer_corpus, _to_nx
    wide = [cycle_graph(41), path_graph(30), complete_bipartite(1, 20)]
    # the table takes byte lanes when 2 ecc(0) < 256, else one bfs per
    # source: P_128 (ecc(0) = 127), C_254, halfH_9 and G_11 take lanes,
    # P_129 (ecc(0) = 128), P_300 from its middle (ecc(0) = 150, diameter
    # 299, past a byte) and K_12 with a 130-vertex tail (ecc(0) = 131, a
    # core of degree 11-12) take bfs
    lanes = [path_graph(128), path_graph(129), cycle_graph(254),
             halved_cube(9)[0], projective_incidence_graph(11),
             build_graph(300, [((x + 150) % 300, (x + 151) % 300)
                               for x in range(299)]),
             _clique_with_tails(12, (11, 130))]
    # dense vertices with sparse rings far out, the slowest lane inputs: a
    # clique vertex ORs its 99 (29, 39) neighbours' balls at every level
    # until the tail's far end retires it; and K_64, where every source
    # retires at level 1 after ORing 63 balls
    lanes += [_clique_with_tails(100, (99, 100)), _clique_with_tails(30, (29, 70)),
              _clique_with_tails(40, (0, 30), (1, 30)), complete_graph(64)]
    for g in _recognizer_corpus() + wide + lanes:
        d = all_pairs_distances(g)
        lengths = dict(nx.all_pairs_shortest_path_length(_to_nx(g)))
        assert [list(row) for row in d.d] == [[lengths[u][v] for v in range(g.n)]
                                              for u in range(g.n)]
    # bfs marks unreached vertices -1, which the connectivity check reads;
    # Graph rejects this disconnected input, so bfs gets its n and adj bare
    halves = SimpleNamespace(n=5, adj=[[1], [0], [3], [2], []])
    assert bfs(halves, 0) == [0, 1, -1, -1, -1]
    assert bfs(halves, 3) == [-1, -1, 1, 0, -1]
