import networkx as nx
import pytest

from medgraph.benzenoid import (BenzenoidSpec, benzenoid, edge_class,
                                incomplete_hexagons, read_benzenoid_spec,
                                verify_isometric_embedding)
from medgraph.errors import (DisconnectedHexagons, HoleDetected, ParseError)
from medgraph.families import cycle_graph
from medgraph.graph import all_pairs_distances
from medgraph.metric import is_gated_set
from medgraph.lp import compute_p
from reference import _to_nx


def test_single_hexagon_is_c6():
    bg = benzenoid(BenzenoidSpec(frozenset({(0, 0)})))
    assert bg.graph.n == 6 and bg.graph.num_edges() == 6
    assert nx.is_isomorphic(_to_nx(bg.graph), _to_nx(cycle_graph(6)))
    # each edge class appears twice, so every tree factor is a single edge
    for i in (1, 2, 3):
        cnt = sum(1 for c in bg.edge_classes.values() if c == i)
        assert cnt == 2
    for tree in bg.trees:
        assert tree.n == 2 and tree.num_edges() == 1
    assert verify_isometric_embedding(bg)


def test_naphthalene():
    bg = benzenoid(BenzenoidSpec(frozenset({(0, 0), (1, 0)})))
    assert bg.graph.n == 10 and bg.graph.num_edges() == 11
    assert verify_isometric_embedding(bg)
    assert incomplete_hexagons(bg) == []
    d = all_pairs_distances(bg.graph)
    assert compute_p(bg.graph, d).p == 2


def test_bent_chain_has_incomplete_hexagon():
    spec = BenzenoidSpec(frozenset({(0, 0), (1, 0), (1, 1)}))
    bg = benzenoid(spec)
    assert verify_isometric_embedding(bg)
    paths = incomplete_hexagons(bg)
    assert paths
    d = all_pairs_distances(bg.graph)
    for path in paths:
        assert len(path) == 4
        # the three edges of the path use three distinct classes
        classes = {bg.edge_classes[tuple(sorted((path[i], path[i + 1])))]
                   for i in range(3)}
        assert classes == {1, 2, 3}
        ok, _ = is_gated_set(bg.graph, d, set(path))
        assert ok


def test_full_hexagons_are_gated():
    bg = benzenoid(BenzenoidSpec(frozenset({(0, 0), (1, 0), (1, 1)})))
    d = all_pairs_distances(bg.graph)
    for hexagon in bg.hexagons:
        ok, _ = is_gated_set(bg.graph, d, set(hexagon))
        assert ok


def test_hole_detected():
    ring = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    with pytest.raises(HoleDetected):
        BenzenoidSpec(frozenset(ring))


def test_disconnected_detected():
    with pytest.raises(DisconnectedHexagons):
        BenzenoidSpec(frozenset({(0, 0), (3, 3)}))


def test_edge_class_normalization():
    assert edge_class((0, 0), (2, 0)) == 1
    assert edge_class((2, 0), (0, 0)) == 1
    assert edge_class((0, 0), (1, 2)) == 2
    assert edge_class((1, 2), (0, 0)) == 2
    assert edge_class((0, 0), (1, -2)) == 3


def test_spec_parsing():
    spec = read_benzenoid_spec("# comment\n0 0\n1 0\n")
    assert spec.hexagons == frozenset({(0, 0), (1, 0)})
    with pytest.raises(ParseError):
        read_benzenoid_spec("0\n")
    with pytest.raises(ParseError):
        read_benzenoid_spec("a b\n")


def test_tree_distance_sum_matches_graph_distance():
    bg = benzenoid(BenzenoidSpec(frozenset({(0, 0), (1, 0), (2, 0)})))
    d = all_pairs_distances(bg.graph)
    dists = tuple(all_pairs_distances(t) for t in bg.trees)
    for u in range(bg.graph.n):
        for v in range(bg.graph.n):
            assert bg.tree_distance_sum(dists, u, v) == d(u, v)
