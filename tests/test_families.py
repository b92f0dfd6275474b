import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import medgraph
from medgraph import families
from medgraph.errors import (NotGated, NotInducedIso, NotPrime,
                             ParameterOutOfRange)
from medgraph.families import (MAX_VERTICES, FamilySpec,
                               alpha_configuration,
                               beta_configuration, bn_graph, bn_hat_graph,
                               cartesian_product, complete_bipartite,
                               complete_graph, cycle_graph, gated_amalgam,
                               generate, halved_cube, hyperoctahedron,
                               hypercube, johnson, k4_minus, k33_minus,
                               path_graph, projective_incidence_graph,
                               propeller, wheel)
from medgraph.graph import all_pairs_distances
from medgraph.metric import interior_interval
from medgraph.recognizers import verify_labeled_embedding
from reference import _to_nx


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
    assert nx.is_isomorphic(_to_nx(hyperoctahedron(3)), _to_nx(johnson(4, 2)[0]))
    assert nx.is_isomorphic(_to_nx(hyperoctahedron(4)), _to_nx(halved_cube(4)[0]))


def test_halved_cube_is_power_of_smaller_cube():
    from medgraph.graph import power_graph
    for n in (3, 4, 5):
        hq = halved_cube(n)[0]
        sq = power_graph(hypercube(n - 1)[0], 2)
        assert nx.is_isomorphic(_to_nx(hq), _to_nx(sq))


def test_bn_is_even_cycle_for_n3():
    assert nx.is_isomorphic(_to_nx(bn_graph(3)), _to_nx(cycle_graph(6)))
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
    with pytest.raises(ParameterOutOfRange, match="takes no parameter k"):
        generate(FamilySpec("cycle", {"n": 5, "k": 3}))
    with pytest.raises(ParameterOutOfRange, match="takes no parameter n"):
        generate(FamilySpec("propeller", {"n": 5}))


def test_cartesian_product():
    c4 = cartesian_product(complete_graph(2), complete_graph(2))
    assert nx.is_isomorphic(_to_nx(c4), _to_nx(cycle_graph(4)))
    q3 = cartesian_product(cartesian_product(complete_graph(2),
                                             complete_graph(2)),
                           complete_graph(2))
    assert nx.is_isomorphic(_to_nx(q3), _to_nx(hypercube(3)[0]))


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
    assert g.n == 8 and g.num_edges() == 15


def test_alpha_configuration_sizes():
    assert alpha_configuration(1).n == 10
    assert alpha_configuration(2).n == 14
    assert alpha_configuration(3).n == 17
    with pytest.raises(ParameterOutOfRange):
        alpha_configuration(4)


def test_alpha_configuration_distances():
    # u, v = 0, 1 at distance 2 with interior s, t, w = 2, 3, 4; apex i,
    # vertex 5 + 4i, is at distance 2 from u and v, 3 from its far interior
    # vertex and 2 from the other two
    for config_type, fars in ((1, [3]), (2, [3, 4]), (3, [3, 4, 2])):
        g = alpha_configuration(config_type)
        d = all_pairs_distances(g)
        assert d(0, 1) == 2 and sorted(interior_interval(g, d, 0, 1)) == [2, 3, 4]
        for i, far in enumerate(fars):
            apex = 5 + 4 * i
            assert [d(apex, x) for x in range(5)] == [2, 2] + [
                3 if x == far else 2 for x in (2, 3, 4)], (config_type, apex)


# (family, params) just over a bound: more than MAX_VERTICES vertices or
# MAX_EDGES edges, while the next smaller parameter is within both bounds
_OVER_THE_BOUNDS = [
    ("path", {"n": MAX_VERTICES + 1}),
    ("cycle", {"n": MAX_VERTICES + 1}),
    ("complete", {"n": 1449}),                          # 1,049,076 edges
    ("complete_bipartite", {"n": 1024, "m": 1025}),     # 1,049,600
    ("hyperoctahedron", {"m": 725}),                    # 1,049,800
    ("wheel", {"n": MAX_VERTICES}),
    ("broken_wheel", {"n": MAX_VERTICES}),
    ("bn", {"n": 1025}),                                # 1,049,600
    ("bn_hat", {"n": 1024}),                            # 1,049,601
    ("johnson", {"n": 1449, "k": 1}),                   # K_1449
    ("projective_plane", {"q": 101}),                   # 1,071,512
]


def test_generators_reject_sizes_over_the_bounds_before_allocating():
    # in a child whose address space is capped at 1 GB: a generator that
    # built its graph before checking the bounds would get there (or run
    # out of memory) instead of raising ParameterOutOfRange
    code = ("import json, resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n"
            "from medgraph import families\n"
            "out = []\n"
            "for family, params in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        families.generate(families.FamilySpec(family, params))\n"
            "        out.append('built')\n"
            "    except Exception as exc:\n"
            "        out.append(f'{type(exc).__name__}: {exc}')\n"
            "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(medgraph.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code,
                           json.dumps(_OVER_THE_BOUNDS)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for case, got in zip(_OVER_THE_BOUNDS, json.loads(proc.stdout)):
        assert got.startswith("ParameterOutOfRange: ") and "would have" in got, \
            (case, got)


@pytest.mark.parametrize("family, params", [
    ("path", {"n": 5}), ("cycle", {"n": 6}), ("complete", {"n": 5}),
    ("complete_bipartite", {"n": 2, "m": 3}), ("hyperoctahedron", {"m": 3}),
    ("wheel", {"n": 5}), ("broken_wheel", {"n": 5}), ("bn", {"n": 4}),
    ("bn_hat", {"n": 3}), ("johnson", {"n": 6, "k": 3}),
    ("projective_plane", {"q": 3}),
])
def test_size_bounds_count_the_graph_they_guard(monkeypatch, family, params):
    # the vertex and edge counts checked before building are exact
    checked = []
    monkeypatch.setattr(families, "_bounded",
                        lambda name, n, m: checked.append((n, m)))
    g = generate(FamilySpec(family, params))[0]
    assert checked == [(g.n, g.num_edges())]
