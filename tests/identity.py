"""Output-identity harness: one line `label sha256` per input, the hash of
the `repr` of what the library computes on it.

Run it from the root of a checkout, which it imports `medgraph` from:

    python tests/identity.py > identity.txt

Run it in two checkouts and `diff` the outputs: every line that differs
names an input whose output changed.  pytest does not collect this file.
It prints four groups of lines, in this order:

- `compute_p` on 1,580 graphs: the test corpus under 6 labellings (the
  built one and seeds 1..5), the 240 graphs of the benchmark's random pool,
  the 995 connected atlas graphs, 60 seeded random graphs, 200 seeded
  random 3- and 4-regular graphs that pass both gates of the orbit search
  (`gated_regular_graphs`), G_3 under the ten relabellings of its pinned
  `pvalue` test, G_5, G_7, the odd cycles C_25..C_63, C_9xC_10, C_10xC_10
  and the three tables of `reference._long_tables`, with list rows and
  with byte rows;
- `recognizers/...`: the 17 recognizer outputs of `RECOGNIZERS` on 2,512
  instances: the 995 connected atlas graphs, the 240 pool graphs, the six
  graphs of the benchmark's classify corpus, the eight of its
  pvalue-families corpus, the three alpha and one beta configurations and
  the three graphs of `_long_tables`, each as given and relabelled once
  (`_relabelled`, the graph's index as the seed);
- `sets/...`: the sorted `interval` of every ordered pair and the sorted
  `J_set` of every pair u != v, on each of those instances with at most 14
  vertices and on the 60 seeded random graphs;
- `oracle/...`: `brute_force_oracle` at p = 1 and 2 with maximum weight 2
  on each of the 995 connected atlas graphs.
"""
from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

import networkx as nx

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from reference import (_connected_atlas_graphs, _corpus,  # noqa: E402
                       _long_tables, _pool_graphs, _random_connected_graphs,
                       _relabelled)

from medgraph import recognizers as rec  # noqa: E402
from medgraph.benzenoid import BenzenoidSpec, benzenoid  # noqa: E402
from medgraph.families import (alpha_configuration, beta_configuration,  # noqa: E402
                               cartesian_product, cycle_graph, halved_cube,
                               hypercube, johnson, path_graph,
                               projective_incidence_graph)
from medgraph.graph import all_pairs_distances, build_graph  # noqa: E402
from medgraph.lp import _ORBIT_PAIRS, compute_p  # noqa: E402
from medgraph.metric import J_set, interval  # noqa: E402
from medgraph.oracle import brute_force_oracle  # noqa: E402

CORONENE = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

RECOGNIZERS = (
    rec.is_meshed, rec.is_weakly_modular, rec.satisfies_TPC,
    rec.is_weakly_bridged, rec.is_bridged,
    lambda g, d: rec.satisfies_ICm(g, 3), lambda g, d: rec.satisfies_ICm(g, 4),
    rec.is_bipartite_absolute_retract, lambda g, d: rec.is_thick(g),
    rec.satisfies_PC, lambda g, d: rec.detect_alpha_configuration(g),
    lambda g, d: rec.detect_beta_configuration(g),
    rec.connected_medians_partial_johnson,
    rec.connected_medians_partial_halved_cube, rec.has_convex_balls,
    rec.satisfies_INC, rec.is_modular)


def gated_regular_graphs(count, seed=4):
    """count seeded random 3- and 4-regular graphs of 11 to 30 vertices
    that pass both gates of `compute_p`'s orbit search: at least
    _ORBIT_PAIRS pairs at distance 2 or more, and every transmission shared.
    About two in five search, their scans moving past row 0; on a few of
    the smaller ones the search finds only some of the orbits."""
    rng = random.Random(seed)
    while count:
        k = rng.choice((3, 4))
        n = rng.randrange(10, 31, 2 if k == 3 else 1)
        h = nx.random_regular_graph(k, n, seed=rng.randrange(2**31))
        if not nx.is_connected(h):
            continue
        g = build_graph(n, list(h.edges()))
        r = Counter(map(sum, all_pairs_distances(g).d))
        if n * (n - 1) // 2 - g.num_edges() >= _ORBIT_PAIRS and min(r.values()) > 1:
            count -= 1
            yield g


def inputs():
    """(label, graph) for every input of `compute_p`, in a fixed order."""
    for g in _corpus():
        yield f"corpus/{g.name}/0", g
        for seed in range(1, 6):
            yield f"corpus/{g.name}/{seed}", _relabelled(g, seed)
    for prefix, graphs in (("pool", _pool_graphs()),
                           ("atlas", _connected_atlas_graphs(7)),
                           ("random", _random_connected_graphs(60)),
                           ("regular", gated_regular_graphs(200))):
        for i, g in enumerate(graphs):
            yield f"{prefix}/{i}", g
    g3 = projective_incidence_graph(3)
    for seed in range(1, 11):
        yield f"G_3/{seed}", _relabelled(g3, seed)
    for q in (5, 7):
        yield f"G_{q}", projective_incidence_graph(q)
    for n in range(25, 64, 2):
        yield f"C_{n}", cycle_graph(n)
    for n in (9, 10):
        yield f"C_{n}xC_10", cartesian_product(cycle_graph(n), cycle_graph(10))
    yield from _long_tables()


def recognizer_inputs():
    """(label, graph) for the 1,256 graphs of the recognizer lines, each
    followed by its relabelled copy."""
    coronene = benzenoid(BenzenoidSpec(frozenset(CORONENE))).graph
    classify = [hypercube(6)[0], halved_cube(7)[0], johnson(8, 3)[0],
                cartesian_product(path_graph(6), path_graph(6)),
                projective_incidence_graph(3), coronene]
    configurations = [*map(alpha_configuration, (1, 2, 3)), beta_configuration()]
    groups = (("atlas", _connected_atlas_graphs(7)), ("pool", _pool_graphs()),
              ("classify", classify), ("families", _corpus()),
              ("configurations", configurations),
              ("tables", [g for _, g in _long_tables()]))
    index = 0
    for prefix, graphs in groups:
        for i, g in enumerate(graphs):
            yield f"{prefix}/{i}", g
            yield f"{prefix}/{i}/relabelled", _relabelled(g, index)
            index += 1


def _sets(g, d):
    n = g.n
    return [(u, v, sorted(interval(g, d, u, v)),
             sorted(J_set(g, d, u, v)) if u != v else None)
            for u in range(n) for v in range(n)]


def _line(label, out) -> None:
    print(label, hashlib.sha256(repr(out).encode()).hexdigest(), flush=True)


def main() -> None:
    for label, g in inputs():
        _line(label, compute_p(g, all_pairs_distances(g)))
    small = []
    for label, g in recognizer_inputs():
        d = all_pairs_distances(g)
        _line(f"recognizers/{label}", [f(g, d) for f in RECOGNIZERS])
        if g.n <= 14:
            small.append((label, g, d))
    for i, g in enumerate(_random_connected_graphs(60)):
        small.append((f"random/{i}", g, all_pairs_distances(g)))
    for label, g, d in small:
        _line(f"sets/{label}", _sets(g, d))
    for i, g in enumerate(_connected_atlas_graphs(7)):
        d = all_pairs_distances(g)
        _line(f"oracle/atlas/{i}", [brute_force_oracle(g, d, p, 2) for p in (1, 2)])


if __name__ == "__main__":
    main()
