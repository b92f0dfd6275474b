"""Output-identity harness for `compute_p`: one line per input graph,
`label sha256(repr(compute_p(g, d)))`.

Run it from the root of a checkout, which it imports `medgraph` from:

    python tests/identity.py > identity.txt

Run it in two checkouts and `diff` the outputs: every line that differs
names an input whose report changed.  pytest does not collect this file.
The inputs, 1,377 graphs: the test corpus under 6 labellings (the built
one and seeds 1..5), the 240 graphs of the benchmark's random pool, the
995 connected atlas graphs, 60 seeded random graphs, G_3 under the ten
relabellings of its pinned `pvalue` test, G_5, G_7, the odd cycles
C_25..C_63, C_9xC_10 and C_10xC_10.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

from reference import (_connected_atlas_graphs, _corpus, _pool_graphs,  # noqa: E402
                       _random_connected_graphs, _relabelled)

from medgraph.families import (cartesian_product, cycle_graph,  # noqa: E402
                               projective_incidence_graph)
from medgraph.graph import all_pairs_distances  # noqa: E402
from medgraph.lp import compute_p  # noqa: E402


def inputs():
    """(label, graph) for every input, in a fixed order."""
    for g in _corpus():
        yield f"corpus/{g.name}/0", g
        for seed in range(1, 6):
            yield f"corpus/{g.name}/{seed}", _relabelled(g, seed)
    for prefix, graphs in (("pool", _pool_graphs()),
                           ("atlas", _connected_atlas_graphs(7)),
                           ("random", _random_connected_graphs(60))):
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


def main() -> None:
    for label, g in inputs():
        report = compute_p(g, all_pairs_distances(g))
        print(label, hashlib.sha256(repr(report).encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
