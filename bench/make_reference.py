"""Regenerate the reference answers the benchmark checks against.

    python3 bench/make_reference.py

Writes bench/reference/random_pool.json (seeded connected G(n,q) graphs
with their p(G)) and bench/reference/classify.json (the check verdicts
for the classify corpus).  The answers come from the program at the time
this is run; rerun it only when an answer is meant to change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from medgraph import graph, lp  # noqa: E402
from medgraph.errors import Disconnected  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 2201
POOL_SIZE = 240


def random_pool() -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        n = rng.randint(10, 18)
        q = rng.uniform(0.15, 0.45)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < q]
        try:
            g = graph.build_graph(n, edges)
        except Disconnected:
            continue
        p = lp.compute_p(g, graph.all_pairs_distances(g)).p
        pool.append({"n": n, "q": round(q, 4), "edges": edges, "p": p})
    return pool


def classify_verdicts() -> dict:
    """Verdicts of the check verb on the unrelabelled classify corpus."""
    tmp = HERE / "out" / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, g in workloads.classify_corpus().items():
        path = tmp / f"{name}.graph"
        path.write_text(graph.write_graph(g))
        out[name] = {}
        for cls in workloads.CHECK_CLASSES:
            rc, text, err = workloads._cli(["check", cls, str(path)])
            if rc not in (0, 1):
                raise RuntimeError(f"check {cls} {name}: exit {rc}: {err}")
            out[name][cls] = json.loads(text)["result"]["verdict"]
    return out


def main() -> None:
    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    with open(ref / "classify.json", "w") as fh:
        json.dump(classify_verdicts(), fh, indent=1, sort_keys=True)
    pool = random_pool()
    with open(ref / "random_pool.json", "w") as fh:
        json.dump({"pool_seed": POOL_SEED, "graphs": pool}, fh,
                  separators=(",", ":"))
    print(f"{len(pool)} random graphs, p counts:",
          {p: sum(1 for e in pool if e["p"] == p)
           for p in sorted({e["p"] for e in pool})})


if __name__ == "__main__":
    main()
