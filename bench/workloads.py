"""The four benchmark workloads: seeded inputs, jobs and answer checks.

Every call into medgraph goes through a module attribute (`lp.compute_p`,
not a name bound at import), so the tracer sees the benchmark's own calls
too.  A job's `run` is the timed part; its `check` runs afterwards and
returns None or a description of what is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from medgraph import benzenoid, cli, families, graph, lp, medians, oracle

REFERENCE = Path(__file__).resolve().parent / "reference"

CORONENE = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

# p(G) of the ROADMAP corpus; None means "at most 2" (benzenoids).
FAMILY_P = {"C_7": 3, "C_21": 10, "G_2": 3, "G_3": 3, "P_5xC_5": 2,
            "halfH_6": 1, "J(7,3)": 1, "coronene": None}

RANDOM_PER_PASS = 100

CHECK_CLASSES = ("meshed", "weakly-modular", "modular", "chordal", "bridged",
                 "weakly-bridged", "cb", "inc", "tpc", "pc", "ic3", "ic4",
                 "thick", "bipartite-absolute-retract", "alpha", "beta")


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    pass_s: float          # sets the number of passes; see WORKLOADS
    setup: Callable        # (seed, passes, out_dir) -> jobs


# ------------------------------------------------------------ generation

def _gen(family: str, **params) -> graph.Graph:
    return families.generate(families.FamilySpec(family, params))[0]


def family_corpus() -> dict[str, graph.Graph]:
    return {
        "C_7": _gen("cycle", n=7),
        "C_21": _gen("cycle", n=21),
        "G_2": families.projective_incidence_graph(2),
        "G_3": families.projective_incidence_graph(3),
        "P_5xC_5": families.cartesian_product(_gen("path", n=5),
                                              _gen("cycle", n=5)),
        "halfH_6": _gen("halved_cube", n=6),
        "J(7,3)": _gen("johnson", n=7, k=3),
        "coronene": benzenoid.benzenoid(
            benzenoid.BenzenoidSpec(frozenset(CORONENE))).graph,
    }


def classify_corpus() -> dict[str, graph.Graph]:
    return {
        "Q_6": _gen("hypercube", n=6),
        "halfH_7": _gen("halved_cube", n=7),
        "J(8,3)": _gen("johnson", n=8, k=3),
        "P_6xP_6": families.cartesian_product(_gen("path", n=6),
                                              _gen("path", n=6)),
        "G_3": families.projective_incidence_graph(3),
        "coronene": benzenoid.benzenoid(
            benzenoid.BenzenoidSpec(frozenset(CORONENE))).graph,
    }


def relabel(g: graph.Graph, rng: random.Random) -> graph.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph.build_graph(g.n, [(perm[a], perm[b]) for a, b in g.edges()],
                             name=g.name)


def _write(g: graph.Graph, path: Path) -> str:
    path.write_text(graph.write_graph(g))
    return str(path)


def _reference(name: str):
    with open(REFERENCE / name) as fh:
        return json.load(fh)


# ------------------------------------------------------------ CLI jobs

def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _pvalue_job(label: str, g: graph.Graph, path: str,
                expect: Callable[[int], bool]) -> Job:
    d = graph.all_pairs_distances(g)

    def check(output) -> str | None:
        rc, out, err = output
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        res = json.loads(out)["result"]
        p = res["p"]
        if not expect(p):
            return f"p = {p}"
        if res["diameter"] != d.diameter:
            return f"diameter {res['diameter']} != {d.diameter}"
        return _check_pvalue_witness(g, d, res)

    return Job(label, lambda: _cli(["pvalue", path]), check)


def _check_pvalue_witness(g, d, res: dict) -> str | None:
    """The witness pair splits some median set in G^(p-1), and the LP
    witness re-verifies against the full D^uv."""
    p = res["p"]
    if p == 1:
        return "witness reported at p = 1" if "witness_pair" in res else None
    if "witness_pair" not in res:
        return "no witness for p > 1"
    u, v = res["witness_pair"]
    if not p <= d(u, v) <= 2 * (p - 1):
        return f"witness pair at distance {d(u, v)} is outside the band"
    disc = medians.Profile({int(x): Fraction(w) for x, w in
                            res["disconnecting_profile"].items()})
    med = medians.median_set(g, d, disc)
    if med != {u, v}:
        return f"median set {sorted(med)} != witness pair {[u, v]}"
    if medians.is_p_connected(g, d, med, p - 1):
        return f"witness median set is connected in G^{p - 1}"
    witness = {int(x): Fraction(w) for x, w in res["witness_profile"].items()}
    result = lp.FeasibilityResult("feasible", witness=witness)
    if not lp.verify_feasibility_result(g, d, u, v, result):
        return "LP witness does not re-verify"
    return None


# Witness predicates for the check verb: each returns True when the
# reported tuple really violates the class condition.
def _bad_modular(g, d, w):
    a, b, c = w
    return not any(d(a, m) + d(m, b) == d(a, b) and d(b, m) + d(m, c) == d(b, c)
                   and d(a, m) + d(m, c) == d(a, c) for m in range(g.n))


def _bad_meshed(g, d, w):
    u, v, x = w
    common = [c for c in g.adj[v] if c in g.adj_sets[x]]
    return d(v, x) == 2 and not any(2 * d(u, c) <= d(u, v) + d(u, x)
                                    for c in common)


def _bad_cb(g, d, w):
    v, r, x, y, z = w
    return (d(v, x) <= r and d(v, y) <= r and d(v, z) > r
            and d(x, z) + d(z, y) == d(x, y))


def _bad_pc(g, d, w):
    u, v1, v2, v3, v4 = w
    square = all(g.has_edge(a, b) for a, b in ((v1, v2), (v2, v3), (v3, v4),
                                               (v4, v1)))
    return (square and d(v1, v3) == 2 and d(v2, v4) == 2
            and d(u, v1) + d(u, v3) != d(u, v2) + d(u, v4))


def _bad_thick(g, d, w):
    u, v = w
    common = [c for c in g.adj[u] if c in g.adj_sets[v]]
    return d(u, v) == 2 and all(g.has_edge(a, b) for i, a in enumerate(common)
                                for b in common[i + 1:])


def _bad_inc(g, d, w):
    u, v, a, b = w
    return (not g.has_edge(u, v) and u != v and not g.has_edge(a, b)
            and all(g.has_edge(u, x) and d(u, x) + d(x, v) == d(u, v)
                    for x in (a, b)))


_WITNESS_CHECKS = {"modular": _bad_modular, "meshed": _bad_meshed,
                   "cb": _bad_cb, "pc": _bad_pc, "thick": _bad_thick,
                   "inc": _bad_inc}


def _check_job(label: str, g: graph.Graph, d: graph.DistMatrix, path: str,
               cls: str, expected: bool) -> Job:
    def check(output) -> str | None:
        rc, out, err = output
        if rc not in (0, 1):
            return f"exit {rc}: {err.strip()}"
        res = json.loads(out)["result"]
        verdict, witness = res["verdict"], res["witness"]
        if verdict != expected:
            return f"verdict {verdict}, reference {expected}"
        if rc != (0 if verdict else 1):
            return f"exit {rc} for verdict {verdict}"
        # alpha/beta report a configuration when found; the other classes
        # report a counterexample when the verdict is false
        wants_witness = verdict if cls in ("alpha", "beta") else not verdict
        if (witness is not None) != wants_witness:
            return f"witness {witness!r} for verdict {verdict}"
        bad = _WITNESS_CHECKS.get(cls)
        if bad is not None and witness is not None and not bad(g, d, witness):
            return f"witness {witness} does not violate {cls}"
        return None

    return Job(label, lambda: _cli(["check", cls, path]), check)


# ------------------------------------------------------------ workloads

def setup_pvalue_families(seed: int, passes: int, out: Path) -> list[Job]:
    rng = random.Random(f"pvalue-families/{seed}")
    corpus = family_corpus()
    jobs = []
    for k in range(passes):
        for name, g in corpus.items():
            h = relabel(g, rng)
            path = _write(h, out / f"{name}.{k}.graph")
            want = FAMILY_P[name]
            expect = ((lambda p: p <= 2) if want is None
                      else (lambda p, want=want: p == want))
            jobs.append(_pvalue_job(name, h, path, expect))
    return jobs


def setup_pvalue_random(seed: int, passes: int, out: Path) -> list[Job]:
    """A seeded sample of the reference pool, RANDOM_PER_PASS graphs a pass,
    distinct while the pool lasts."""
    rng = random.Random(f"pvalue-random/{seed}")
    pool = _reference("random_pool.json")["graphs"]
    want = passes * RANDOM_PER_PASS
    picks = rng.sample(range(len(pool)), min(want, len(pool)))
    picks += rng.choices(range(len(pool)), k=want - len(picks))
    jobs = []
    for i, idx in enumerate(picks):
        entry = pool[idx]
        h = relabel(graph.build_graph(entry["n"], map(tuple, entry["edges"])),
                    rng)
        path = _write(h, out / f"random{idx}.{i}.graph")
        jobs.append(_pvalue_job(f"random{idx}", h, path,
                                lambda p, want=entry["p"]: p == want))
    return jobs


def setup_classify(seed: int, passes: int, out: Path) -> list[Job]:
    rng = random.Random(f"classify/{seed}")
    reference = _reference("classify.json")
    corpus = classify_corpus()
    jobs = []
    for k in range(passes):
        for name, g in corpus.items():
            h = relabel(g, rng)
            d = graph.all_pairs_distances(h)
            path = _write(h, out / f"{name}.{k}.graph")
            jobs += [_check_job(f"{name}/{cls}", h, d, path, cls,
                                reference[name][cls]) for cls in CHECK_CLASSES]
    return jobs


def atlas_graphs() -> list[graph.Graph]:
    """Connected graphs on 2..7 vertices from the networkx atlas (995)."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g
    out = []
    for h in graph_atlas_g():
        if 2 <= h.number_of_nodes() <= 7 and nx.is_connected(h):
            idx = {v: i for i, v in enumerate(sorted(h.nodes()))}
            out.append(graph.build_graph(
                len(idx), [(idx[a], idx[b]) for a, b in h.edges()],
                name=f"atlas{len(out)}"))
    return out


def _oracle_job(g: graph.Graph, d: graph.DistMatrix, p: int) -> Job:
    def run():
        return (lp.has_Gp_connected_medians(g, d, p),
                oracle.brute_force_oracle(g, d, p, 2))

    def check(output) -> str | None:
        lp_ok, hit = output
        if hit is None:
            return None
        if lp_ok:
            return "oracle found a counterexample but the LP says connected"
        (u, v), pi = hit
        if not p + 1 <= d(u, v) <= 2 * p:
            return f"oracle pair at distance {d(u, v)} is outside the band"
        med = medians.median_set(g, d, pi)
        local = medians.local_median_set_p(g, d, pi, p)
        if medians.is_p_connected(g, d, med, p) and local == med:
            return "oracle profile is not a counterexample"
        return None

    return Job(f"{g.name}/p{p}", run, check)


def setup_oracle_atlas(seed: int, passes: int, out: Path) -> list[Job]:
    rng = random.Random(f"oracle-atlas/{seed}")
    base = atlas_graphs()
    jobs = []
    for _ in range(passes):
        for g in base:
            h = relabel(g, rng)
            d = graph.all_pairs_distances(h)
            jobs += [_oracle_job(h, d, p) for p in (1, 2)]
    return jobs


# A run makes max(1, round(seconds / pass_s)) passes.  These pass_s give
# 3, 2, 2 and 4 passes at --seconds 20, so that a run takes 20-30 s on a
# 2-vCPU VM on a shared host at the defining commit; the count is fixed,
# so a faster program shows as less time, not as more jobs.
WORKLOADS = {w.name: w for w in (
    Workload("pvalue-families", 7.0, setup_pvalue_families),
    Workload("pvalue-random", 8.0, setup_pvalue_random),
    Workload("oracle-atlas", 8.0, setup_oracle_atlas),
    Workload("classify", 5.0, setup_classify),
)}
