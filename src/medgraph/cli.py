"""Command-line front end: gen, median, pvalue, check, verify-paper.

All machine-readable output is a single JSON report on stdout.  Exit codes:
0 on success, 1 when a check failed (a false `check` verdict or a failed
verify-paper check), 2 for usage or parse errors.

`main` may be called repeatedly in one process.  The parser is built once,
on the first call, and reused: argparse gives each parse a fresh
`Namespace`, and it reads `sys.stderr` and the terminal width only when it
prints, so no call sees another's arguments or streams.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

from . import benzenoid as bz
from . import families, lp, medians, recognizers
from .errors import (BudgetExceeded, MedgraphError, ParseError, UnknownClass,
                     UnknownSuite)
from .graph import all_pairs_distances, build_graph, read_graph, write_graph
from .medians import Profile, median_set, median_value, local_median_set_p


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator > 1 else x.numerator
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in x]
    return x


def _report(verb: str, inputs: dict, result: dict, start: float) -> int:
    out = {"verb": verb, "inputs": _jsonable(inputs),
           "result": _jsonable(result),
           "wall_time_s": round(time.monotonic() - start, 4)}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _read_graph_file(path: str):
    with open(path) as fh:
        return read_graph(fh.read())


def _load_graph(path: str):
    g = _read_graph_file(path)
    return g, all_pairs_distances(g)


# ----------------------------------------------------------------- gen verb

# the parameters of the families that families.generate does not build
_GEN_OWN_PARAMS = {"benzenoid": (), "beta_configuration": (),
                   "alpha_configuration": ("type",), "projective_plane": ("q",)}


def cmd_gen(args) -> int:
    start = time.monotonic()
    params = {}
    for item in args.params:
        if "=" not in item:
            raise ParseError(f"parameter {item!r} is not key=value")
        key, val = item.split("=", 1)
        if key in params:
            raise ParseError(f"parameter {key!r} is given twice")
        params[key] = int(val)
    if args.family in _GEN_OWN_PARAMS:
        families.check_names(args.family, params, _GEN_OWN_PARAMS[args.family])
    labels = None
    if args.family == "benzenoid":
        if not args.benzenoid_spec:
            raise ParseError("benzenoid needs --benzenoid-spec")
        with open(args.benzenoid_spec) as fh:
            spec = bz.read_benzenoid_spec(fh.read())
        g = bz.benzenoid(spec).graph
    elif args.family == "beta_configuration":
        g = families.beta_configuration()
    elif args.family == "alpha_configuration":
        g = families.alpha_configuration(params.get("type", 1))
    elif args.family == "projective_plane":
        g = families.projective_incidence_graph(params.get("q", 2))
    else:
        g, labels = families.generate(families.FamilySpec(args.family, params))
    if args.labels and labels is None:
        raise ParseError(f"family {args.family} has no canonical labels")
    with open(args.output, "w") as fh:
        fh.write(write_graph(g))
    if args.labels:
        with open(args.labels, "w") as fh:
            fh.write(recognizers.write_labels(labels))
    return _report("gen", {"family": args.family, "params": params},
                   {"n": g.n, "m": g.num_edges(), "output": args.output}, start)


# -------------------------------------------------------------- median verb

def cmd_median(args) -> int:
    start = time.monotonic()
    g, d = _load_graph(args.graph)
    with open(args.profile) as fh:
        pi = medians.read_profile(fh.read(), n=g.n)
    med = median_set(g, d, pi)
    lmed = local_median_set_p(g, d, pi, args.p)
    connected = medians.is_p_connected(g, d, med, args.p)
    return _report("median", {"graph": args.graph, "profile": args.profile,
                              "p": args.p},
                   {"min_value": median_value(g, d, pi, min(med)),
                    "median_set": sorted(med),
                    "local_median_set": sorted(lmed),
                    "median_p_connected": connected,
                    "local_equals_global": med == lmed}, start)


# -------------------------------------------------------------- pvalue verb

def cmd_pvalue(args) -> int:
    start = time.monotonic()
    if args.oracle < 0:
        raise ParseError(f"--oracle must be >= 0, got {args.oracle}")
    g, d = _load_graph(args.graph)
    rep = lp.compute_p(g, d)
    result = {"p": rep.p, "diameter": d.diameter}
    if rep.witness_pair is not None:
        result["witness_pair"] = list(rep.witness_pair)
        result["witness_profile"] = dict(rep.witness_profile.weights)
        result["disconnecting_profile"] = dict(rep.disconnecting_profile.weights)
    if args.oracle:
        from . import oracle        # numpy is loaded only for --oracle
        result["oracle_max_weight"] = args.oracle
        try:
            hit = oracle.brute_force_oracle(g, d, max(1, rep.p - 1), args.oracle) \
                if rep.p > 1 else None
        except BudgetExceeded as exc:
            # the LP answer stands; only the cross-check was not run
            result["oracle_counterexample_below_p"] = None
            result["oracle_agrees"] = None
            result["oracle_budget_exceeded"] = str(exc)
        else:
            result["oracle_counterexample_below_p"] = (
                None if hit is None else
                {"pair": list(hit[0]), "profile": dict(hit[1].weights)})
            result["oracle_agrees"] = (rep.p == 1) == (hit is None)
    return _report("pvalue", {"graph": args.graph}, result, start)


# --------------------------------------------------------------- check verb

# A check that reads the distance table builds it; chordal, thick, IC3/IC4
# (here) and alpha/beta (below) read only the adjacency lists and sets, and
# build none: on a 65536-vertex path the six take 52 MB and 2-3 s in all.
_SIMPLE_CHECKS = {
    "meshed": lambda g: recognizers.is_meshed(g, all_pairs_distances(g)),
    "weakly-modular":
        lambda g: recognizers.is_weakly_modular(g, all_pairs_distances(g)),
    "modular": lambda g: recognizers.is_modular(g, all_pairs_distances(g)),
    "chordal": lambda g: recognizers.is_chordal(g),
    "bridged": lambda g: recognizers.is_bridged(g, all_pairs_distances(g)),
    "weakly-bridged":
        lambda g: recognizers.is_weakly_bridged(g, all_pairs_distances(g)),
    "cb": lambda g: recognizers.has_convex_balls(g, all_pairs_distances(g)),
    "inc": lambda g: recognizers.satisfies_INC(g, all_pairs_distances(g)),
    "tpc": lambda g: recognizers.satisfies_TPC(g, all_pairs_distances(g)),
    "pc": lambda g: recognizers.satisfies_PC(g, all_pairs_distances(g)),
    "ic3": lambda g: recognizers.satisfies_ICm(g, 3),
    "ic4": lambda g: recognizers.satisfies_ICm(g, 4),
    "thick": lambda g: recognizers.is_thick(g),
    "bipartite-absolute-retract": lambda g:
        recognizers.is_bipartite_absolute_retract(g, all_pairs_distances(g)),
}


def cmd_check(args) -> int:
    start = time.monotonic()
    g = _read_graph_file(args.graph)
    name = args.cls
    if name in _SIMPLE_CHECKS:
        verdict = _SIMPLE_CHECKS[name](g)
        result = {"class": verdict.name, "verdict": verdict.verdict,
                  "witness": verdict.witness}
    elif name == "alpha":
        found = recognizers.detect_alpha_configuration(g)
        result = {"class": "alpha_configuration", "verdict": found is not None,
                  "witness": found}
    elif name == "beta":
        found = recognizers.detect_beta_configuration(g)
        result = {"class": "beta_configuration", "verdict": found is not None,
                  "witness": found}
    elif name in ("partial-johnson", "partial-halved-cube"):
        if not args.embedding:
            raise ParseError(f"{name} needs --embedding")
        target = "johnson" if name == "partial-johnson" else "halved_cube"
        with open(args.embedding) as fh:
            emb = recognizers.read_labels(fh.read(), target, k=args.k)
        fn = (recognizers.connected_medians_partial_johnson
              if target == "johnson"
              else recognizers.connected_medians_partial_halved_cube)
        verdict = fn(g, all_pairs_distances(g), emb)
        result = {"class": verdict.name, "verdict": verdict.verdict,
                  "witness": verdict.witness}
    else:
        raise UnknownClass(f"unknown class {name!r}")
    _report("check", {"class": name, "graph": args.graph}, result, start)
    return 0 if result["verdict"] else 1


# -------------------------------------------------------- verify-paper verb
# One list of the paper's checks, _PAPER.  Each claim of the abstract has one
# entry; an entry with no check function is a claim that no check reaches,
# reported under `not_covered`.  The other entries reproduce examples of the
# paper.  Every check is of a fixed example graph, none of a whole class.

_UNIMODAL = "the median function is unimodal in G or G^2 on each class below"
_BRIDGED = "bridged graphs, and so chordal graphs, have G^2-connected medians"
_WEAKLY_BRIDGED = "weakly bridged graphs have G^2-connected medians"
_CONVEX_BALLS = "graphs with convex balls have G^2-connected medians"
_BUCOLIC = "bucolic graphs have G^2-connected medians"
_RETRACTS = "bipartite absolute retracts have G^2-connected medians"
_BENZENOIDS = "benzenoids have G^2-connected medians"
_JOHNSON = ("an isometric subgraph of a Johnson graph has connected medians "
            "iff it is meshed")
_HALVED_CUBE = ("an isometric subgraph of a halved cube has connected medians "
                "iff it is meshed with no alpha or beta configuration")
ABSTRACT_CLAIMS = (_UNIMODAL, _BRIDGED, _WEAKLY_BRIDGED, _CONVEX_BALLS,
                   _BUCOLIC, _RETRACTS, _BENZENOIDS, _JOHNSON, _HALVED_CUBE)


def _cycle_median_pairs() -> list[tuple[str, bool]]:
    checks = []
    for k, m in ((2, 2), (2, 3), (3, 2), (3, 4), (3, 5)):
        g = families.cycle_graph(2 * k + m)
        d = all_pairs_distances(g)
        u, v = 0, m
        x = (-k) % g.n
        pi = Profile({u: k + 1, v: k + 1, x: 1})
        checks += [
            (f"cycle k={k} m={m} d(u,x)==d(v,x)=={k}",
             d(u, x) == k and d(v, x) == k),
            (f"cycle k={k} m={m} Med=={{u,v}}", median_set(g, d, pi) == {u, v}),
            (f"cycle k={k} m={m} {{u,v}} not {m - 1}-connected",
             not medians.is_p_connected(g, d, {u, v}, m - 1)),
        ]
    return checks


def _seven_cycle() -> list[tuple[str, bool]]:
    g = families.cycle_graph(7)
    d = all_pairs_distances(g)
    return [("p(C_7)==3", lp.compute_p(g, d).p == 3),
            ("diam(C_7)==3", d.diameter == 3)]


def _fano_plane() -> list[tuple[str, bool]]:
    g = families.projective_incidence_graph(2)
    d = all_pairs_distances(g)
    u, v = g.n - 2, g.n - 1
    pi = Profile(dict.fromkeys(range(g.n), 1))
    fu = median_value(g, d, pi, u)
    checks = [
        ("F(u)==24", fu == 24),
        ("F(v)==24", median_value(g, d, pi, v) == 24),
        ("F(z)==30 elsewhere",
         all(median_value(g, d, pi, z) == 30
             for z in range(g.n) if z not in (u, v))),
        ("Med=={u,v}", median_set(g, d, pi) == {u, v}),
        ("d(u,v)==3", d(u, v) == 3),
        ("p(G_2)>=3", not lp.has_Gp_connected_medians(g, d, 2)),
        ("compute_p(G_2)>=3", lp.compute_p(g, d).p >= 3),
    ]
    # F fails the local conditions at p=2 and meets them at p=3.  G_2 has
    # diameter 3, so the p=3 band 4..6 is empty and WC and WP hold there
    # vacuously; unimodality and the level sets are checked on every vertex.
    f = medians.median_function(g, d, pi)
    checks += [
        ("F not 2-weakly convex", not medians.is_p_weakly_convex(g, d, f, 2)),
        ("F not 2-weakly peakless", not medians.is_p_weakly_peakless(g, d, f, 2)),
        ("level set {u,v} not 2-isometric",
         medians.level_set(f, fu) == {u, v}
         and not medians.is_p_isometric(g, d, {u, v}, 2)),
        ("F 3-weakly convex", medians.is_p_weakly_convex(g, d, f, 3)),
        ("F 3-weakly peakless", medians.is_p_weakly_peakless(g, d, f, 3)),
        ("F unimodal on G^3", medians.is_unimodal_on_power(g, d, f, 3)),
        ("level sets of F 3-isometric",
         all(medians.is_p_isometric(g, d, medians.level_set(f, a), 3)
             for a in set(f.values))),
    ]
    return checks


def _chordal_examples() -> list[tuple[str, bool]]:
    beta = families.beta_configuration()
    graphs = [beta] + [
        # the tails a, b, c = 5, 6, 7 moved from u = 0 to v = 1
        build_graph(8, [(1, y) if x == 0 and y in moved else (x, y)
                        for x, y in beta.edges()],
                    name=f"beta_configuration, {len(moved)} of its tails on v")
        for moved in ((5,), (5, 6), (5, 6, 7))]
    checks = []
    for g in graphs:
        checks += [(f"{g.name} chordal", recognizers.is_chordal(g).verdict),
                   (f"{g.name} p<=2",
                    lp.compute_p(g, all_pairs_distances(g)).p <= 2)]
    c4 = families.cycle_graph(4)
    return checks + [
        ("C_4 not chordal", not recognizers.is_chordal(c4).verdict),
        ("C_4 not bridged",
         not recognizers.is_bridged(c4, all_pairs_distances(c4)).verdict)]


def _convex_ball_examples() -> list[tuple[str, bool]]:
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    pentagons = [build_graph(n, c5 + extra, name=name) for name, n, extra in (
        ("C_5", 5, []),
        ("C_5 with a leaf", 6, [(0, 5)]),
        ("two C_5 on a vertex", 9, [(0, 5), (5, 6), (6, 7), (7, 8), (8, 0)]),
        ("C_5 with a 3-edge tail", 8, [(2, 5), (5, 6), (6, 7)]),
        ("C_5 with two leaves", 7, [(0, 5), (2, 6)]),
        ("C_5 with a 2-edge tail", 7, [(0, 5), (5, 6)]),
        ("C_5 with a leaf and a 2-edge tail", 8, [(0, 5), (0, 6), (6, 7)]))]
    c6 = families.cycle_graph(6)
    c6_cb = recognizers.has_convex_balls(c6, all_pairs_distances(c6))
    checks = [("C_5 not weakly modular", not recognizers.is_weakly_modular(
        pentagons[0], all_pairs_distances(pentagons[0])).verdict),
              ("C_6 not CB, witness (3, 2, 1, 5, 0)",
               (c6_cb.verdict, c6_cb.witness) == (False, (3, 2, 1, 5, 0)))]
    for g in pentagons + [families.wheel(5), families.propeller()]:
        d = all_pairs_distances(g)
        checks += [(f"{g.name} CB", recognizers.has_convex_balls(g, d).verdict),
                   (f"{g.name} p<=2", lp.compute_p(g, d).p <= 2)]
    return checks + [(f"{g.name} not bridged", not recognizers.is_bridged(
        g, all_pairs_distances(g)).verdict) for g in pentagons]


def _weakly_bridged_examples() -> list[tuple[str, bool]]:
    # the wheels are not chordal, so the bridged entry does not cover them;
    # their rim is checked as an induced cycle, apart from `is_chordal`
    checks = []
    for n in (5, 6, 7):
        g = families.wheel(n)
        d = all_pairs_distances(g)
        checks += [(f"{g.name} weakly bridged",
                    recognizers.is_weakly_bridged(g, d).verdict),
                   (f"{g.name} not chordal: its rim is an induced C_{n}",
                    all(g.has_edge(i, j) == ((j - i) % n in (1, n - 1))
                        for i in range(n) for j in range(i + 1, n))),
                   (f"{g.name} p<=2", lp.compute_p(g, d).p <= 2)]
    broken = families.wheel(5, broken=True)
    return checks + [(f"{broken.name} not weakly bridged",
                      not recognizers.is_weakly_bridged(
                          broken, all_pairs_distances(broken)).verdict)]


def _bucolic_examples() -> list[tuple[str, bool]]:
    # Cartesian products of weakly bridged graphs are bucolic (Bresar,
    # Chalopin, Chepoi, Gologranc & Osajda 2013, "Bucolic complexes", Adv.
    # Math. 243).  A product of two factors with an edge each holds an
    # induced C_4, so these are not weakly bridged, and no entry above
    # covers them.
    checks = []
    for a, b in ((families.wheel(5), families.complete_graph(2)),
                 (families.wheel(5), families.wheel(5)),
                 (families.wheel(6), families.complete_graph(3)),
                 (families.wheel(7), families.path_graph(3))):
        g = families.cartesian_product(a, b)
        d = all_pairs_distances(g)
        checks += [(f"{g.name}: factors weakly bridged",
                    all(recognizers.is_weakly_bridged(f, all_pairs_distances(f)).verdict
                        for f in (a, b))),
                   (f"{g.name} weakly modular, not weakly bridged",
                    recognizers.is_weakly_modular(g, d).verdict
                    and not recognizers.is_weakly_bridged(g, d).verdict),
                   (f"{g.name} p<=2", lp.compute_p(g, d).p <= 2)]
    broken = families.wheel(5, broken=True)
    return checks + [(f"{broken.name}xK_2 not a product of weakly bridged graphs: "
                      f"{broken.name} not weakly bridged",
                      not recognizers.is_weakly_bridged(
                          broken, all_pairs_distances(broken)).verdict)]


def _retract_examples() -> list[tuple[str, bool]]:
    grid = families.cartesian_product(families.path_graph(3), families.path_graph(4))
    checks = []
    for g in (families.cycle_graph(4), grid, families.complete_bipartite(2, 3),
              families.complete_bipartite(3, 3)):
        d = all_pairs_distances(g)
        checks += [(f"{g.name} bipartite absolute retract",
                    recognizers.is_bipartite_absolute_retract(g, d).verdict),
                   (f"{g.name} p<=2", lp.compute_p(g, d).p <= 2)]
    for g in (families.cycle_graph(6), families.hypercube(3)[0]):
        checks.append((f"{g.name} bipartite, not a bipartite absolute retract",
                       recognizers.is_bipartite(g).verdict
                       and not recognizers.is_bipartite_absolute_retract(
                           g, all_pairs_distances(g)).verdict))
    return checks


def _unimodal_examples() -> list[tuple[str, bool]]:
    # the members of the class entries below, five seeded profiles each,
    # and a profile whose median function is unimodal on G^2, not on G
    grid = families.cartesian_product(families.path_graph(3), families.path_graph(4))
    members = [*(families.wheel(n) for n in (5, 6, 7)), families.cycle_graph(4), grid,
               families.complete_bipartite(2, 3), families.complete_bipartite(3, 3),
               families.propeller(), families.beta_configuration()]
    rng = random.Random(5)
    checks = []
    for g in members:
        d = all_pairs_distances(g)
        profiles = [Profile({x: rng.randint(1, 5)
                             for x in rng.sample(range(g.n), rng.randint(1, g.n))})
                    for _ in range(5)]
        checks.append((f"{g.name}: F unimodal on G^2 for 5 seeded profiles",
                       all(medians.is_unimodal_on_power(
                           g, d, medians.median_function(g, d, pi), 2)
                           for pi in profiles)))
    g = families.beta_configuration()
    d = all_pairs_distances(g)
    f = medians.median_function(g, d, Profile({5: 1, 6: 1, 7: 1, 1: 1}))
    return checks + [("beta config profile {5, 6, 7, 1}: F not unimodal on G, "
                      "unimodal on G^2",
                      not medians.is_unimodal_on_power(g, d, f, 1)
                      and medians.is_unimodal_on_power(g, d, f, 2))]


def _benzenoid_examples() -> list[tuple[str, bool]]:
    from .metric import is_gated_set
    checks = []
    systems = {
        "hexagon": [(0, 0)],
        "naphthalene": [(0, 0), (1, 0)],
        "anthracene": [(0, 0), (1, 0), (2, 0)],
        "bent 4-chain": [(0, 0), (1, 0), (1, 1), (2, 1)],
    }
    for name, cells in systems.items():
        bg = bz.benzenoid(bz.BenzenoidSpec(frozenset(cells)))
        d = all_pairs_distances(bg.graph)
        checks.append((f"{name} embedding isometric",
                       bz.verify_isometric_embedding(bg)))
        gated = all(is_gated_set(bg.graph, d, set(h))[0]
                    for h in bg.hexagons + tuple(bz.incomplete_hexagons(bg)))
        checks.append((f"{name} hexagons gated", gated))
        checks.append((f"{name} p<=2", lp.compute_p(bg.graph, d).p <= 2))
    hexagon = bz.benzenoid(bz.BenzenoidSpec(frozenset({(0, 0)}))).graph
    return checks + [("hexagon vertices {0, 3}, at distance 2, not gated",
                      not is_gated_set(hexagon, all_pairs_distances(hexagon),
                                       {0, 3})[0])]


def _johnson_examples() -> list[tuple[str, bool]]:
    checks = []
    for n, k in ((4, 2), (5, 2)):
        g, _ = families.johnson(n, k)
        d = all_pairs_distances(g)
        checks += [(f"J({n},{k}) meshed", recognizers.is_meshed(g, d).verdict),
                   (f"J({n},{k}) p==1", lp.compute_p(g, d).p == 1)]
    return checks


def _halved_cube_examples() -> list[tuple[str, bool]]:
    checks = []
    for n in (4, 5):
        g, _ = families.halved_cube(n)
        d = all_pairs_distances(g)
        checks += [(f"{g.name} thick", recognizers.is_thick(g).verdict),
                   (f"{g.name} PC", recognizers.satisfies_PC(g, d).verdict),
                   (f"{g.name} p==1", lp.compute_p(g, d).p == 1)]
    j52, _ = families.johnson(5, 2)
    dj = all_pairs_distances(j52)
    pairs2 = list(medians._pairs_in_distance_band(dj, 2, 2))
    checks.append(("J(5,2) 15 distance-2 pairs have alpha/beta certificates",
                   len(pairs2) == 15
                   and all(lp.alpha_beta_certificate(j52, dj, u, v) is not None
                           for u, v in pairs2)))
    configs = [("beta", families.beta_configuration())] + [
        (f"alpha type {t}", families.alpha_configuration(t)) for t in (1, 2, 3)]
    for name, g in configs:
        checks.append((f"{name} config (0,1) has no alpha/beta certificate",
                       lp.alpha_beta_certificate(g, all_pairs_distances(g), 0, 1)
                       is None))
    return checks


def _beta_medians() -> list[tuple[str, bool]]:
    g = families.beta_configuration()
    d = all_pairs_distances(g)
    pi = Profile({5: 1, 6: 1, 7: 1, 1: 1})      # tails a, b, c plus v
    return [("beta config local medians != medians",
             local_median_set_p(g, d, pi, 1) != median_set(g, d, pi)),
            ("beta config p==2", lp.compute_p(g, d).p == 2)]


def _products_and_amalgams() -> list[tuple[str, bool]]:
    c6, c7, k2 = (families.cycle_graph(6), families.cycle_graph(7),
                  families.complete_graph(2))
    glued = families.gated_amalgam(c6, c6, {0: 0, 1: 1}, {0: 0, 1: 1})
    return [(f"p({name})=={p}", lp.compute_p(g, all_pairs_distances(g)).p == p)
            for name, g, p in (
                ("C_7 x K_2", families.cartesian_product(c7, k2), 3),
                ("C_6 x C_6", families.cartesian_product(c6, c6), 2),
                ("C_6 amalgam C_6 along an edge", glued, 2))]


# (suite, claim, check function or None), in the order verify-paper runs them
_PAPER = [
    ("cycles", "paper example: in C_{2k+m}, the weights k+1 on u and v, m "
               "apart, and 1 on x make Med = {u, v}, not G^{m-1}-connected",
     _cycle_median_pairs),
    ("cycles", "paper example: p(C_7) = 3, the diameter of C_7", _seven_cycle),
    ("fano", "paper example: the incidence graph G_2 of the Fano plane has "
             "p >= 3; its median function with unit weights fails the local "
             "conditions at p = 2 and meets them at p = 3", _fano_plane),
    ("classes", _UNIMODAL, _unimodal_examples),
    ("classes", _BRIDGED, _chordal_examples),
    ("classes", _WEAKLY_BRIDGED, _weakly_bridged_examples),
    ("classes", _CONVEX_BALLS, _convex_ball_examples),
    ("classes", _BUCOLIC, _bucolic_examples),
    ("classes", _RETRACTS, _retract_examples),
    ("benzenoids", _BENZENOIDS, _benzenoid_examples),
    ("classes", _JOHNSON, _johnson_examples),
    ("classes", _HALVED_CUBE, _halved_cube_examples),
    ("classes", "paper example: in the beta configuration, a chordal graph, "
                "some local medians are not medians, and p = 2", _beta_medians),
    ("classes", "example: Cartesian products and a gated amalgam have the p "
                "of their factors", _products_and_amalgams),
]


def cmd_verify_paper(args) -> int:
    start = time.monotonic()
    entries = [e for e in _PAPER if args.suite in ("all", e[0])]
    if not entries:
        raise UnknownSuite(f"unknown suite {args.suite!r}")
    not_covered = [claim for _, claim, fn in entries if fn is None]
    checks = [{"suite": suite, "claim": claim, "check": label, "passed": passed}
              for suite, claim, fn in entries if fn is not None
              for label, passed in fn()]
    ok = all(c["passed"] for c in checks)
    _report("verify-paper", {"suite": args.suite},
            {"passed": ok, "checks": checks, "not_covered": not_covered}, start)
    return 0 if ok else 1


# ------------------------------------------------------------------- parser

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medgraph",
        description="median sets in graphs, step-p connectivity, and exact "
                    "LP recognition")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph family instance")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*", metavar="key=value")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--labels")
    p_gen.add_argument("--benzenoid-spec")
    p_gen.set_defaults(fn=cmd_gen)

    p_med = sub.add_parser("median", help="median and local median sets")
    p_med.add_argument("graph")
    p_med.add_argument("profile")
    p_med.add_argument("-p", type=int, default=1)
    p_med.set_defaults(fn=cmd_median)

    p_pv = sub.add_parser("pvalue", help="compute p(G)")
    p_pv.add_argument("graph")
    p_pv.add_argument("--oracle", type=int, default=0, metavar="MAXWEIGHT")
    p_pv.set_defaults(fn=cmd_pvalue)

    p_chk = sub.add_parser("check", help="class membership tests")
    p_chk.add_argument("cls", metavar="class")
    p_chk.add_argument("graph")
    p_chk.add_argument("--embedding")
    p_chk.add_argument("-k", type=int, help="Johnson label size")
    p_chk.set_defaults(fn=cmd_check)

    p_vp = sub.add_parser("verify-paper", help="run an acceptance bundle")
    p_vp.add_argument("suite")
    p_vp.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MedgraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
