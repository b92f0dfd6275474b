import itertools
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from medgraph.errors import InteriorTooLarge, WrongDistance
from medgraph.families import (alpha_configuration, beta_configuration,
                               cartesian_product, cycle_graph, halved_cube,
                               hypercube, johnson, path_graph,
                               projective_incidence_graph)
from medgraph.graph import Graph, all_pairs_distances, build_graph
import medgraph.lp as lp
from medgraph.lp import (FeasibilityResult, RationalMatrix,
                         alpha_beta_certificate, build_Duv, compute_p,
                         disconnecting_profile, has_Gp_connected_medians,
                         lp_feasible_strict, verify_feasibility_result,
                         witness_to_profile)
from medgraph.medians import Profile, median_set
from medgraph.metric import Jcirc_set, M_set, interior_interval
from reference import (_connected_atlas_graphs, _corpus, _gd, _pool_graphs,
                       _random_connected_graphs, _relabelled,
                       lp_feasible_strict_explicit, solve_pair)


def test_build_duv_entries():
    g, d = _gd(cycle_graph(7))
    mat = build_Duv(g, d, 0, 3)
    # entry at column u is an algebraic zero
    for i in range(len(mat.rows)):
        assert mat.entries[i][mat.cols.index(0)] == 0
    w, x = mat.rows.index(1), mat.cols.index(5)
    assert mat.entries[w][x] == -3

    g4, d4 = _gd(path_graph(4))
    mat4 = build_Duv(g4, d4, 0, 3)
    assert mat4.entries[mat4.rows.index(1)][mat4.cols.index(2)] == 2


def test_build_duv_preconditions():
    g, d = _gd(path_graph(3))
    with pytest.raises(ValueError):
        build_Duv(g, d, 0, 1)


def test_lp_feasible_strict_trivial():
    pos = RationalMatrix(((1,),), (0,), (0,), 0, 0)
    res = lp_feasible_strict(pos)
    assert not res.feasible and res.certificate == (Fraction(1),)
    neg = RationalMatrix(((-1,),), (0,), (0,), 0, 0)
    res = lp_feasible_strict(neg)
    assert res.feasible and res.witness == {0: Fraction(1)}
    # no columns: 0 < 0 fails in every row, and y = 1 certifies it
    res = lp_feasible_strict(RationalMatrix(((), ()), (0, 1), (), 0, 0))
    assert res.certificate == (Fraction(1), Fraction(1))
    # no rows: the empty witness does not verify
    with pytest.raises(AssertionError):
        lp_feasible_strict(RationalMatrix((), (), (0, 1), 0, 0))


def _random_strict_matrices(count=20000, seed=17):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        yield RationalMatrix(
            tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)),
            tuple(range(m)), tuple(range(n)), 0, 0)


def _pool_lp_matrices():
    """The D^uv of the benchmark's random pool that the presolve leaves to
    the simplex."""
    for g in _pool_graphs():
        d = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if d(u, v) >= 2:
                    mat = build_Duv(g, d, u, v)
                    if lp._presolve(mat) is None:
                        yield mat


@pytest.mark.parametrize("matrices, count", [
    (_random_strict_matrices, 20000),
    (_pool_lp_matrices, 2798),
], ids=["random", "pool"])
def test_implicit_artificials_pivot_like_the_stored_ones(monkeypatch, matrices, count):
    """The phase 1 with implied artificial columns makes the pivots of the
    full tableau, also where Bland's rule brings an artificial back: the
    same basis labels, D and stored columns, and the same answer."""
    phases = []
    real = lp._phase1

    def recording(tableau, n_free):
        phases.append(real(tableau, n_free))
        return phases[-1]

    monkeypatch.setattr(lp, "_phase1", recording)
    solved = reentries = 0
    for mat in matrices():
        res = lp_feasible_strict(mat)
        reference, (t_ref, D_ref, basis_ref, k) = lp_feasible_strict_explicit(mat)
        t, D, basis = phases.pop()
        stored = len(mat.cols) + len(mat.entries)    # pi and slack columns
        assert (res, D, basis) == (reference, D_ref, basis_ref)
        assert t == [row[:stored] + row[-1:] for row in t_ref]
        solved += 1
        reentries += k
    assert solved == count and reentries > 0


def test_c7_pair_feasible_and_witness_disconnects():
    g, d = _gd(cycle_graph(7))
    mat = build_Duv(g, d, 0, 3)
    res = lp_feasible_strict(mat)
    assert res.feasible
    assert verify_feasibility_result(g, d, 0, 3, res)
    plus = disconnecting_profile(g, d, 0, 3, witness_to_profile(res.witness))
    assert all(w.denominator == 1 for w in plus.weights.values())
    assert median_set(g, d, plus) == {0, 3}


def test_verify_rejects_corrupted_witness():
    g, d = _gd(cycle_graph(7))
    res = lp_feasible_strict(build_Duv(g, d, 0, 3))
    bad_w = dict(res.witness)
    key = next(iter(bad_w))
    bad_w[key] = -bad_w[key]
    bad = FeasibilityResult("feasible", witness=bad_w, matrix=res.matrix)
    assert not verify_feasibility_result(g, d, 0, 3, bad)


def _ok(status, entries, cols, witness=None, certificate=None):
    mat = RationalMatrix(entries, tuple(range(len(entries))), cols, 0, 0)
    return lp._check_result(FeasibilityResult(status, witness, certificate, mat))


def test_check_rejects_bad_witnesses():
    m = ((-2, 0, 0), (0, -3, 0))
    cols = (5, 6, 7)

    def ok(witness):
        return _ok("feasible", m, cols, witness=witness)

    # both rows exactly -1; then each row in turn just above -1
    assert ok({5: Fraction(1, 2), 6: Fraction(1, 3)})
    assert not ok({5: Fraction(1, 3), 6: Fraction(1, 3)})
    assert not ok({5: Fraction(1, 2), 6: Fraction(1, 4)})
    # a negative weight on an all-zero column: every row still holds
    assert not ok({5: Fraction(1, 2), 6: Fraction(1, 3), 7: Fraction(-1)})
    # a vertex that is not a column
    assert not ok({5: Fraction(1, 2), 6: Fraction(1, 3), 8: Fraction(1)})
    assert not ok({})


def test_check_rejects_bad_certificates():
    m = ((1, -1), (0, 2), (1, 1))
    cols = (0, 1)

    def ok(*y):
        return _ok("infeasible", m, cols, certificate=tuple(map(Fraction, y)))

    assert ok(1, Fraction(1, 2), 0)             # column 1 exactly 0
    assert not ok(1, Fraction(1, 3), 0)         # column 1 is -1/3
    assert not ok(1, 1, Fraction(-1, 2))        # columns >= 0, entry < 0
    assert not ok(0, 0, 0)
    assert not ok(1, Fraction(1, 2))            # one entry per row


def test_pinned_witness_and_certificate():
    # recorded with the rational-arithmetic simplex; pivots are unchanged
    g, d = _gd(cycle_graph(21))
    res = lp_feasible_strict(build_Duv(g, d, 0, 10))
    assert res.witness == {11: Fraction(1, 10), 19: Fraction(1, 10),
                           8: Fraction(1, 20)}
    assert list(res.witness) == [11, 19, 8]
    g, _ = halved_cube(6)
    d = all_pairs_distances(g)
    assert d(0, 7) == 2
    res = lp_feasible_strict(build_Duv(g, d, 0, 7))
    assert res.certificate == (Fraction(1),) * 6


def test_verify_accepts_certificates():
    g, d = _gd(hypercube(3)[0])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if d(u, v) == 2:
                res = lp_feasible_strict(build_Duv(g, d, u, v))
                assert not res.feasible
                assert verify_feasibility_result(g, d, u, v, res)


def test_pair_wc_examples():
    h3, d3 = _gd(hypercube(3)[0])
    u, v = next((u, v) for u in range(8) for v in range(8) if d3(u, v) == 2)
    assert not solve_pair(h3, d3, u, v).feasible
    c7, d7 = _gd(cycle_graph(7))
    assert solve_pair(c7, d7, 0, 3).feasible


def test_has_gp_connected_medians():
    h3, d3 = _gd(hypercube(3)[0])
    assert has_Gp_connected_medians(h3, d3, 1)
    c7, d7 = _gd(cycle_graph(7))
    assert not has_Gp_connected_medians(c7, d7, 2)
    assert has_Gp_connected_medians(c7, d7, 3)


def test_compute_p_values():
    assert compute_p(*_gd(cycle_graph(6))).p == 2
    assert compute_p(*_gd(cycle_graph(7))).p == 3
    assert compute_p(*_gd(path_graph(6))).p == 1
    rep = compute_p(*_gd(cycle_graph(7)))
    assert rep.witness_pair is not None


def _recording_solves(monkeypatch):
    """Record (pair, feasible) of every LP solve."""
    calls = []

    def recording(mat):
        res = lp_feasible_strict(mat)
        calls.append(((mat.u, mat.v), res.feasible))
        return res

    monkeypatch.setattr(lp, "lp_feasible_strict", recording)
    return calls


def test_compute_p_solves_each_pair_once(monkeypatch):
    g, d = _gd(cycle_graph(21))
    calls = _recording_solves(monkeypatch)
    assert compute_p(g, d).p == 10
    # every pair of C_21 has an all-negative column, so no pair reaches
    # the simplex; the one solve is the witness pair's own, where the plain
    # scan made 189
    assert [pair for pair, _ in calls] == [(0, 10)]
    # no pair of G_2 has a one-vertex answer; the 6 pairs of one class get
    # y = 1 from their column sums, and every infeasible pair the row sums
    # leave has a balanced-pair certificate.  The two solves are the two
    # feasible pairs the scan meets, (0, 15) at level 2 and the witness pair
    # (14, 15) of the report, each solved once, where the class key made 3
    calls.clear()
    assert compute_p(*_gd(projective_incidence_graph(2))).p == 3
    assert calls == [((0, 15), True), ((14, 15), True)]


def _recording_builds(monkeypatch):
    """Record the pair of every D^uv built."""
    pairs = []

    def recording(g, d, u, v):
        pairs.append((u, v))
        return build_Duv(g, d, u, v)

    monkeypatch.setattr(lp, "build_Duv", recording)
    return pairs


def test_compute_p_stops_the_report_at_its_first_failing_pair(monkeypatch):
    g, d = _gd(cycle_graph(21))
    builds = _recording_builds(monkeypatch)
    rep = compute_p(g, d)
    # levels 1..9 each stop at (0, k + 1); the report's band 10..18 stops
    # at (0, 10), decided at level 9 by a one-vertex witness, and re-solves
    # it on the matrix built then.  Deciding the whole band made 30 builds.
    assert (rep.p, rep.witness_pair) == (10, (0, 10))
    assert builds == [(0, k) for k in range(2, 11)]


def test_compute_p_re_solves_a_witness_pair_decided_by_its_class(monkeypatch):
    g, d = _gd(cycle_graph(7))
    calls = _recording_solves(monkeypatch)
    plain = compute_p(g, d)
    # every pair of C_7 has a presolve answer; the only solve is the
    # witness pair's own
    assert [pair for pair, _ in calls] == [(0, 3)]
    assert plain.witness_profile == Profile(dict(solve_pair(g, d, 0, 3).witness))
    # With the presolve off, each band is scanned in descending pair order
    # the first time it is asked for, so level 2 decides (3, 6) and the
    # report's scan of the same band meets (0, 3), a pair of the same class
    # under the rotations of C_7.  A feasible answer is never carried over
    # from another pair: (0, 3) is solved on its own matrix, once, and the
    # balanced-pair test, which finds no certificate of a feasible pair,
    # adds no check to the three solves' checks.
    seen = set()
    band = lp._pairs_in_distance_band

    def first_time_descending(d, lo, hi):
        pairs = list(band(d, lo, hi))
        if (lo, hi) not in seen:
            seen.add((lo, hi))
            pairs.reverse()
        return iter(pairs)

    monkeypatch.setattr(lp, "_pairs_in_distance_band", first_time_descending)
    monkeypatch.setattr(lp, "_presolve", lambda mat: None)
    checks = []
    real = lp._check_result

    def recording(res):
        checks.append((res.matrix.u, res.matrix.v))
        return real(res)

    monkeypatch.setattr(lp, "_check_result", recording)
    builds = _recording_builds(monkeypatch)
    calls.clear()
    rep = compute_p(g, d)
    assert [pair for pair, _ in calls] == builds == checks == [(4, 6), (3, 6), (0, 3)]
    assert all(feasible for _, feasible in calls)
    assert (rep.p, rep.witness_pair) == (plain.p, plain.witness_pair) == (3, (0, 3))
    assert rep.witness_profile == plain.witness_profile
    assert rep.disconnecting_profile == plain.disconnecting_profile


def test_witness_pair_is_the_first_feasible_pair_of_last_failing_band():
    for n in (7, 21):
        g, d = _gd(cycle_graph(n))
        rep = compute_p(g, d)
        q = rep.p - 1
        expected = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                        if q + 1 <= d(u, v) <= 2 * q
                        and lp_feasible_strict(build_Duv(g, d, u, v)).feasible)
        assert rep.witness_pair == expected


def test_monotonicity():
    g, d = _gd(cycle_graph(7))
    start = compute_p(g, d).p
    for p in range(start, d.diameter + 1):
        assert has_Gp_connected_medians(g, d, p)


def _assert_eta_is_exact(g, d, u, v, cert):
    """The definition of an alpha/beta certificate, checked in rationals."""
    s_set, eta, comp = cert
    assert s_set and s_set <= interior_interval(g, d, u, v)
    assert set(eta) == set(comp) == s_set
    assert all(e >= 0 for e in eta.values()) and sum(eta.values()) == 1
    mids = M_set(g, d, u, v)
    for s, t in comp.items():
        assert t in s_set
        assert all(d(s, x) + d(t, x) <= d(u, x) + d(v, x) for x in mids)
        if d(s, t) == 2:
            assert eta[s] == eta[t]
    for x in Jcirc_set(g, d, u, v):
        assert 2 * sum(eta[s] for s in s_set if g.has_edge(s, x)) >= 1


def test_alpha_beta_eta_is_exact_on_small_atlas_graphs():
    outcomes = Counter()
    for g in _connected_atlas_graphs(6):
        d = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if d(u, v) == 2:
                    cert = alpha_beta_certificate(g, d, u, v)
                    outcomes["none" if cert is None else "eta"] += 1
                    if cert is not None:
                        _assert_eta_is_exact(g, d, u, v, cert)
    assert outcomes == {"eta": 563, "none": 126}


def test_alpha_beta_eta_is_a_fraction_on_johnson_5_2():
    # integer LP certificates divided by their total stay exact
    g, _ = johnson(5, 2)
    d = all_pairs_distances(g)
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if d(u, v) == 2]
    assert len(pairs) == 15
    for u, v in pairs:
        _, eta, _ = alpha_beta_certificate(g, d, u, v)
        assert all(type(e) is Fraction for e in eta.values())
        assert sum(eta.values()) == 1


def test_solve_eta_keeps_companions_at_distance_two_equal():
    # a=0 and b=1 are at distance 2 (through 5); x=3 sees only c=2 and
    # y=4 sees only a.  Untied, eta = (1/2, 0, 1/2) works; tying b to a
    # forces eta(a) = eta(b) <= 1/4 < 1/2 once eta(c) >= 1/2.
    g = Graph(6, [(3, 2), (4, 0), (0, 5), (5, 1), (2, 5)])
    d = all_pairs_distances(g)
    S, jcirc = (0, 1, 2), [3, 4]
    eta = lp._solve_eta(g, d, 3, 4, S, {0: 0, 1: 1, 2: 2}, jcirc)
    assert eta == {0: Fraction(1, 2), 1: 0, 2: Fraction(1, 2)}
    assert lp._solve_eta(g, d, 3, 4, S, {0: 1, 1: 0, 2: 2}, jcirc) is None


def test_alpha_beta_certificate_square_pair():
    g, _ = johnson(4, 2)
    d = all_pairs_distances(g)
    u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if d(u, v) == 2)
    cert = alpha_beta_certificate(g, d, u, v)
    assert cert is not None
    _assert_eta_is_exact(g, d, u, v, cert)


def test_alpha_beta_certificate_beta_pair_none():
    g = beta_configuration()
    d = all_pairs_distances(g)
    assert alpha_beta_certificate(g, d, 0, 1) is None


def test_alpha_beta_certificate_singleton_interior():
    g, d = _gd(path_graph(3))
    cert = alpha_beta_certificate(g, d, 0, 2)
    assert cert is not None
    _assert_eta_is_exact(g, d, 0, 2, cert)
    s_set, eta, _ = cert
    assert s_set == {1} and eta[1] == 1


@pytest.mark.parametrize("config_type", [1, 2, 3])
def test_alpha_beta_certificate_alpha_configurations_none(config_type):
    g = alpha_configuration(config_type)
    d = all_pairs_distances(g)
    assert alpha_beta_certificate(g, d, 0, 1) is None


@pytest.mark.parametrize("graph, u, v, corrupt", [
    (path_graph(3), 0, 2, "certificate"),       # eta exists: it is the certificate
    (beta_configuration(), 0, 1, "witness"),    # no eta: a witness proves it
], ids=["P_3", "beta"])
def test_alpha_beta_rejects_a_corrupted_lp_answer(monkeypatch, graph, u, v, corrupt):
    d = all_pairs_distances(graph)
    alpha_beta_certificate(graph, d, u, v)
    real = lp._phase1

    def corrupted(tableau, n_free):
        t, D, basis = real(tableau, n_free)
        if corrupt == "certificate":
            t[-1][n_free:-1] = [0] * (len(t) - 1)   # every dual value 0
        else:
            for row in t[:-1]:
                row[-1] = 0                         # every basic variable 0
        return t, D, basis

    monkeypatch.setattr(lp, "_phase1", corrupted)
    with pytest.raises(AssertionError):
        alpha_beta_certificate(graph, d, u, v)


def test_alpha_beta_wrong_distance():
    g, d = _gd(path_graph(4))
    with pytest.raises(WrongDistance):
        alpha_beta_certificate(g, d, 0, 3)


def test_alpha_beta_interior_cap():
    from medgraph.families import hyperoctahedron
    g = hyperoctahedron(6)
    d = all_pairs_distances(g)
    # antipodal pair (0,1) has 10 interior vertices, exceeding the cap
    with pytest.raises(InteriorTooLarge):
        alpha_beta_certificate(g, d, 0, 1)


# --------------------------------------------- compute_p vs the plain scan

def _plain_scan(g, d):
    """The ascending scan with no jumps and no cache: every band in full,
    every pair solved on its own matrix.  Returns p and the failing pairs
    of band p-1 with their own results, in ascending order."""
    solved = {}
    p, failures = 1, []
    while True:
        band = []
        for u, v in lp._pairs_in_distance_band(d, p + 1, 2 * p):
            if (u, v) not in solved:
                solved[u, v] = solve_pair(g, d, u, v)
            if solved[u, v].feasible:
                band.append((u, v, solved[u, v]))
        if not band:
            return p, failures
        p, failures = p + 1, band


def test_compute_p_matches_the_plain_scan():
    graphs = [*_corpus(), *_random_connected_graphs(40), *_connected_atlas_graphs(6)]
    assert len(graphs) == 8 + 40 + 142
    for g in graphs:
        d = all_pairs_distances(g)
        rep = compute_p(g, d)
        p, failures = _plain_scan(g, d)
        assert rep.p == p
        assert [has_Gp_connected_medians(g, d, q) for q in range(1, d.diameter + 1)] \
            == [q >= p for q in range(1, d.diameter + 1)]
        if p == 1:
            assert rep.witness_pair is None
            continue
        # the witness is the plain scan's first own solve of band p-1
        u, v, own = failures[0]
        assert rep.witness_pair == (u, v)
        assert rep.witness_profile == Profile(dict(own.witness))
        assert rep.disconnecting_profile == disconnecting_profile(
            g, d, u, v, witness_to_profile(own.witness))


def test_one_vertex_answers_agree_with_the_plain_solve():
    kinds = Counter()
    for g in [*_corpus(), *_random_connected_graphs(40), *_connected_atlas_graphs(7)]:
        d = all_pairs_distances(g)
        scan, own = lp._pair_verdicts(g, d)
        # every pair at distance 2 or more, in ascending order; the bands
        # of the half-cube and J(7,3) are decided in arrays
        for u, v, res in scan(2, d.diameter):
            plain = solve_pair(g, d, u, v)
            one = lp._presolve(plain.matrix)
            if one is None:
                kinds["undecided"] += 1     # left to the balanced-pair test and the LP
                continue
            row_sum = one.certificate == (1,) * len(plain.matrix.rows)
            kinds["row-sum" if row_sum else one.status] += 1
            assert (res.status, res.certificate, res.witness) == \
                (one.status, one.certificate, one.witness)
            assert (u, v) not in own
            assert one.feasible == plain.feasible
            assert verify_feasibility_result(g, d, u, v, one)
    assert kinds.keys() == {"feasible", "infeasible", "row-sum", "undecided"}


def _one(*entries):
    return lp._presolve(RationalMatrix(
        entries, tuple(range(len(entries))), tuple(range(len(entries[0]))), 0, 0))


def test_one_vertex_answer_sign_boundaries():
    # column 0 holds a 0, so it is no witness, no row is nonnegative, and
    # column 0 sums to -1
    assert _one((0, -1), (-1, 1)) is None
    # column 1 is all negative: {1: 1} is the witness
    assert _one((2, -1), (-3, -2)).witness == {1: Fraction(1)}
    # each row has one -1 and no column is all negative; both columns sum
    # to 0, so y = 1 is the certificate
    assert _one((1, -1), (-1, 1)).certificate == (1, 1)
    # column sums 1 and 0: y = 1; column sums 0 and -1: no answer
    assert _one((2, -1), (-1, 1)).certificate == (1, 1)
    assert _one((1, -2), (-1, 1)) is None
    # an all-zero row is a certificate: 0 >= 0 in every column
    assert _one((-1, 1), (0, 0)).certificate == (0, 1)


def test_one_vertex_answer_is_checked(monkeypatch):
    monkeypatch.setattr(lp, "_check_result", lambda res: False)
    for entries in (((-1, 1), (-1, 0)), ((-1, 1), (0, 0))):
        with pytest.raises(AssertionError, match="one-vertex answer does not verify"):
            _one(*entries)


def test_row_sum_answer_is_checked(monkeypatch):
    real = lp._check_result
    rejected = []

    def rejecting_row_sums(res):
        if res.certificate == (1,) * len(res.matrix.entries):
            rejected.append(res.matrix.entries)
            return False
        return real(res)

    monkeypatch.setattr(lp, "_check_result", rejecting_row_sums)
    with pytest.raises(AssertionError, match="row-sum answer does not verify"):
        _one((1, -1), (-1, 1))
    # on a graph: the first pair of the half-cube is decided by its row sums
    with pytest.raises(AssertionError, match=r"row-sum answer does not verify on pair \(0,"):
        compute_p(*_gd(halved_cube(6)[0]))
    assert len(rejected) == 2


# ------------------------------------------------------ the bulk path

def _bulk_of(*mats):
    """D[pair, row, x] and the valid-row mask for matrices given as entry
    tuples, each padded with rows of -1 to the longest, as `_bulk_array`
    pads them."""
    import numpy as np
    m = max(map(len, mats))
    D = np.full((len(mats), m, len(mats[0][0])), -1, dtype=np.int64)
    for k, entries in enumerate(mats):
        D[k, :len(entries)] = entries
    return D, np.arange(m) < np.array([len(e) for e in mats])[:, None]


_SIGN_BOUNDARIES = [((0, -1), (-1, 1)), ((2, -1), (-3, -2)), ((1, -1), (-1, 1)),
                    ((2, -1), (-1, 1)), ((1, -2), (-1, 1)), ((-1, 1), (0, 0)),
                    ((-1, 1), (-1, 0)), ((-2, 1),), ((1, 0),),
                    ((1, -1), (-1, 2), (-1, 0))]


def test_bulk_tests_agree_with_the_presolve_on_sign_boundaries():
    # one array of the matrices of test_one_vertex_answer_sign_boundaries
    # and a few more, padded to three rows: each pair gets the answer that
    # `_presolve` gives its own matrix, and every answer verifies.  The
    # padding rows add -1 to each column sum, which the row-sum test adds
    # back: ((1, -1), (-1, 1)) sums to (0, 0)
    D, valid = _bulk_of(*_SIGN_BOUNDARIES)
    kind, index = lp._bulk_tests(D, valid)
    assert lp._bulk_verified(D, valid, kind, index, index)[kind != lp._NONE].all()
    for entries, k, i in zip(_SIGN_BOUNDARIES, kind.tolist(), index.tolist()):
        one = _one(*entries)
        m = len(entries)
        assert {lp._NONE: None,
                lp._ROW: ("infeasible", tuple(int(j == i) for j in range(m)), None),
                lp._COLUMN: ("feasible", None, {i: Fraction(1)}),
                lp._ALL_ROWS: ("infeasible", (1,) * m, None)}[k] == \
            (one and (one.status, one.certificate, one.witness)), entries


def test_bulk_check_rejects_a_negative_column_sum_and_a_zero_in_the_witness():
    # column sums (0, -1) and (1, -1): one negative sum is enough to reject
    # y = 1, and a witness column holding a 0 in one row is no witness
    D, valid = _bulk_of(((1, -1), (-1, 0)), ((2, 0), (-1, -1)), ((-1, 3), (0, 2)),
                        ((-1, 2), (-2, 1)))
    kind = np.array([lp._ALL_ROWS, lp._ALL_ROWS, lp._COLUMN, lp._COLUMN])
    index = np.array([0, 0, 0, 0])
    assert lp._bulk_verified(D, valid, kind, index, index).tolist() == \
        [False, False, False, True]
    # a claimed row must be a valid row of the pair, and nonnegative
    kind = np.array([lp._ROW] * 4)
    index = np.array([1, 0, 1, 1])
    assert lp._bulk_verified(D, valid, kind, index, index).tolist() == \
        [False, True, True, False]
    D, valid = _bulk_of(((1, 1),), ((0, 0), (-1, -1)))
    index = np.array([1, 0])
    assert lp._bulk_verified(D, valid, kind[:2], index, index).tolist() == [False, True]


def test_bulk_answer_is_checked(monkeypatch):
    # the bulk twin of test_row_sum_answer_is_checked.  The scan of the
    # band of the half-cube H_7/2 decides its first 31 pairs one by one and
    # the rest in arrays, so pair 31 is the first one decided in an array,
    # by its row sums
    g, d = _gd(halved_cube(7)[0])
    band = list(itertools.islice(lp._pairs_in_distance_band(d, 2, 2), 32))
    u, v = band[31]
    real = lp._bulk_verified

    def rejecting_row_sums(D, valid, kind, index, other):
        return real(D, valid, kind, index, other) & (kind != lp._ALL_ROWS)

    monkeypatch.setattr(lp, "_bulk_verified", rejecting_row_sums)
    with pytest.raises(AssertionError,
                       match=rf"row-sum answer does not verify on pair \({u},{v}\)"):
        compute_p(g, d)
    # a wrong answer from the tests is caught by the real check: column u
    # of D^uv is all zero, so it is no witness
    monkeypatch.setattr(lp, "_bulk_verified", real)
    tests = lp._bulk_tests

    def claiming_column_u(D, valid):
        kind, index = tests(D, valid)
        kind[0], index[0] = lp._COLUMN, u
        return kind, index

    monkeypatch.setattr(lp, "_bulk_tests", claiming_column_u)
    with pytest.raises(AssertionError,
                       match=rf"one-vertex answer does not verify on pair \({u},{v}\)"):
        compute_p(g, d)


def test_compute_p_builds_the_first_31_pairs_and_presolves_the_rest_in_one_stream(
        monkeypatch):
    # H_7/2 and J(8,3) have p = 1, decided by the band 2..2 alone: its
    # first 31 pairs are built one by one, the rest decided in arrays by a
    # single `_bulk_presolve`, and none reaches the balanced-pair test, on
    # either path, or a solve
    bulk = lp._bulk_presolve
    for g in (halved_cube(7)[0], johnson(8, 3)[0]):
        g, d = _gd(g)
        builds = _recording_builds(monkeypatch)
        calls = []
        monkeypatch.setattr(lp, "_bulk_presolve", lambda *a: (
            calls.append(a), bulk(*a))[1])
        for name in ("_balanced", "_bulk_balanced", "lp_feasible_strict"):
            monkeypatch.setattr(lp, name, None)
        assert compute_p(g, d).p == 1
        assert builds == list(itertools.islice(lp._pairs_in_distance_band(d, 2, 2), 31))
        assert len(calls) == 1


def test_a_scan_over_decided_pairs_gives_each_pair_its_own_verdict(monkeypatch):
    # a scan stopped after `stop` pairs, then a scan of the whole band: the
    # second one streams only the pairs the first left undecided, on the
    # per-pair path and, at gate 1, through the bulk path's read-ahead, and
    # every verdict and solved pair equals that of one fresh scan
    for g in _corpus():
        d = all_pairs_distances(g)
        for gate in (sys.maxsize, 32, 1):
            monkeypatch.setattr(lp, "_BULK_PAIRS", gate)
            scan, own = lp._pair_verdicts(g, d)
            fresh = [repr(t) for t in scan(2, d.diameter)], own
            for stop in (1, 20, 40):
                scan, own = lp._pair_verdicts(g, d)
                list(itertools.islice(scan(2, d.diameter), stop))
                assert ([repr(t) for t in scan(2, d.diameter)], own) == fresh, \
                    (g.name, gate, stop)


# ------------------------------------------- balanced-pair certificates

def _torus(n):
    return cartesian_product(cycle_graph(n), cycle_graph(n))


def test_balanced_pairs_leave_only_feasible_pairs_to_the_simplex(monkeypatch):
    # every pair that the presolve leaves and no balanced pair certifies is
    # solved, and on these graphs each of them is feasible: the witness
    # re-solve on C_21 and coronene, and the one or two feasible pairs the
    # scan meets on C_10 x C_10, G_5 and G_2.  A class key on the pairs the
    # presolve leaves made 1, 9, 4, 3 and 3 solves.
    calls = _recording_solves(monkeypatch)
    coronene = list(_corpus())[-1]
    for g, solves in ((cycle_graph(21), 1), (_torus(10), 1), (coronene, 1),
                      (projective_incidence_graph(5), 2),
                      (projective_incidence_graph(2), 2)):
        calls.clear()
        compute_p(*_gd(g))
        assert len(calls) == solves and all(f for _, f in calls), (g.name, calls)


def test_balanced_pair_sign_boundaries():
    # the pair (0, 22) of C_10 x C_10, at distance 4, is left by the
    # presolve and certified by the corners 2 and 20 of its 3 x 3 interval,
    # where every inequality d(w1,x) + d(w2,x) <= d(u,x) + d(v,x) is an
    # equality: y^T D^uv = 0
    g, d = _gd(_torus(10))
    r = [sum(row) for row in d.d]
    mat = build_Duv(g, d, 0, 22)
    assert lp._presolve(mat) is None
    y = lp._balanced(d, r, mat).certificate
    assert [w for w, yi in zip(mat.rows, y) if yi] == [2, 20] and sum(y) == 2
    assert set(map(sum, zip(*(row for row, yi in zip(mat.entries, y) if yi)))) == {0}
    # the pair (1, 3) of this 7-vertex graph has one balanced pair, {2, 6},
    # and d(2,5) + d(6,5) = d(1,5) + d(3,5) + 1: no certificate, and the
    # pair is feasible
    g, d = _gd(build_graph(7, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 6), (2, 3),
                               (3, 4), (3, 6), (4, 5)]))
    mat = build_Duv(g, d, 1, 3)
    assert mat.rows == (2, 6) and d(2, 5) + d(6, 5) == d(1, 5) + d(3, 5) + 1
    assert lp._presolve(mat) is None
    assert lp._balanced(d, [sum(row) for row in d.d], mat) is None
    assert solve_pair(g, d, 1, 3).feasible


def _lowered_column_u(entries, u):
    """entries with column u set to -1 in every row but the last: the sum
    of any two rows is then negative there, while column u is not all
    negative and no row becomes nonnegative."""
    return [row[:u] + (-1,) + row[u + 1:] for row in entries[:-1]] + list(entries[-1:])


def test_a_corrupted_balanced_certificate_raises_on_both_paths(monkeypatch):
    # the balanced-pair test reads the distance table, and its answer is
    # checked on the matrix: with column u of every D^uv lowered, each
    # certificate it finds fails that check.  C_10 x C_10 is scanned pair
    # by pair, then with every pair in arrays.
    g, d = _gd(_torus(10))
    monkeypatch.setattr(lp, "build_Duv", lambda g, d, u, v: replace(
        mat := build_Duv(g, d, u, v), entries=tuple(_lowered_column_u(mat.entries, u))))
    monkeypatch.setattr(lp, "_BULK_PAIRS", sys.maxsize)
    with pytest.raises(AssertionError, match="balanced answer does not verify on pair"):
        compute_p(g, d)
    monkeypatch.setattr(lp, "build_Duv", build_Duv)
    real = lp._bulk_array

    def lowered(dist, us, vs, inside, m):
        D, ws = real(dist, us, vs, inside, m)
        for p, (u, count) in enumerate(zip(us.tolist(), inside.sum(axis=1).tolist())):
            D[p, :count] = _lowered_column_u([tuple(row) for row in D[p, :count]], u)
        return D, ws

    monkeypatch.setattr(lp, "_bulk_array", lowered)
    monkeypatch.setattr(lp, "_BULK_PAIRS", 1)
    with pytest.raises(AssertionError, match="balanced answer does not verify on pair"):
        compute_p(g, d)


def test_bulk_and_per_pair_balanced_verdicts_agree(monkeypatch):
    # the same certificate e_i + e_j from both paths on every pair that the
    # presolve leaves, with every pair in arrays and with every pair on its
    # own, on graphs where the balanced-pair test decides many pairs
    found = Counter()
    per_pair, bulk = lp._balanced, lp._bulk_balanced
    monkeypatch.setattr(lp, "_balanced", lambda d, r, mat: (
        res := per_pair(d, r, mat), found.update(["per pair"] * (res is not None)))[0])
    monkeypatch.setattr(lp, "_bulk_balanced", lambda *a: (
        out := bulk(*a), found.update(["bulk"] * int(out[0].sum())))[0])
    coronene = list(_corpus())[-1]
    for g in (_relabelled(_torus(6), 3), _relabelled(projective_incidence_graph(3), 4),
              _relabelled(coronene, 5)):
        d = all_pairs_distances(g)
        verdicts = []
        for gate in (sys.maxsize, 1):
            monkeypatch.setattr(lp, "_BULK_PAIRS", gate)
            scan, own = lp._pair_verdicts(g, d)
            verdicts.append(([repr(t) for t in scan(2, d.diameter)], own))
        assert verdicts[0] == verdicts[1]
    assert found["per pair"] == found["bulk"] > 100, found


def test_compute_p_keeps_no_matrix_of_an_infeasible_pair():
    import tracemalloc
    g, d = _gd(halved_cube(7)[0])
    tracemalloc.start()
    try:
        assert compute_p(g, d).p == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every pair of the half-cube is infeasible; storing each verdict with
    # its D^uv peaked at 4.9 MB, storing its certificate alone at 0.4 MB
    assert peak < 1.5 * 2**20, peak


def test_band_scans_build_no_level_bitsets(monkeypatch):
    # both presolve routes read a pair's interior from the distance rows;
    # P_2048 built 580 MB of level bitsets when `build_Duv` read them
    calls = Counter()
    for name in ("build_Duv", "_bulk_array"):
        real = getattr(lp, name)
        monkeypatch.setattr(lp, name, lambda *a, real=real, name=name: (
            calls.update([name]), real(*a))[1])
    for g in (cycle_graph(21), projective_incidence_graph(3),
              halved_cube(7)[0], path_graph(300)):
        calls.clear()
        d = all_pairs_distances(g)
        compute_p(g, d)
        assert d._levels is None, g.n
        for p in (1, 2):
            has_Gp_connected_medians(g, d, p)
            assert d._levels is None, (g.n, p)
    # the path's band of distance 2 reaches the per-pair and the bulk paths
    assert calls["build_Duv"] and calls["_bulk_array"], calls


def test_the_bulk_table_is_typed_by_the_band_it_serves(monkeypatch):
    # A band up to distance k holds values of at most n floor(k^2 / 2): 130
    # on band 2 of P_65, so int16, where the former bound 3 n diam^2 took
    # int32.  A band up to the diameter, 64, needs int32: the table is made
    # again, wider, with the old one gone, and kept for a later band.
    import weakref
    g = path_graph(65)
    d = all_pairs_distances(g)
    dtypes = []
    bulk = lp._bulk_presolve
    monkeypatch.setattr(lp, "_bulk_presolve", lambda d, dist, pairs, r: (
        dtypes.append(dist.dtype), bulk(d, dist, pairs, r))[1])
    assert compute_p(g, d).p == 1
    assert dtypes == [np.int16]             # pairs 31..62 of band 2
    tables = []
    real = lp._distance_array

    def spy(d, bound):
        assert all(ref() is None for ref, _, _ in tables)
        dist, top = real(d, bound)
        tables.append((weakref.ref(dist), bound, dist.dtype))
        return dist, top

    monkeypatch.setattr(lp, "_distance_array", spy)
    scan, _ = lp._pair_verdicts(g, d)
    for lo, hi in ((2, 2), (3, 100), (2, 10)):
        assert not any(res.feasible for _, _, res in scan(lo, hi))
    assert [t[1:] for t in tables] == [(130, np.int16),
                                       (65 * (64 * 64 // 2), np.int32)]
    # the int16/int32 boundary of the bound
    assert [real(d, bound)[1] for bound in (32767, 32768)] \
        == [32767, 2 ** 31 - 1]


# ------------------------------------------------- the equitable quotient

def test_quotient_and_plain_verdicts_agree(monkeypatch):
    """With the gate forced to 0, every matrix with a class of two or more
    rows or columns is solved on its quotient, and the lift is checked on
    the matrix.  Its verdict is the plain solve's (the stored-artificial
    tableau of `reference`): on every pair at distance 2 or more of the
    corpus and of relabelled half-cube, Johnson and projective-plane
    graphs, on the matrices the presolve leaves on the random pool, and on
    those of the atlas bands of p = 1, 2."""
    lifted = Counter()
    real = lp._lifted

    def recording(mat, rows, cols):
        res = real(mat, rows, cols)
        lifted[res.status] += 1
        return res

    monkeypatch.setattr(lp, "_lifted", recording)
    monkeypatch.setattr(lp, "_QUOTIENT_ENTRIES", 0)
    symmetric = [_relabelled(g, 5) for g in (
        halved_cube(6)[0], johnson(7, 3)[0], projective_incidence_graph(3))]
    mats = []
    for g in [*_corpus(), *symmetric]:
        d = all_pairs_distances(g)
        mats += [build_Duv(g, d, u, v)
                 for u, v in lp._pairs_in_distance_band(d, 2, d.diameter)]
    mats += _pool_lp_matrices()
    for g in _connected_atlas_graphs(7):
        d = all_pairs_distances(g)
        mats += [mat for u, v in lp._pairs_in_distance_band(d, 2, 4)
                 if lp._presolve(mat := build_Duv(g, d, u, v)) is None]
    for mat in mats:
        assert lp_feasible_strict(mat).feasible \
            == lp_feasible_strict_explicit(mat)[0].feasible, (mat.u, mat.v)
    assert lifted["feasible"] > 100 and lifted["infeasible"] > 1000, lifted


@pytest.mark.parametrize("entries, rows, cols", [
    # one row class: the quotient is row 0 alone, whose witness 1/2 on
    # both columns leaves row 1 at +1
    (((-1, -1), (1, 1)), [0, 0], [0, 0]),
    # the same, the columns apart: the witness {1: 1/3} leaves row 1 at 1/3
    (((1, -3), (-3, 1)), [0, 0], [0, 1]),
    # one class each: the quotient (1) is infeasible, and its certificate,
    # 1 on both rows, gives y^T D = (1, -2)
    (((2, -1), (-1, -1)), [0, 0], [0, 0]),
], ids=["witness", "witness-columns-apart", "certificate"])
def test_a_lift_from_a_partition_that_is_not_equitable_raises(entries, rows, cols):
    mat = RationalMatrix(entries, (0, 1), (0, 1), 0, 1)
    with pytest.raises(AssertionError, match="lifted answer"):
        lp._lifted(mat, rows, cols)
    # the lift from the coarsest equitable partition verifies
    assert lp._lifted(mat, *lp._equitable_partition(entries, 2)).feasible \
        == lp_feasible_strict_explicit(mat)[0].feasible


def test_the_equitable_partition_names_classes_by_signature():
    """Permuting the rows and columns of a matrix permutes its classes and
    keeps their names, and on the witness pair of G_3 the partition is
    1 x 2: every row sums to -48, and columns u, v are 0, after the
    columns of negative sum."""
    g, d = _gd(projective_incidence_graph(3))
    mat = build_Duv(g, d, 26, 27)
    rows, cols = lp._equitable_partition(mat.entries, len(mat.cols))
    assert (set(rows), cols) == ({0}, [0] * 26 + [1, 1])
    assert all(sum(row) == -48 for row in mat.entries)
    rng = random.Random(3)
    for _ in range(5):
        r = rng.sample(range(len(rows)), len(rows))
        c = rng.sample(range(len(cols)), len(cols))
        permuted = [[mat.entries[i][j] for j in c] for i in r]
        assert lp._equitable_partition(permuted, len(c)) \
            == ([rows[i] for i in r], [cols[j] for j in c])
