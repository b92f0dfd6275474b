import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from medgraph.errors import InteriorTooLarge, WrongDistance
from medgraph.families import (alpha_configuration, beta_configuration,
                               cartesian_product, cycle_graph, halved_cube,
                               hypercube, johnson, path_graph,
                               projective_incidence_graph)
from medgraph.graph import DistMatrix, Graph, all_pairs_distances, build_graph
import medgraph.lp as lp
from medgraph import symmetry
from medgraph.lp import (FeasibilityResult, RationalMatrix,
                         alpha_beta_certificate, build_Duv, compute_p,
                         disconnecting_profile, has_Gp_connected_medians,
                         lp_feasible_strict, verify_feasibility_result)
from medgraph.medians import Profile, median_set
from medgraph.metric import Jcirc_set, M_set, interior_interval
from reference import (Duv_rows_plain, _assert_agrees_with_per_pair,
                       _connected_atlas_graphs, _corpus, _gd, _long_tables,
                       _pool_graphs, _random_connected_graphs, _relabelled,
                       balanced_pair_plain, holds_plain,
                       lp_feasible_strict_explicit, orbits_off, presolve_plain,
                       solve_pair)


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
    assert not res.feasible and res.certificate == {0: 1}
    neg = RationalMatrix(((-1,),), (0,), (0,), 0, 0)
    res = lp_feasible_strict(neg)
    assert res.feasible and res.witness == {0: Fraction(1)}
    # no columns: 0 < 0 fails in every row, and y = 1 certifies it
    res = lp_feasible_strict(RationalMatrix(((), ()), (0, 1), (), 0, 0))
    assert res.certificate == {0: 1, 1: 1}
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
    """The D^uv of the benchmark's random pool that no nonnegative row and
    no all-negative column decides: the simplex's, balanced pairs aside."""
    for g in _pool_graphs():
        d = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if d(u, v) >= 2:
                    mat = build_Duv(g, d, u, v)
                    if all(min(row) < 0 for row in mat.entries) and _no_negative_column(mat):
                        yield mat


def _no_negative_column(mat):
    return all(max(col) >= 0 for col in zip(*mat.entries))


def _kept_columns(mat):
    """The index of the first copy of each distinct nonzero column of mat,
    in order: fewer than its columns iff mat has a zero or repeated one."""
    first = {}
    for j, col in enumerate(zip(*mat.entries)):
        if any(col):
            first.setdefault(col, j)
    return list(first.values())


def _planted_matrices(count=6000, seed=29):
    """Seeded random integer matrices of 1-5 rows and 1-5 columns, with
    1-4 planted columns, each all zero or a copy of another column,
    inserted at random places."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 5)
        cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 4)):
            at = rng.randint(0, len(cols))
            cols.insert(at, [0] * m if rng.random() < 0.3 else list(rng.choice(cols[:at] or cols)))
        yield RationalMatrix(tuple(zip(*cols)), tuple(range(m)), tuple(range(len(cols))), 0, 0)


@pytest.mark.parametrize("matrices, count, with_copies", [
    (_random_strict_matrices, 20000, 2874),
    (_pool_lp_matrices, 4242, 4242),
    (_planted_matrices, 6000, 6000),
], ids=["random", "pool", "planted"])
def test_implicit_artificials_pivot_like_the_stored_ones(monkeypatch, matrices, count,
                                                         with_copies):
    """The phase 1 with implied artificial columns makes the pivots of the
    full tableau that stores them, also where Bland's rule brings an
    artificial back: the same basis labels, the same D, the same stored
    columns (the full tableau's without its artificial ones), and the same
    answer.  with_copies of the matrices have a zero or repeated column,
    every pool and planted one, and in some witnesses of each set a column
    that has a copy is basic: Bland's rule enters the first copy of a
    column, which the reference names too, and never a zero column."""
    phases = []
    real = lp._phase1

    def recording(tableau, n_free):
        phases.append(real(tableau, n_free))
        return phases[-1]

    monkeypatch.setattr(lp, "_phase1", recording)
    solved = reentries = reduced = named = 0
    for mat in matrices():
        res = lp_feasible_strict(mat)
        reference, (t_ref, D_ref, basis_ref, k) = lp_feasible_strict_explicit(mat)
        t, D, basis = phases.pop()
        assert (res, D, basis) == (reference, D_ref, basis_ref)
        stored = len(mat.cols) + len(mat.entries)       # pi and slack columns
        assert t == [row[:stored] + row[-1:] for row in t_ref]
        columns = list(zip(*mat.entries))
        solved += 1
        reentries += k
        reduced += len(_kept_columns(mat)) < len(mat.cols)
        named += any(columns.count(columns[x]) > 1 for x in res.witness or ())
    assert (solved, reduced) == (count, with_copies) and reentries > 0 and named > 0, \
        (solved, reduced, reentries, named)


def test_c7_pair_feasible_and_witness_disconnects():
    g, d = _gd(cycle_graph(7))
    mat = build_Duv(g, d, 0, 3)
    res = lp_feasible_strict(mat)
    assert res.feasible
    assert verify_feasibility_result(g, d, 0, 3, res)
    plus = disconnecting_profile(g, d, 0, 3, res.witness)
    assert all(w.denominator == 1 for w in plus.weights.values())
    assert median_set(g, d, plus) == {0, 3}


def test_verify_rejects_corrupted_witness():
    g, d = _gd(cycle_graph(7))
    res = lp_feasible_strict(build_Duv(g, d, 0, 3))
    bad_w = dict(res.witness)
    key = next(iter(bad_w))
    bad_w[key] = -bad_w[key]
    bad = FeasibilityResult("feasible", witness=bad_w)
    assert not verify_feasibility_result(g, d, 0, 3, bad)


def _ok(status, entries, cols, witness=None, certificate=None):
    mat = RationalMatrix(entries, tuple(range(len(entries))), cols, 0, 0)
    return lp._check_result(mat, FeasibilityResult(status, witness, certificate))


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
    # a certificate is {row vertex: y_w} with every y_w > 0; the rows of m
    # are the vertices 0, 1, 2
    m = ((1, -1), (0, 2), (1, 1))
    cols = (0, 1)

    def ok(y):
        return _ok("infeasible", m, cols, certificate=y)

    half = Fraction(1, 2)
    assert ok({0: 1, 1: half})                  # column 1 exactly 0
    assert not ok({0: 1, 1: Fraction(1, 3)})    # column 1 is -1/3
    assert not ok({0: 1, 1: 1, 2: -half})       # columns >= 0, entry < 0
    assert not ok({})                           # empty: y = 0
    assert not ok({0: 1, 1: half, 2: 0})        # columns >= 0, an entry 0
    assert not ok({0: 1, 1: half, 3: 1})        # 3 is not a row
    # a balanced certificate holds on its two rows of D^uv and on all of
    # them, but not on a matrix that lacks one of the two: {2: 1, 20: 1} on
    # the pair (0, 22) of C_10 x C_10, and {0: 1, 1: 1} on the pair (2, 3)
    # of the path 3-0-1-2, whose two rows are each nonnegative, so that the
    # row left would hold on its own
    for g, (u, v), y in ((_torus(10), (0, 22), {2: 1, 20: 1}),
                         (build_graph(4, [(0, 1), (0, 3), (1, 2)]), (2, 3), {0: 1, 1: 1})):
        g, d = _gd(g)
        full = build_Duv(g, d, u, v)
        w1, w2 = y
        for rows in ((w1, w2), full.rows, (w1,), (w2,), (w1, w1)):
            mat = RationalMatrix(tuple(full.entries[full.rows.index(w)] for w in rows),
                                 rows, full.cols, u, v)
            assert lp._check_result(mat, FeasibilityResult("infeasible", certificate=y)) \
                == (set(y) <= set(rows)), (u, v, rows)


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
    mat = build_Duv(g, d, 0, 7)
    res = lp_feasible_strict(mat)
    assert len(mat.rows) == 6 and res.certificate == dict.fromkeys(mat.rows, 1)


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
    # no pair of G_2 has a one-vertex answer, and every infeasible pair
    # has a balanced-pair certificate.  The two solves are the two
    # feasible pairs the scan meets, (0, 15), where the scan of distance 2
    # stops, and the witness pair (14, 15), where that of distance 3 stops,
    # each solved once, where the class key made 3
    calls.clear()
    assert compute_p(*_gd(projective_incidence_graph(2))).p == 3
    assert calls == [((0, 15), True), ((14, 15), True)]


def test_compute_p_decides_no_pair_twice(monkeypatch):
    """compute_p scans each distance once, up to its first feasible pair,
    and takes its witness pair from that scan, so `_head` meets no pair
    twice: on the test corpus, the random pool, the atlas, and relabelled
    tori C_n x C_n for n = 6..10, G_2, G_3, G_5, 1/2 H_6 and J(7,3), whose
    scans read the rows of orbit roots.  A second scan of the band
    p..2p-2 for the witness pair would decide the pairs at distance p up to
    it again."""
    heads = []
    real = lp._head
    monkeypatch.setattr(lp, "_head", lambda lanes, r, u, v: (
        heads.append((u, v)), real(lanes, r, u, v))[1])
    symmetric = [*(_torus(n) for n in range(6, 11)),
                 *map(projective_incidence_graph, (2, 3, 5)), halved_cube(6)[0],
                 johnson(7, 3)[0]]
    graphs = [*_corpus(), *_pool_graphs(), *_connected_atlas_graphs(7),
              *(_relabelled(g, 11) for g in symmetric)]
    assert len(graphs) == 8 + 240 + 995 + 10
    witnesses = 0
    for g in graphs:
        heads.clear()
        rep = compute_p(*_gd(g))
        assert len(set(heads)) == len(heads), (g.name, heads)
        witnesses += rep.witness_pair in heads
    assert witnesses == 751 + 8, witnesses     # the graphs with p >= 2


def _recording_builds(monkeypatch, g, d):
    """Record the pair of every full D^uv that `_unbalanced` builds: each
    pair whose answer is not a nonnegative row, so that every row is
    built.  The rows it forms with `_lane_sum`, unpacked, equal
    `build_Duv`'s."""
    pairs, built = [], []
    rows, tail = lp._lane_sum, lp._unbalanced

    def recording_rows(lanes, u, v, y):
        row = rows(lanes, u, v, y)
        built.append(lanes.unpack(row))
        return row

    def recording(lanes, u, v, ws):
        built.clear()
        mat, res = tail(lanes, u, v, ws)
        if res is None or res.feasible:
            pairs.append((u, v))
            got = tuple(built)
            assert got == build_Duv(g, d, u, v).entries
        return mat, res

    monkeypatch.setattr(lp, "_lane_sum", recording_rows)
    monkeypatch.setattr(lp, "_unbalanced", recording)
    return pairs


def test_compute_p_stops_the_report_at_its_first_failing_pair(monkeypatch):
    g, d = _gd(cycle_graph(21))
    builds = _recording_builds(monkeypatch, g, d)
    rep = compute_p(g, d)
    # the scan of each distance k = 2..10 stops at (0, k), a feasible pair,
    # so no balanced pair and no nonnegative row decides it and its full
    # D^uv is built; the witness pair (0, 10), decided by a one-vertex
    # witness, is solved again on `build_Duv`'s matrix.  Deciding the whole
    # band made 30 builds.
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
    # With the one-vertex witness on, as here, the scan decides the witness
    # pair (0, 3) by the witness {x: 1}, and compute_p solves it once more,
    # exactly once, on the matrix that `build_Duv` builds for it
    built, solved = [], []
    real_build, recording = lp.build_Duv, lp.lp_feasible_strict
    monkeypatch.setattr(lp, "build_Duv", lambda *a: (built.append(real_build(*a)), built[-1])[1])
    monkeypatch.setattr(lp, "lp_feasible_strict", lambda mat: (
        solved.append(mat), recording(mat))[1])
    calls.clear()
    assert compute_p(g, d) == plain
    assert [pair for pair, _ in calls] == [(0, 3)]
    assert len(built) == len(solved) == 1 and solved[0] is built[0]
    assert built[0] == build_Duv(g, d, 0, 3)
    # With it off, every pair that no balanced pair certifies goes to the
    # LP: the scan of distance 2 stops at (0, 2) and that of distance 3 at
    # (0, 3), each solved on its own matrix in the scan.  The witness's
    # verdict is that solve, with no second solve and no `build_Duv`.  The
    # balanced-pair test and the nonnegative row, which find no certificate
    # of a feasible pair, add no check to the two solves' checks.
    builds = []

    def no_witness(lanes, u, v, rows):
        # `_unbalanced` with no one-vertex witness: every row is built, none
        # is nonnegative, and the pair goes to the LP
        mat = RationalMatrix(tuple(lanes.unpack(lp._lane_sum(lanes, u, v, ((w, 1),)))
                                   for w in rows), rows, tuple(range(g.n)), u, v)
        assert mat == build_Duv(g, d, u, v) and all(min(row) < 0 for row in mat.entries)
        builds.append((u, v))
        return mat, None

    monkeypatch.setattr(lp, "_unbalanced", no_witness)
    checks = []
    real = lp._check_result

    def recording_checks(mat, res):
        checks.append((mat.u, mat.v))
        return real(mat, res)

    monkeypatch.setattr(lp, "_check_result", recording_checks)
    calls.clear()
    built.clear()
    rep = compute_p(g, d)
    assert [pair for pair, _ in calls] == builds == checks == [(0, 2), (0, 3)]
    assert all(feasible for _, feasible in calls) and not built
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
        assert rep.disconnecting_profile == disconnecting_profile(g, d, u, v, own.witness)


def test_one_vertex_answers_agree_with_the_plain_solve(monkeypatch):
    # with the orbit search off every pair at distance 2 or more is decided
    # on its own, in ascending order: each answer is the one that
    # `presolve_plain` finds on the full matrix, a balanced pair, the first
    # nonnegative row, the first all-negative column, in this order
    orbits_off(monkeypatch)
    kinds = Counter()
    for g in [*_corpus(), *_random_connected_graphs(40), *_connected_atlas_graphs(7)]:
        d = all_pairs_distances(g)
        for u, v, res, solved in lp._pair_verdicts(g, d)(2, d.diameter):
            mat = build_Duv(g, d, u, v)
            plain = lp_feasible_strict(mat)     # `solve_pair`
            want = presolve_plain(d, mat)
            if want is None:
                kinds["undecided"] += 1     # left to the LP
                assert solved and res.status == plain.status
                continue
            kind, status, certificate, witness = want
            kinds[kind] += 1
            assert (res.status, res.certificate, res.witness) == (status, certificate, witness)
            assert not solved
            assert res.feasible == plain.feasible
            assert verify_feasibility_result(g, d, u, v, res)
    assert kinds.keys() == {"balanced", "row", "column", "undecided"}, kinds


def _one(monkeypatch, *entries):
    """The `_unbalanced` answer on a pair whose D^uv is entries, its rows
    the vertices 0, 1, ...: its first nonnegative row, the rows being read
    in order, else the witness of its first all-negative column.  The pair
    is (0, 0) of an all-zero table, where `_holds` takes every w != 0 for
    an interior row, and `_lane_sum` gives row w, in lanes, for y = {w: 1}."""
    m, n = len(entries), len(entries[0])

    def rows(lanes, u, v, y):
        ((w, _),) = y
        return sum(e << (lanes.bits * x) for x, e in enumerate(entries[w]))

    monkeypatch.setattr(lp, "_lane_sum", rows)
    return lp._unbalanced(lp._Lanes(DistMatrix([[0] * n] * n)), 0, 0, tuple(range(m)))[1]


def test_one_vertex_answer_sign_boundaries(monkeypatch):
    # column 0 holds a 0, so it is no witness, no row is nonnegative, and
    # column 0 sums to -1
    assert _one(monkeypatch, (0, -1), (-1, 1)) is None
    # column 1 is all negative: {1: 1} is the witness
    assert _one(monkeypatch, (2, -1), (-3, -2)).witness == {1: Fraction(1)}
    # each row has one -1 and no column is all negative: no answer, though
    # both columns sum to 0, so y = 1 is a certificate, which the LP finds
    assert _one(monkeypatch, (1, -1), (-1, 1)) is None
    # column sums 1 and 0, and 0 and -1: no answer
    assert _one(monkeypatch, (2, -1), (-1, 1)) is None
    assert _one(monkeypatch, (1, -2), (-1, 1)) is None
    # an all-zero row is a certificate: 0 >= 0 in every column
    assert _one(monkeypatch, (-1, 1), (0, 0)).certificate == {1: 1}
    # the first nonnegative row, though a later row holds too
    assert _one(monkeypatch, (-1, 1), (0, 1), (1, 0)).certificate == {1: 1}


def test_one_vertex_answer_is_checked(monkeypatch):
    # a nonnegative row is checked by `_holds`: made to fail, it raises
    monkeypatch.setattr(lp, "_holds", lambda lanes, u, v, y: False)
    with pytest.raises(AssertionError, match="one-vertex answer does not verify"):
        _one(monkeypatch, (-1, 1), (0, 0))
    # a column is checked by reading it again, lane by lane, every entry at
    # most -1.  Entries read back negative but above -1, which no integer
    # D^uv has, pass the column's test, the lanes' signs, and fail its check
    lane = lp._Lanes.lane
    monkeypatch.setattr(lp._Lanes, "lane", lambda self, row, x: lane(self, row, x) + Fraction(1, 2))
    with pytest.raises(AssertionError, match="one-vertex answer does not verify"):
        _one(monkeypatch, (-1, 1), (-1, 0))


def test_holds_checks_interior_rows_and_weights():
    # on the pair (0, 2) of the path 0-1-2-3 the one interior row, of 1,
    # is (0, 2, 0, 0).  Row 3 of the same formula is (0, 0, 0, 6) and row 0
    # is all zero, so each is nonnegative, but neither 3 nor u = 0 is an
    # interior row, and a certificate naming one fails
    g, d = _gd(path_graph(4))
    lanes = lp._Lanes(d)
    assert [lanes.unpack(lp._lane_sum(lanes, 0, 2, ((w, 1),))) for w in (1, 3, 0)] == \
        [(0, 2, 0, 0), (0, 0, 0, 6), (0, 0, 0, 0)]
    for y, ok in (({1: 1}, True), ({1: 2}, True), ({}, False), ({1: 0}, False),
                  ({1: -1}, False), ({3: 1}, False), ({1: 1, 3: 1}, False),
                  ({0: 1}, False), ({2: 1}, False)):
        assert lp._holds(lanes, 0, 2, y) is ok, y


def _top_of_lanes(top):
    """A table of integers up to top, not a metric, on the pair (0, 1) at
    distance top.  Rows 2, 3 and 4 are interior, and are top^2 in columns 5
    and 6, where d(0,x) = d(1,x) = top and d(w,x) = 0; rows 2 and 3 are
    -top^2 in column 7, where d(0,x) = d(1,x) = 0 and d(w,x) = top, so a
    sum of two rows reaches 2 top^2 and -2 top^2.  Row 4 is nonnegative.
    Row 5, with d(0,5) = d(1,5) = top, is 2 top^2 in column 5, the largest
    entry the formula makes on any row."""
    h = top // 2
    u = [0, top, 1, top - 1, h, top, top, 0]
    v = [top, 0, top - 1, 1, top - h, top, top, 0]
    rows = [u, v]
    for w in (2, 3):
        rows.append([u[w], v[w], 1, 2, h, 0, 0, top])
    rows.append([(v[4] * a + u[4] * b) // top if x not in (5, 6) else 0
                 for x, (a, b) in enumerate(zip(u, v))])
    rows += [[top] * 5 + [0, top, top], [h] * 8, [top] * 8]
    return DistMatrix(rows)


def _lane_cases():
    """(label, table, pairs) for the tables whose lanes the rows of D^uv
    and `_holds` are checked on: seeded pairs at distance 2 or more, the
    farthest pair among them, 100 of each graph of the test corpus and of
    relabelled family graphs, 8 of each graph of the benchmark's random
    pool and 40 of each long table; and the pair (0, 1) of `_top_of_lanes` at
    the top of 32-bit lanes, one past it, where a sum of two rows,
    2 top^2 = 2^31, needs 64 bits, and at the top of 64-bit lanes."""
    rng = random.Random(53)
    graphs = [("corpus", g, 100) for g in _corpus()]
    graphs += [("family", _relabelled(g, 8), 100) for g in (
        halved_cube(6)[0], johnson(7, 3)[0], projective_incidence_graph(3),
        cartesian_product(path_graph(5), cycle_graph(5)))]
    graphs += [("pool", g, 8) for g in _pool_graphs()]
    graphs += [(label, g, 40) for label, g in _long_tables()]
    for label, g, size in graphs:
        d = all_pairs_distances(g)
        far = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if d(u, v) >= 2]
        if len(far) > size:
            far = [max(far, key=lambda p: d(*p))] + rng.sample(far, size - 1)
        yield label, d, far
    for top in (2**15 - 1, 2**15, 46340, 2**31 - 1):
        yield f"top {top}", _top_of_lanes(top), [(0, 1)]


def test_lane_rows_and_checks_equal_the_plain_formula():
    # every row of D^uv formed in lanes, unpacked, equals the list formula
    # of `reference.Duv_rows_plain`: every row of a table of at most 8
    # vertices, else up to 12 interior rows, u, v and two other rows; the
    # interval read off the lanes of P_u + P_v is the rows w with d(u,w) +
    # d(w,v) = d(u,v), in order; and `_holds` gives the verdict of
    # `reference.holds_plain` on each of those rows alone, on pairs of
    # interior rows, on an interior row of weight 2, and on weights whose
    # sum does not fit the lanes, which it checks in wider ones.  The
    # lanes are 32 bits wide iff a sum of two rows, 2 D^2, fits them
    wide = Counter()
    for label, d, pairs in _lane_cases():
        lanes = lp._Lanes(d)
        assert lanes.bits == (32 if 2 * d.diameter ** 2 < 2**31 else 64), label
        dd = d.d
        for u, v in pairs:
            k = dd[u][v]
            interior = [w for w in range(d.n) if dd[u][w] + dd[v][w] == k and w not in (u, v)]
            if not label.startswith("top"):
                assert lanes.zeros(lanes[u] + lanes[v] - k * lanes.ones) == \
                    sorted(interior + [u, v]), (label, u, v)
            rows = range(d.n) if d.n <= 8 else \
                interior[:6] + interior[-6:] + [u, v, (u + 1) % d.n, d.n - 1]
            got = [lanes.unpack(lp._lane_sum(lanes, u, v, ((w, 1),))) for w in rows]
            assert got == Duv_rows_plain(d, u, v, rows), (label, u, v)
            checks = [{w: 1} for w in rows]
            checks += [{w1: 1, w2: 1} for w1, w2 in zip(interior[:6], interior[1:7])]
            checks += [{w: 2} for w in interior[:3]] + [{w: 2**40} for w in interior[:3]]
            checks += [{interior[0]: 3, interior[-1]: 2**60}]
            for y in checks:
                ok = lp._holds(lanes, u, v, y)
                assert ok == holds_plain(d, u, v, y), (label, u, v, y)
                if sum(y.values()) * k * d.diameter >= 2 ** (lanes.bits - 1):
                    wide[ok] += 1
    assert wide[True] and wide[False], wide


# -------------------------------------------- the rows of orbit roots

def test_compute_p_decides_only_row_0_of_a_vertex_transitive_graph(monkeypatch):
    # H_7/2 and J(8,3) are vertex-transitive, and p = 1 is decided by the
    # band 2..2 alone.  Vertex 0 is the root of the one orbit, so the scan
    # reads row 0 alone: `_head` decides its pairs (0, w), each once.  A
    # balanced pair decides each, as `presolve_plain` finds on the full
    # matrices, so no pair reaches `_unbalanced`, no full D^uv is built and
    # no pair is solved
    head, tail = lp._head, lp._unbalanced
    for g in (halved_cube(7)[0], johnson(8, 3)[0]):
        g, d = _gd(g)
        row = [(0, w) for w in range(1, g.n) if d(0, w) == 2]
        assert {presolve_plain(d, build_Duv(g, d, u, v))[0] for u, v in row} == {"balanced"}
        heads, tails = [], []
        with monkeypatch.context() as m:
            m.setattr(lp, "_head", lambda lanes, r, u, v: (
                heads.append((u, v)), head(lanes, r, u, v))[1])
            m.setattr(lp, "_unbalanced", lambda lanes, u, v, rows: (
                tails.append((u, v)), tail(lanes, u, v, rows))[1])
            for name in ("RationalMatrix", "lp_feasible_strict"):
                m.setattr(lp, name, None)
            assert compute_p(g, d).p == 1
        assert heads == row
        assert tails == []


def test_a_scan_over_decided_pairs_gives_each_pair_its_own_verdict(monkeypatch):
    # a scan stopped after `stop` pairs, then a scan of the whole band: the
    # second one decides every pair again, the orbit search having run or
    # not in the first, and each pair gets the verdict and the solved flag
    # of one fresh scan.  The scan reads the rows of orbit roots alone, and
    # on them it gives every pair the verdict of the plain scan, with the
    # orbit search off
    for g in _corpus():
        d = all_pairs_distances(g)
        fresh = list(lp._pair_verdicts(g, d)(2, d.diameter))
        for stop in (0, 1, 20, 40):
            scan = lp._pair_verdicts(g, d)
            list(itertools.islice(scan(2, d.diameter), stop))
            _assert_agrees_with_per_pair(g, fresh, list(scan(2, d.diameter)))
        rows = {t[0] for t in fresh}
        with monkeypatch.context() as m:
            orbits_off(m)
            plain = [t for t in lp._pair_verdicts(g, d)(2, d.diameter) if t[0] in rows]
            _assert_agrees_with_per_pair(g, plain, fresh)


# ------------------------------------------- balanced-pair certificates

def _torus(n):
    return cartesian_product(cycle_graph(n), cycle_graph(n))


def _balanced(d, u, v, rows):
    """`lp._balanced` on the pair (u, v) of the table d."""
    lanes = lp._Lanes(d)
    return lp._balanced(lanes, [sum(row) for row in d.d], u, v, rows, lanes[u] + lanes[v])


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


def test_balanced_pair_sign_boundaries(monkeypatch):
    # the pair (0, 22) of C_10 x C_10, at distance 4, is left by the
    # presolve and certified by the corners 2 and 20 of its 3 x 3 interval,
    # where every inequality d(w1,x) + d(w2,x) <= d(u,x) + d(v,x) is an
    # equality: y^T D^uv = 0
    g, d = _gd(_torus(10))
    r = [sum(row) for row in d.d]
    mat = build_Duv(g, d, 0, 22)
    assert _no_negative_column(mat) and all(min(row) < 0 for row in mat.entries)
    assert _balanced(d, 0, 22, mat.rows) == (2, 20)
    assert lp._head(lp._Lanes(d), r, 0, 22)[1].certificate == {2: 1, 20: 1}
    assert set(map(sum, zip(*(row for w, row in zip(mat.rows, mat.entries)
                              if w in (2, 20))))) == {0}
    # the pair (1, 3) of this 7-vertex graph has one balanced pair, {2, 6},
    # and d(2,5) + d(6,5) = d(1,5) + d(3,5) + 1: no certificate, and the
    # pair is feasible
    g, d = _gd(build_graph(7, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 6), (2, 3),
                               (3, 4), (3, 6), (4, 5)]))
    mat = build_Duv(g, d, 1, 3)
    assert mat.rows == (2, 6) and d(2, 5) + d(6, 5) == d(1, 5) + d(3, 5) + 1
    assert _no_negative_column(mat)
    assert _balanced(d, 1, 3, mat.rows) is None
    assert solve_pair(g, d, 1, 3).feasible
    # a midpoint w of a pair at even distance k is balanced with itself: its
    # try 2 d(w,x) <= d(u,x) + d(v,x) is row w of D^uv divided by k/2.  On
    # P_3 the row of 1 in D^02 is 0 at u and v: the try holds, and the scan
    # gives e_1.  On C_5 it is -1 at x = 3: the try fails, and the scan
    # gives the one-vertex witness {3: 1}, neither of them a solve
    for g, row, holds in ((path_graph(3), (0, 2, 0), True),
                          (cycle_graph(5), (0, 2, 0, -1, -1), False)):
        g, d = _gd(g)
        mat = build_Duv(g, d, 0, 2)
        assert mat.rows == (1,) and mat.entries == (row,)
        pair = _balanced(d, 0, 2, mat.rows)
        assert pair == ((1, 1) if holds else None)
        want = FeasibilityResult("infeasible", certificate={1: 1}) if holds else \
            FeasibilityResult("feasible", witness={3: Fraction(1)})
        scan = lp._pair_verdicts(g, d)
        assert [(res, solved) for u, v, res, solved in scan(2, 2) if (u, v) == (0, 2)] \
            == [(want, False)]


def test_a_corrupted_balanced_certificate_raises_on_both_paths(monkeypatch):
    # the balanced-pair test reads the packed distance rows, and its answer
    # is checked on the rows of D^uv it names, summed by `_lane_sum`: with
    # column u of each such sum lowered to -1 (column u of D^uv is 0), each
    # certificate the test finds fails that check.  The two paths are a
    # pair of row 0, decided before any search, and a pair decided after
    # the search: with the sums of u >= 1 lowered, the scan of P_64 gets
    # past row 0, searches, finds the mirror i -> 63 - i, and raises on
    # (1, 3), the first pair of row 1, the row of the root of the orbit
    # {1, 62}.  On P_64 each pair is decided by its midpoint, balanced with
    # itself: the check sums that one row
    sums = lp._lane_sum
    search = symmetry.automorphisms
    for g, first, pair in ((_torus(10), 0, ""), (path_graph(64), 0, r" \(0,2\)"),
                           (path_graph(64), 1, r" \(1,3\)")):
        g, d = _gd(g)
        found = []
        monkeypatch.setattr(lp, "_lane_sum", lambda lanes, u, v, y, first=first: (
            sums(lanes, u, v, y) - (1 << lanes.bits * u) if u >= first else sums(lanes, u, v, y)))
        monkeypatch.setattr(symmetry, "automorphisms", lambda *a: (
            out := search(*a), found.append(len(out[0])))[0])
        with pytest.raises(AssertionError, match="balanced answer does not verify on pair" + pair):
            compute_p(g, d)
        assert found == ([1] if first else []), found


def test_balanced_certificates_are_checked_on_the_rows_they_name(monkeypatch):
    # each balanced answer is checked on rows w1 and w2 of D^uv as
    # `build_Duv` builds them, and on no other row: a pair that `_balanced`
    # decides calls `_lane_sum` once, on y = {w1: 1, w2: 1}, {w1: 1} for a
    # midpoint w1 = w2, and the sum it forms, unpacked, is the sum of
    # those rows.  The certificate the scan gives is y.  With the orbit
    # search off, every pair is decided on its own
    orbits_off(monkeypatch)
    g, d = _gd(_relabelled(projective_incidence_graph(3), 2))
    reads, decided = {}, []
    real_sum, real_balanced = lp._lane_sum, lp._balanced

    def recording_sum(lanes, u, v, y):
        y = tuple(y)
        total = real_sum(lanes, u, v, y)
        reads.setdefault((u, v), []).append((y, lanes.unpack(total)))
        return total

    def recording_balanced(lanes, r, u, v, rows, far):
        pair = real_balanced(lanes, r, u, v, rows, far)
        if pair is not None:
            decided.append((u, v))
        return pair

    monkeypatch.setattr(lp, "_lane_sum", recording_sum)
    monkeypatch.setattr(lp, "_balanced", recording_balanced)
    verdicts = {(u, v): res for u, v, res, _ in lp._pair_verdicts(g, d)(2, d.diameter)}
    monkeypatch.setattr(lp, "_lane_sum", real_sum)
    assert len(decided) > 200, len(decided)
    for u, v in decided:
        ((pair, total),) = reads[u, v]
        mat = build_Duv(g, d, u, v)
        i, j = balanced_pair_plain(d, mat)
        y = {mat.rows[i]: 1, mat.rows[j]: 1}
        assert pair == tuple(y.items())
        assert total == tuple(map(sum, zip(*(mat.entries[mat.rows.index(w)] for w in y))))
        assert verdicts[u, v].certificate == y


_G2_OWN = {(0, 15), (1, 15), (2, 15), (3, 15), (4, 15), (5, 15), (6, 15), (7, 14),
           (8, 14), (9, 14), (10, 14), (11, 14), (12, 14), (13, 14), (14, 15)}


@pytest.mark.parametrize("graph, pair, certificate, own", [
    (lambda: build_graph(4, [(0, 1), (0, 3), (1, 2)]), (2, 3), {0: 1, 1: 1}, set()),
    (lambda: halved_cube(5)[0], (0, 13), {1: 1, 12: 1}, set()),
    (lambda: projective_incidence_graph(2), (0, 1), {11: 1, 14: 1}, _G2_OWN),
], ids=["P_4-row", "halfH_5-column-sums", "G_2-own"])
def test_a_balanced_pair_is_stored_before_a_row_or_the_row_sums(
        monkeypatch, graph, pair, certificate, own):
    """The scan tries the balanced pairs before any row of D^uv.  On the
    path 3-0-1-2 the pair (2, 3) has the interior {0, 1}, both rows
    nonnegative and balanced (d(2,0) + d(2,1) = 3), and it gets
    {0: 1, 1: 1}, where the first nonnegative row gave {0: 1}.  On H_5/2
    the pair (0, 13) has six rows, none nonnegative, with nonnegative
    column sums, and it gets its balanced pair {1, 12}, where the row-sum
    certificate y = 1, which the presolve no longer tries, named all six
    rows.  Each pair is in row 0, which the scan always reads, and it
    gets the same certificate with the orbit search on.  With it off,
    the pairs the scan solves are the scan's at the commit before this
    order: no pair of the first two, and the 15 feasible pairs of G_2, whose
    pair (0, 1) the row sums and the balanced pair {11, 14} both certify."""
    g = graph()
    d = all_pairs_distances(g)
    mat = build_Duv(g, d, *pair)
    assert balanced_pair_plain(d, mat) is not None
    assert any(min(row) >= 0 for row in mat.entries) or \
        min(map(sum, zip(*mat.entries))) >= 0
    for search in (True, False):
        if not search:
            orbits_off(monkeypatch)
        got = list(lp._pair_verdicts(g, d)(2, d.diameter))
        verdict = {(u, v): res for u, v, res, _ in got}[pair]
        assert repr(verdict) == repr(FeasibilityResult("infeasible", certificate=certificate))
    assert {(u, v) for u, v, _, solved in got if solved} == own


def _random_tree(n, seed):
    rng = random.Random(seed)
    return build_graph(n, [(rng.randrange(x), x) for x in range(1, n)])


@pytest.mark.parametrize("graph", [
    lambda: path_graph(64), lambda: _random_tree(200, 3),
    lambda: cartesian_product(path_graph(8), path_graph(8)),
], ids=["P_64", "tree_200", "P_8xP_8"])
def test_a_midpoint_decides_each_pair_with_one_interior_vertex(monkeypatch, graph):
    """On a path, a tree and a grid every pair takes a balanced try:
    compute_p gives p = 1 with no solve, no pair reaches `_unbalanced`, and
    every `_balanced` call finds a pair.  In a scan of every pair at
    distance 2 or more of the roots' rows, each pair whose interior is one
    vertex w, balanced with itself, gets e_w = (1,), and no pair is
    solved."""
    g, d = _gd(graph())
    hits = Counter()
    per_pair = lp._balanced
    monkeypatch.setattr(lp, "_balanced", lambda *a: (
        res := per_pair(*a), hits.update([res is not None]))[0])
    for name in ("_unbalanced", "lp_feasible_strict"):
        monkeypatch.setattr(lp, name, None)
    assert compute_p(g, d).p == 1
    got = list(lp._pair_verdicts(g, d)(2, d.diameter))
    verdicts = {(u, v): res for u, v, res, _ in got}
    assert not any(solved for *_, solved in got) and hits[True] and not hits[False]
    single = [(u, v) for u, v in verdicts if len(interior_interval(g, d, u, v)) == 1]
    assert single and all(verdicts[u, v].certificate == dict.fromkeys(interior_interval(g, d, u, v), 1)
                          for u, v in single)


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
    # a band scan reads a pair's interior from the distance rows, never from
    # `interior_interval`, the interval of `build_Duv`; P_2048 built 580 MB
    # of level bitsets when `build_Duv` read them.  The one D^uv that
    # compute_p builds is its witness pair's, when the scan decided that
    # pair without its own solve
    calls = Counter()
    real_head, real_interval = lp._head, lp.interior_interval
    monkeypatch.setattr(lp, "_head", lambda *a: (calls.update(["_head"]), real_head(*a))[1])
    monkeypatch.setattr(lp, "interior_interval", lambda g, d, u, v: (
        calls.update([(u, v)]), real_interval(g, d, u, v))[1])
    for g in (cycle_graph(21), projective_incidence_graph(3),
              halved_cube(7)[0], path_graph(300)):
        d = all_pairs_distances(g)
        calls.clear()
        report = compute_p(g, d)
        assert calls["_head"] and set(calls) <= {"_head", report.witness_pair}, (g.n, calls)
        assert calls[report.witness_pair] <= 1, (g.n, calls)
        for p in (1, 2):
            calls.clear()
            has_Gp_connected_medians(g, d, p)
            assert set(calls) == {"_head"}, (g.n, p, calls)


# ------------------------------------------------- the uniform witness

def _uneven(last):
    """A 4 x 64 matrix of the pair (0, 1) whose rows sum to -3, -4, -5 and
    last: +1 on the even and -1 on the odd columns 2..63 but 7, which sum
    to 1, and the rest of the row sum in column u = 0.  Columns v = 1 and 7
    are zero."""
    signs = [0 if x == 7 else (-1) ** x for x in range(2, 64)]
    return RationalMatrix(tuple((s - 1, 0, *signs) for s in (-3, -4, -5, last)),
                          (2, 3, 4, 5), tuple(range(64)), 0, 1)


@pytest.mark.parametrize("matrix, sums, witness", [
    (lambda: build_Duv(*_gd(projective_incidence_graph(3)), 26, 27), {-48},
     {x: Fraction(1, 48) for x in range(26)}),
    (lambda: _uneven(-6), {-3, -4, -5, -6},
     {x: Fraction(1, 3) for x in range(64) if x not in (1, 7)}),
    (lambda: _uneven(0), {-3, -4, -5, 0}, None),
], ids=["G_3", "unequal-sums", "a-zero-sum"])
def test_the_uniform_witness_weights_every_nonzero_column(matrix, sums, witness):
    """A matrix at the gate whose row sums are all negative gets 1/min |s_w|
    on every column that is not all zero, column u too, and the answer
    verifies.  On the witness pair (26, 27) of G_3 every row sums to -48,
    and the witness, 1/48 on the 26 x != u, v, is the simplex's.  One row
    sum of 0 leaves the matrix to the simplex."""
    mat = matrix()
    assert len(mat.entries) * len(mat.cols) >= lp._UNIFORM_ENTRIES
    assert set(map(sum, mat.entries)) == sums
    res = lp_feasible_strict(mat)
    simplex = lp_feasible_strict_explicit(mat)[0]
    if witness is None:
        assert res == simplex
    else:
        assert res.feasible and res.witness == witness and lp._check_result(mat, res)
        if len(sums) == 1:      # one row sum: the simplex reaches the same witness
            assert res == simplex
