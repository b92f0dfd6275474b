from fractions import Fraction

import pytest

from medgraph.errors import InteriorTooLarge, WrongDistance
from medgraph.families import (beta_configuration, cycle_graph, halved_cube,
                               hypercube, johnson, path_graph)
from medgraph.graph import all_pairs_distances
import medgraph.lp as lp
from medgraph.lp import (FeasibilityResult, RationalMatrix,
                         alpha_beta_certificate, build_Duv, compute_p,
                         disconnecting_profile, has_Gp_connected_medians,
                         lp_feasible, lp_feasible_strict, solve_pair,
                         verify_feasibility_result, witness_to_profile)
from medgraph.medians import Profile, median_set
from medgraph.metric import interior_interval


def _gd(g):
    return g, all_pairs_distances(g)


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


def test_c7_pair_feasible_and_witness_disconnects():
    g, d = _gd(cycle_graph(7))
    mat = build_Duv(g, d, 0, 3)
    res = lp_feasible_strict(mat)
    assert res.feasible
    assert verify_feasibility_result(g, d, 0, 3, res)
    plus = disconnecting_profile(g, d, 0, 3, witness_to_profile(res.witness))
    assert plus.is_integer()
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


@pytest.mark.parametrize("system", [
    dict(n=2, a_eq=[[1, 1]], b_eq=[1]),
    dict(n=1, a_ub=[[1]], b_ub=[1]),
])
def test_lp_feasible_rejects_a_wrong_point(monkeypatch, system):
    real = lp._phase1

    def off_by_one(tableau, n_free):
        t, D, basis, z, art_rows = real(tableau, n_free)
        for row in t:
            row[-1] += D        # every basic variable one too large
        return t, D, basis, z, art_rows

    assert lp_feasible(**system) is not None
    monkeypatch.setattr(lp, "_phase1", off_by_one)
    with pytest.raises(AssertionError):
        lp_feasible(**system)


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
    assert solve_pair(c7, d7, 0, 3, restrict_j=True).feasible


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
    assert rep.failing_verdicts


def test_compute_p_solves_each_pair_once(monkeypatch):
    g, d = _gd(cycle_graph(21))
    calls = []

    def counting(mat):
        calls.append((mat.u, mat.v))
        return lp_feasible_strict(mat)

    monkeypatch.setattr(lp, "lp_feasible_strict", counting)
    assert compute_p(g, d).p == 10
    # one solve per pair at distance >= 2: 21 vertices x 9 distances 2..10
    assert len(calls) == 189 == len(set(calls))


def test_failing_verdicts_are_feasible_pairs_of_last_failing_band():
    for n in (7, 21):
        g, d = _gd(cycle_graph(n))
        rep = compute_p(g, d)
        q = rep.p - 1
        expected = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                    if q + 1 <= d(u, v) <= 2 * q
                    and lp_feasible_strict(build_Duv(g, d, u, v)).feasible]
        assert [(f.u, f.v) for f in rep.failing_verdicts] == expected
        assert rep.witness_pair == expected[0]


def test_monotonicity():
    g, d = _gd(cycle_graph(7))
    start = compute_p(g, d).p
    for p in range(start, d.diameter + 1):
        assert has_Gp_connected_medians(g, d, p)


def test_restrict_j_same_verdict_on_equilateral_graphs():
    # hypercubes and C_7 have only equilateral metric triangles
    for g, d in (_gd(hypercube(3)[0]), _gd(cycle_graph(7))):
        for p in (1, 2):
            assert has_Gp_connected_medians(g, d, p) == \
                has_Gp_connected_medians(g, d, p, restrict_j=True)


def test_general_lp_feasible():
    # x0 + x1 = 1, x0 - x1 <= -1 has the solution (0, 1)
    x = lp_feasible(2, a_ub=[[1, -1]], b_ub=[-1], a_eq=[[1, 1]], b_eq=[1])
    assert x is not None and x[0] + x[1] == 1 and x[0] - x[1] <= -1
    # x0 <= -1, x0 >= 0 is infeasible
    assert lp_feasible(1, a_ub=[[1]], b_ub=[-1]) is None
    # rational rows: x0 + x1/2 = 3/2, x0 <= 1/3 forces x1 >= 7/3
    x = lp_feasible(2, a_ub=[[1, 0]], b_ub=[Fraction(1, 3)],
                    a_eq=[[1, Fraction(1, 2)]], b_eq=[Fraction(3, 2)])
    assert x is not None and x[0] + x[1] / 2 == Fraction(3, 2)
    assert x[0] <= Fraction(1, 3) and x[1] >= Fraction(7, 3)


def test_alpha_beta_certificate_square_pair():
    g, _ = johnson(4, 2)
    d = all_pairs_distances(g)
    u, v = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if d(u, v) == 2)
    cert = alpha_beta_certificate(g, d, u, v)
    assert cert is not None
    s_set, eta, comp = cert
    assert s_set <= interior_interval(g, d, u, v)
    assert sum(eta.values()) == 1
    assert set(comp) == s_set


def test_alpha_beta_certificate_beta_pair_none():
    g = beta_configuration()
    d = all_pairs_distances(g)
    assert alpha_beta_certificate(g, d, 0, 1) is None


def test_alpha_beta_certificate_singleton_interior():
    g, d = _gd(path_graph(3))
    cert = alpha_beta_certificate(g, d, 0, 2)
    assert cert is not None
    s_set, eta, _ = cert
    assert s_set == {1} and eta[1] == 1


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
        alpha_beta_certificate(g, d, 0, 1, cap=8)
