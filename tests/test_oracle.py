import pytest

from medgraph.errors import BudgetExceeded
from medgraph.families import cycle_graph, hypercube, path_graph
from medgraph.graph import all_pairs_distances
from medgraph.medians import (Profile, is_p_connected as _is_p_connected,
                              local_median_set_p, median_set)
from medgraph.lp import has_Gp_connected_medians
from medgraph.oracle import brute_force_oracle


def test_hypercube_has_connected_medians():
    g, _ = hypercube(3)
    d = all_pairs_distances(g)
    assert brute_force_oracle(g, d, 1, 2) is None


def test_path_has_connected_medians():
    g = path_graph(6)
    d = all_pairs_distances(g)
    assert brute_force_oracle(g, d, 1, 3) is None


def test_c7_counterexample_at_p2():
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    found = brute_force_oracle(g, d, 2, 3)
    assert found is not None
    (u, v), pi = found
    med = median_set(g, d, pi)
    loc = local_median_set_p(g, d, pi, 2)
    # a profile with lMed^2 != Med witnesses failing G^2-connectedness
    assert loc != med
    # the exact LP test agrees that C_7 lacks G^2-connected medians
    assert not has_Gp_connected_medians(g, d, 2)


def test_known_cycle_profile_is_counterexample():
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    pi = Profile({0: 3, 3: 3, 5: 1})
    med = median_set(g, d, pi)
    assert med == {0, 3}
    assert not _is_p_connected(g, d, med, 2)


def test_budget_exceeded():
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    with pytest.raises(BudgetExceeded):
        brute_force_oracle(g, d, 2, 3, budget=10)


def test_max_weight_validation():
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    with pytest.raises(ValueError):
        brute_force_oracle(g, d, 2, 0)


def test_p_validation():
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    for p in (0, -1):
        with pytest.raises(ValueError):
            brute_force_oracle(g, d, p, 2)
