from fractions import Fraction

import pytest

from medgraph.errors import ParseError
from medgraph.families import cycle_graph, hypercube, path_graph
from medgraph.graph import all_pairs_distances
from medgraph.medians import (Profile, VertexFunction, check_WC, check_WP,
                              is_p_connected, is_p_isometric,
                              is_p_weakly_convex, is_p_weakly_peakless,
                              is_unimodal_on_power, level_set,
                              local_median_set_p, median_function, median_set,
                              median_value, read_profile)
from reference import _gd, is_p_weakly_peakless_full


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile({})
    with pytest.raises(ValueError):
        Profile({0: -1})
    pi = Profile({0: Fraction(1, 2), 3: 0})
    assert pi.weights == {0: Fraction(1, 2)}


def test_median_on_path():
    g, d = _gd(path_graph(5))
    pi = Profile({0: 1, 4: 1})
    assert median_set(g, d, pi) == {0, 1, 2, 3, 4}
    pi = Profile({0: 1, 4: 2})
    assert median_set(g, d, pi) == {4}
    assert median_value(g, d, pi, 0) == 8


def test_local_median_cycle():
    g, d = _gd(cycle_graph(7))
    pi = Profile({0: 3, 3: 3, 5: 1})
    med = median_set(g, d, pi)
    assert med == {0, 3}
    assert not is_p_connected(g, d, med, 2)
    assert is_p_connected(g, d, med, 3)
    assert med <= local_median_set_p(g, d, pi, 2)


def test_wc_implies_wp():
    import random
    rng = random.Random(7)
    g, d = _gd(cycle_graph(9))
    for _ in range(50):
        f = VertexFunction([Fraction(rng.randint(0, 6)) for _ in range(9)])
        for u in range(9):
            for v in range(9):
                if u == v or g.has_edge(u, v):
                    continue
                if check_WC(g, d, f, u, v):
                    assert check_WP(g, d, f, u, v)


def test_median_function_is_1_weakly_convex_on_median_graph():
    g, _ = hypercube(3)
    d = all_pairs_distances(g)
    pi = Profile({0: 1, 7: 2, 3: 1})
    f = median_function(g, d, pi)
    assert is_p_weakly_convex(g, d, f, 1)
    assert is_p_weakly_peakless(g, d, f, 1)
    assert is_unimodal_on_power(g, d, f, 1)


def test_local_band_matches_full_check():
    g, d = _gd(cycle_graph(8))
    pi = Profile({0: 1, 4: 1, 6: 2})
    f = median_function(g, d, pi)
    for p in (1, 2, 3):
        assert is_p_weakly_peakless(g, d, f, p) == \
            is_p_weakly_peakless_full(g, d, f, p)


def test_level_sets_and_isometry():
    g, d = _gd(cycle_graph(7))
    pi = Profile({0: 1, 1: 1})
    f = median_function(g, d, pi)
    lvl = level_set(f, min(f.values))
    assert lvl == {0, 1}
    assert is_p_isometric(g, d, lvl, 1)


def test_profile_io():
    pi = read_profile("0 1\n2 1/2\n# note\n3 0\n", n=4)
    assert pi.weights == {0: Fraction(1), 2: Fraction(1, 2)}
    with pytest.raises(ParseError):
        read_profile("0 -1\n", n=3)
    with pytest.raises(ParseError):
        read_profile("0 1 2\n", n=3)
    with pytest.raises(ParseError):
        read_profile("5 1\n", n=3)
    with pytest.raises(ParseError):
        read_profile("-1 5\n", n=3)
