from fractions import Fraction

import pytest

from medgraph.errors import NotPeakless, ParseError
from medgraph.families import cycle_graph, hypercube, path_graph
from medgraph.graph import all_pairs_distances
from medgraph.medians import (GeodesicString, Profile, VertexFunction,
                              check_Loz, check_WC, check_WP,
                              find_peakless_p_geodesic, is_convex_on_string,
                              is_p_connected, is_p_isometric,
                              is_p_weakly_convex, is_p_weakly_peakless,
                              is_p_weakly_peakless_full, is_peakless_on_string,
                              is_unimodal_on_power, level_set,
                              local_median_set_p, median_function, median_set,
                              median_value, read_profile, read_vertex_function,
                              write_profile)


def _gd(g):
    return g, all_pairs_distances(g)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile({})
    with pytest.raises(ValueError):
        Profile({0: -1})
    pi = Profile({0: Fraction(1, 2), 3: 0})
    assert pi.support() == {0}
    assert pi.total() == Fraction(1, 2)


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


def test_geodesic_string_validation():
    g, d = _gd(cycle_graph(8))
    s = GeodesicString(g, d, [0, 1, 3, 4])
    assert s.is_p_geodesic(d, 2) and not s.is_p_geodesic(d, 1)
    with pytest.raises(ValueError):
        GeodesicString(g, d, [0, 4, 1])     # 4 not between 0 and 1


def test_peakless_and_convex_on_string():
    g, d = _gd(path_graph(6))
    s = GeodesicString(g, d, list(range(6)))
    down_up = VertexFunction([3, 2, 1, 1, 2, 4])
    assert is_peakless_on_string(d, down_up, s)
    bump = VertexFunction([1, 2, 1, 1, 1, 1])
    assert not is_peakless_on_string(d, bump, s)
    plateau_peak = VertexFunction([1, 2, 2, 1, 1, 1])
    assert not is_peakless_on_string(d, plateau_peak, s)
    convex = VertexFunction([4, 2, 1, 1, 2, 4])
    assert is_convex_on_string(d, convex, s)
    assert not is_convex_on_string(d, VertexFunction([0, 3, 0, 0, 0, 0]), s)


def test_wc_wp_loz_relations():
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
                if check_Loz(g, d, f, u, v):
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


def test_find_peakless_geodesic():
    g, d = _gd(cycle_graph(8))
    pi = Profile({0: 1, 4: 1})
    f = median_function(g, d, pi)
    s = find_peakless_p_geodesic(g, d, f, 0, 4, 2)
    assert s[0] == 0 and s[-1] == 4
    assert s.is_p_geodesic(d, 2)
    assert is_peakless_on_string(d, f, s)
    bad = VertexFunction([0, 5, 5, 5, 0, 5, 5, 5])
    with pytest.raises(NotPeakless):
        find_peakless_p_geodesic(g, d, bad, 0, 4, 1)


def test_level_sets_and_isometry():
    g, d = _gd(cycle_graph(7))
    pi = Profile({0: 1, 1: 1})
    f = median_function(g, d, pi)
    lvl = level_set(f, min(f.values))
    assert lvl == {0, 1}
    assert is_p_isometric(g, d, lvl, 1)


def test_profile_io():
    pi = read_profile("0 1\n2 1/2\n# note\n3 0\n")
    assert pi.weights == {0: Fraction(1), 2: Fraction(1, 2)}
    assert read_profile(write_profile(pi)).weights == pi.weights
    with pytest.raises(ParseError):
        read_profile("0 -1\n")
    with pytest.raises(ParseError):
        read_profile("0 1 2\n")
    with pytest.raises(ParseError):
        read_profile("5 1\n", n=3)


def test_vertex_function_io():
    f = read_vertex_function("default 2\n0 1/3\n", 3)
    assert f.values == [Fraction(1, 3), 2, 2]
    with pytest.raises(ParseError):
        read_vertex_function("0 1\n", 2)    # missing value, no default


@pytest.mark.parametrize("text", [
    "default\n0 1\n",
    "x 1\n",
    "9 5\ndefault 1\n",
    "-1 5\ndefault 1\n",
], ids=["default-without-value", "non-integer-vertex", "vertex-above-range",
        "negative-vertex"])
def test_vertex_function_rejects_malformed(text):
    with pytest.raises(ParseError):
        read_vertex_function(text, 3)
