import hashlib

import numpy as np
import pytest

from medgraph import oracle
from medgraph.errors import BudgetExceeded
from medgraph.families import cycle_graph, hypercube, path_graph
from medgraph.graph import all_pairs_distances, build_graph
from medgraph.medians import (Profile, is_p_connected as _is_p_connected,
                              local_median_set_p, median_set)
from medgraph.lp import has_Gp_connected_medians
from medgraph.oracle import _dtype, brute_force_oracle
from reference import _connected_atlas_graphs, _ref_oracle


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


def test_budget_exceeded(monkeypatch):
    monkeypatch.setattr(oracle, "_BUDGET", 10)
    g = cycle_graph(7)
    d = all_pairs_distances(g)
    with pytest.raises(BudgetExceeded, match="exceed the budget of 10$"):
        brute_force_oracle(g, d, 2, 3)


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


def test_dtype_is_the_narrowest_that_holds_the_bound():
    # pinned on both sides of each limit: an off-by-one in the bound would
    # let a profile value wrap around silently
    assert _dtype(0) is np.int16
    assert _dtype(2**15 - 1) is np.int16
    assert _dtype(2**15) is np.int32
    assert _dtype(2**31 - 1) is np.int32
    assert _dtype(2**31) is np.int64
    assert _dtype(2**63 - 1) is np.int64
    with pytest.raises(OverflowError):
        _dtype(2**63)


# A path 0..12 with 60 leaves on its middle vertex: at p = 11 every closed
# p-ball of the middle holds all 73 vertices, and the one pair in the band,
# (0, 12), has the 13 path vertices as J, so 8,191 profiles, split into
# blocks of at most _BLOCK // 73.
_BROOM = [(i, i + 1) for i in range(12)] + [(6, leaf) for leaf in range(13, 73)]
# K_{2,4} at p = 1, max_weight 1 and _BLOCK = 200 (cap 40): four later
# kept pairs are packed two to a block, and the last, with 63 profiles, is
# split.
_K24 = [(a, b) for a in (4, 5) for b in range(4)]


def test_block_gather_stays_within_block_memory(monkeypatch):
    # Every array a scan allocates holds at most _BLOCK * n values: the
    # digit matrix and the table of each segment, the block the kernel gets
    # (one table or the packed tables of several pairs), and the ball
    # gather of the block, ball size x n x columns.  The broom's one pair is
    # split into blocks at the default _BLOCK; K_{2,4} has packed blocks.
    sizes = {"digits": [], "table": [], "block": [], "gather": []}
    blocks = []
    digits, table, bad_columns, scan = (
        oracle._digits, oracle._table, oracle._bad_columns, oracle._scan_block)

    def spy_digits(radix, size, dtype):
        out = digits(radix, size, dtype)
        sizes["digits"].append(out.size)
        return out

    def spy_table(*args):
        out = table(*args)
        sizes["table"].append(out.size)
        return out

    def spy_bad_columns(f, near, slots, seeds):
        assert f.shape[1] <= oracle._BLOCK // len(slots)   # at most cap
        sizes["block"].append(f.size)
        sizes["gather"].append(slots.size * f.shape[1])
        return bad_columns(f, near, slots, seeds)

    def spy_scan(dist, near, slots, seeds, segments, radix):
        blocks.append([split for _, _, split, _ in segments])
        return scan(dist, near, slots, seeds, segments, radix)

    for name, spy in [("_digits", spy_digits), ("_table", spy_table),
                      ("_bad_columns", spy_bad_columns),
                      ("_scan_block", spy_scan)]:
        monkeypatch.setattr(oracle, name, spy)
    for edges, p, max_weight, block, packed in [
            (_BROOM, 11, 1, oracle._BLOCK, False), (_K24, 1, 1, 200, True)]:
        monkeypatch.setattr(oracle, "_BLOCK", block)
        blocks.clear()
        for got in sizes.values():
            got.clear()
        g = build_graph(max(map(max, edges)) + 1, edges)
        d = all_pairs_distances(g)
        # a tree has connected medians at every p; K_{2,4} does not at p = 1
        assert (oracle.brute_force_oracle(g, d, p, max_weight)
                is None) == (edges is _BROOM)
        assert any(len(b) > 1 for b in blocks) == packed
        assert any(any(b) for b in blocks)          # a split support
        for name, got in sizes.items():
            assert got and max(got) <= block * g.n, name


def test_scan_memory_peak_is_one_block_gather():
    # Measured, not counted: tracemalloc sees numpy's buffers, and the peak
    # of a scan is the ball gather of one block plus a few n x cap arrays.
    import tracemalloc
    g = build_graph(73, _BROOM)
    d = all_pairs_distances(g)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert brute_force_oracle(g, d, 11, 1) is None
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # profile values fit in int16 here, two bytes each
    assert peak <= 2 * oracle._BLOCK * g.n * 2


# sha256 of the repr of brute_force_oracle(g, d, p, 2) over the 995 connected
# atlas graphs at p = 1, 2 (1,990 outcomes, hits and Nones), taken from a scan
# of every band pair.  A skip of a pair whose support is not inside a
# cleared one can drop the first bad pair, and the hash changes.
ATLAS_ORACLE_SHA256 = ("b1fdff535a9689a9bc63d6393df65eef"
                       "2709474a465c84c75dd2842e5923df8f")


def test_oracle_outcomes_on_the_atlas_are_pinned():
    outcomes = []
    for g in _connected_atlas_graphs(7):
        d = all_pairs_distances(g)
        outcomes += [brute_force_oracle(g, d, p, 2) for p in (1, 2)]
    assert len(outcomes) == 1990
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == ATLAS_ORACLE_SHA256


@pytest.mark.parametrize("g, p, band, scans", [
    (hypercube(3)[0], 1, 12, 6),      # the six 4-cycles are the supports
    (cycle_graph(6), 2, 3, 1),        # every antipodal pair has J = C_6
])
def test_pairs_inside_a_cleared_support_are_not_scanned(monkeypatch, g, p,
                                                        band, scans):
    d = all_pairs_distances(g)
    assert band == sum(p + 1 <= d(u, v) <= 2 * p
                       for u in range(g.n) for v in range(u + 1, g.n))
    scanned = set()
    scan = oracle._scan_block

    def spy(dist, near, slots, seeds, block, radix):
        scanned.update(pair for pair, _, _, _ in block)
        return scan(dist, near, slots, seeds, block, radix)

    monkeypatch.setattr(oracle, "_scan_block", spy)
    got = brute_force_oracle(g, d, p, 2)
    assert len(scanned) == scans < band
    assert got is None and got == _ref_oracle(g, d, p, 2, budget=10_000)
