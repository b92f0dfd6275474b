"""Brute-force profile oracle, independent of the LP recognition path.

For every pair in the distance band p+1..2p, all integer profiles supported
on J(u,v) with weights up to maxWeight are enumerated; the oracle reports
the first profile whose median set is not connected in G^p or whose local
median set in G^p differs from the median set.

Profiles are scanned in blocks with no per-profile Python work:

- A block is the mixed-radix decoding of a run of profile codes, so the
  profiles come in `itertools.product` order (first support vertex most
  significant), from code 1 to skip the all-zero profile.
- Local minima in G^p take one `np.minimum` per slot of a padded table of
  closed p-balls.
- The G^p-connectivity of every median set is a matrix closure: reach from
  the first median through `near`, kept inside the median set, until it
  stops growing.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .graph import DistMatrix, Graph
from .medians import Profile
from .metric import J_set

_BLOCK = 100_000


def brute_force_oracle(g: Graph, d: DistMatrix, p: int, max_weight: int,
                       budget: int = 5_000_000):
    """First (pair, integer Profile) breaking p-connectedness, or None."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    n = g.n
    dist = np.array(d.d, dtype=np.int64)
    near = dist <= p                       # closed p-balls, used for both tests
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if p + 1 <= d(u, v) <= 2 * p]
    supports = []
    total = 0
    for u, v in pairs:
        support = sorted(J_set(g, d, u, v))
        supports.append(support)
        total += (max_weight + 1) ** len(support) - 1
        if total > budget:
            raise BudgetExceeded(
                f"{total} profiles exceed the budget of {budget}")
    # slots[k, x] is the k-th vertex of the closed p-ball of x, padded with x
    balls = [np.flatnonzero(row) for row in near]
    slots = np.tile(np.arange(n), (max(map(len, balls)), 1))
    for x, ball in enumerate(balls):
        slots[:len(ball), x] = ball
    for (u, v), support in zip(pairs, supports):
        hit = _scan_pair(dist, near, slots, support, max_weight)
        if hit is not None:
            return (u, v), hit
    return None


def _scan_pair(dist, near, slots, support, max_weight: int):
    rows = dist[support]                   # |support| x n
    radix = max_weight + 1
    place = radix ** np.arange(len(support) - 1, -1, -1, dtype=np.int64)
    end = radix ** len(support)
    for start in range(1, end, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, end), dtype=np.int64)
        block = codes[:, None] // place % radix
        f = block @ rows                   # profiles x n, exact in int64
        med = f == f.min(axis=1, keepdims=True)
        # local minima in G^p: f(x) <= f(y) for every y with d(x,y) <= p
        nb = f[:, slots[0]]
        for s in slots[1:]:
            np.minimum(nb, f[:, s], out=nb)
        mismatch = ((f <= nb) & ~med).any(axis=1)
        # the G^p-component of the first median, within the median set
        reach = np.zeros_like(med)
        reach[np.arange(len(med)), med.argmax(axis=1)] = True
        while True:
            grown = (reach @ near) & med
            if np.array_equal(grown, reach):
                break
            reach = grown
        bad = mismatch | (reach != med).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            return Profile({s: int(w) for s, w in zip(support, block[i]) if w})
    return None
