"""Brute-force profile oracle, independent of the LP recognition path.

For every pair in the distance band p+1..2p, all integer profiles supported
on J(u,v) with weights up to maxWeight are enumerated; the oracle reports
the first profile whose median set is not connected in G^p or whose local
median set in G^p differs from the median set.  Distance sums and the local
minimum test are vectorized over blocks of profiles.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceeded
from .graph import DistMatrix, Graph
from .medians import Profile
from .metric import J_set

_BLOCK = 100_000


def brute_force_oracle(g: Graph, d: DistMatrix, p: int, max_weight: int,
                       budget: int = 5_000_000):
    """First (pair, integer Profile) breaking p-connectedness, or None."""
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
    for (u, v), support in zip(pairs, supports):
        hit = _scan_pair(g, dist, near, p, support, max_weight)
        if hit is not None:
            return (u, v), hit
    return None


def _scan_pair(g: Graph, dist, near, p: int, support, max_weight: int):
    rows = dist[support]                   # |support| x n
    it = itertools.product(range(max_weight + 1), repeat=len(support))
    next(it)                               # drop the all-zero profile
    for block in _blocks(it, len(support)):
        f = block @ rows                   # profiles x n, exact in int64
        best = f.min(axis=1, keepdims=True)
        med = f == best
        # local minima in G^p: f(x) <= f(y) for every y with 1 <= d(x,y) <= p
        local = np.ones_like(med)
        for x in range(g.n):
            others = np.flatnonzero(near[x] & (np.arange(g.n) != x))
            if others.size:
                local[:, x] = f[:, x] <= f[:, others].min(axis=1)
        mismatch = (local & ~med).any(axis=1)
        # star prefilter: med p-connected for sure when its first vertex
        # p-covers all of med; survivors get an exact component check
        first = med.argmax(axis=1)
        star = (~med | near[first]).all(axis=1)
        suspects = np.flatnonzero(mismatch | ~star)
        for i in suspects:
            if mismatch[i] or not _p_connected_mask(near, med[i]):
                weights = {s: int(w) for s, w in zip(support, block[i]) if w}
                return Profile(weights)
    return None


def _blocks(it, width):
    while True:
        chunk = list(itertools.islice(it, _BLOCK))
        if not chunk:
            return
        yield np.array(chunk, dtype=np.int64).reshape(len(chunk), width)


def _p_connected_mask(near, mask) -> bool:
    verts = np.flatnonzero(mask)
    if verts.size <= 1:
        return True
    seen = {int(verts[0])}
    stack = [int(verts[0])]
    while stack:
        x = stack.pop()
        for y in verts:
            y = int(y)
            if y not in seen and near[x][y]:
                seen.add(y)
                stack.append(y)
    return len(seen) == verts.size
