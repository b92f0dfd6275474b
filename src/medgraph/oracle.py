"""Brute-force profile oracle, independent of the LP recognition path.

For every pair in the distance band p+1..2p, all integer profiles supported
on J(u,v) with weights up to maxWeight are enumerated; the oracle reports
the first profile whose median set is not connected in G^p or whose local
median set in G^p differs from the median set.

Pairs whose J(u,v) lies inside a support already scanned clean are
skipped, with the same answer:

- A pair's profiles and their verdicts depend only on its support J(u,v):
  the scan of a pair never sees u or v.
- A profile on S' inside S is the profile on S with zeros on S \\ S', so a
  scan of S with no bad profile has already found every profile on S'
  good.
- Pairs are taken in the same order, and a pair that is not skipped is
  scanned as before.  A skipped pair has no bad profile, so the first bad
  pair, and its first bad profile in `itertools.product` order, are the
  ones the plain scan of every pair reports.
- The budget still counts the profiles of every band pair before any is
  scanned, so a skip never changes which calls raise `BudgetExceeded`.

Profiles come in `itertools.product` order (first support vertex most
significant, the all-zero profile skipped), in blocks with no per-profile
Python work.  A block is an n x profiles table f[x, i] = sum_s w_s d(s, x):

- Enumeration by outer sums, with no decoding and no matrix product.  The
  table of every profile on some support rows is built by folding the rows
  in, last row first, each as the new most significant digit:
  F = (F[:, None, :] + row[:, None, None] * steps).reshape(n, -1), with
  steps = 0..maxWeight.  The support is split so that the table of its last
  vertices, the inner table, has at most one block of profiles; a block is
  the inner table plus one column of the table of the first vertices, the
  prefix offset, so the prefix table has one column per block.  Only the
  code of the reported profile is decoded.
- Exact narrow dtype.  Every value and every partial sum is at most
  maxWeight * |J| * diam, so the table is held in the narrowest of int16,
  int32 and int64 that holds that bound (`_dtype`).
- Local minima in G^p: one gather f[slots] over a padded table of closed
  p-balls and a minimum over it.  A block has at most _BLOCK // (ball size)
  profiles, so the gather holds at most _BLOCK * n values.
- G^p-connectivity of each median set.  One step in G^p from the last
  median decides a set of one or two medians (two are one `near` lookup);
  only a set of three or more that this step does not cover runs the
  closure: reach through `near`, kept inside the median set, until it stops
  growing.
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
    """First (pair, integer Profile) breaking p-connectedness, or None.

    Pairs are scanned in order; a pair whose support lies inside the
    support of a pair already scanned with no hit is skipped, since its
    profiles are among those already found good (see the module docstring).
    The budget counts the profiles of every band pair, skipped or not.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    n = g.n
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
    if not pairs:
        return None
    dist = np.array(d.d, dtype=_dtype(
        max_weight * max(map(len, supports)) * d.diameter))
    near = dist <= p                       # closed p-balls, used for both tests
    # slots[k, x] is the k-th vertex of the closed p-ball of x, padded with x
    balls = [np.flatnonzero(row) for row in near]
    slots = np.tile(np.arange(n), (max(map(len, balls)), 1))
    for x, ball in enumerate(balls):
        slots[:len(ball), x] = ball
    seeds = np.arange(n, dtype=_dtype(n))[:, None]   # vertex ids, as a column
    cleared = []                           # supports scanned with no hit
    for (u, v), support in zip(pairs, supports):
        mask = sum(1 << s for s in support)
        if any(mask & c == mask for c in cleared):
            continue
        hit = _scan_pair(dist, near, slots, seeds, support, max_weight)
        if hit is not None:
            return (u, v), hit
        cleared.append(mask)
    return None


def _dtype(bound: int):
    """The narrowest of int16, int32 and int64 that holds +-bound."""
    for dt in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise OverflowError(f"profile values up to {bound} do not fit in int64")


def _table(rows, radix: int):
    """f[x, i] for the i-th profile on `rows` in itertools.product order."""
    steps = np.arange(radix, dtype=rows.dtype)[:, None]
    f = np.zeros((rows.shape[1], 1), dtype=rows.dtype)
    for row in rows[::-1]:                 # each fold is most significant
        f = (f[:, None, :] + row[:, None, None] * steps).reshape(len(row), -1)
    return f


def _scan_pair(dist, near, slots, seeds, support, max_weight: int):
    radix = max_weight + 1
    rows = dist[support]                   # |support| x n
    # the inner table, on the last vertices, fills at most one block; the
    # ball gather of a block holds at most _BLOCK * n values
    cap = max(1, _BLOCK // len(slots))
    split = len(support)
    while split and radix ** (len(support) - split + 1) <= cap:
        split -= 1
    inner = _table(rows[split:], radix)
    for j, offset in enumerate(_table(rows[:split], radix).T):
        skip = 1 if j == 0 else 0          # the all-zero profile
        bad = _bad_columns(inner[:, skip:] + offset[:, None], near, slots,
                           seeds)
        if bad.any():
            code = j * inner.shape[1] + skip + int(bad.argmax())
            weights = {}
            for s in reversed(support):
                code, weights[s] = divmod(code, radix)
            return Profile({s: weights[s] for s in support if weights[s]})
    return None


def _bad_columns(f, near, slots, seeds):
    """Profiles (columns of f) whose median set is not G^p-connected or has
    a local minimum in G^p outside it."""
    med = f == f.min(axis=0)
    # local minima in G^p: f(x) <= f(y) for every y with d(x,y) <= p; every
    # median is one, so the sets differ only by a local minimum outside
    bad = ((f == f[slots].min(axis=0)) != med).any(axis=0)
    # G^p-connectivity: one step from the last median decides a set of one
    # or two medians; the closure runs only on larger sets it does not cover
    last = (med * seeds).max(axis=0)
    reach = np.take(near, last, axis=1) & med
    cut = (reach != med).any(axis=0)
    many = np.flatnonzero(cut & (med.sum(axis=0) > 2))
    if many.size:
        m = med[:, many]
        reach = reach[:, many]
        while True:
            grown = (near @ reach) & m
            if np.array_equal(grown, reach):
                break
            reach = grown
        cut[many] = (reach != m).any(axis=0)
    return bad | cut
