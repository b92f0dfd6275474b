"""Brute-force profile oracle, independent of the LP recognition path.

For every pair in the distance band p+1..2p, all integer profiles supported
on J(u,v) with weights up to maxWeight are enumerated; the oracle reports
the first profile whose median set is not connected in G^p or whose local
median set in G^p differs from the median set.

Pairs whose J(u,v) lies inside a support already kept are skipped, with
the same answer:

- A pair's profiles and their verdicts depend only on its support J(u,v):
  the scan of a pair never sees u or v.
- A profile on S' inside S is the profile on S with zeros on S \\ S', so a
  scan of S with no bad profile has already found every profile on S'
  good.
- Pairs are taken in order, and every profile of a kept pair is scanned.
  A later pair is reached only if every kept pair before it was scanned
  clean, so a skipped pair has no bad profile, and the first bad pair, and
  its first bad profile in `itertools.product` order, are the ones the
  plain scan of every pair reports.
- The budget still counts the profiles of every band pair before any is
  scanned, so a skip never changes which calls raise `BudgetExceeded`.

Profiles come in `itertools.product` order (first support vertex most
significant, the all-zero profile skipped), in blocks of at most
cap = _BLOCK // (ball size) profiles with no per-profile Python work.  A
block is an n x profiles table f[x, i] = sum_s w_s d(s, x).  On small
graphs the cost of a call is the number of numpy calls it makes, not the
number of profiles, so a call makes few:

- Packed blocks.  The first kept pair is scanned alone, because most hits
  are on it (395 of the 483 hits of the 1,990 calls on the connected
  atlas graphs at p = 1, 2 and maxWeight 2), and later pairs in its block
  would be tabulated and tested for nothing.  The later kept pairs with at
  most cap profiles each are packed, in order, into shared blocks of at
  most cap columns, so each of those 1,990 calls makes at most two kernel
  calls, not one per pair.  Columns keep the scan order, pair by pair and
  code by code, so the first bad column of a block is the first bad
  profile; it is mapped back to its pair and code, and only that code is
  decoded.
- Tables from one digit matrix.  Column i of the k x radix^k digit matrix
  spells i in base maxWeight + 1, most significant digit first; it is
  memoized per radix, k and dtype (`_digits`).  The table of a pair is one
  product of its support rows with that matrix, `einsum('sx,sc->xc')`,
  which makes no temporary.  A pair with more than cap profiles is split
  by its first digits, the prefix: each of its blocks is the table of its
  last digits plus one column, the prefix's offset.
- Exact narrow dtype.  Every value and every partial sum is at most
  maxWeight * |J| * diam, so the table is held in the narrowest of int16,
  int32 and int64 that holds that bound (`_dtype`).
- Local minima in G^p: one gather f[slots] over a padded table of closed
  p-balls and a minimum over it.
- G^p-connectivity of each median set.  One step in G^p from the last
  median decides a set of one or two medians.  The closure runs only on
  the columns that this step and the local-minimum test leave open: reach
  grows through the same `slots` gather, kept inside the median set,
  until it stops growing.
- Memory.  With _BLOCK at least the ball size, every array a scan
  allocates holds at most _BLOCK * n values: a digit matrix, a table, a
  packed block and each mask hold at most n * (cap + 1), and the ball
  gathers at most ball * n * cap.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded
from .graph import DistMatrix, Graph
from .medians import Profile
from .metric import J_set

_BLOCK = 100_000
_BUDGET = 5_000_000


def brute_force_oracle(g: Graph, d: DistMatrix, p: int, max_weight: int):
    """First (pair, integer Profile) breaking p-connectedness, or None.

    Pairs are scanned in order; a pair whose support lies inside the
    support of an earlier kept pair is skipped, since it is reached only
    once that pair was scanned clean (see the module docstring).
    The budget, _BUDGET profiles, counts those of every band pair, skipped
    or not.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    n = g.n
    pairs = [(u, v) for u, row in enumerate(d.d) for v in range(u + 1, n)
             if p < row[v] <= 2 * p]
    supports = []
    total = 0
    for u, v in pairs:
        support = sorted(J_set(g, d, u, v))
        supports.append(support)
        total += (max_weight + 1) ** len(support) - 1
        if total > _BUDGET:
            raise BudgetExceeded(
                f"{total} profiles exceed the budget of {_BUDGET}")
    if not pairs:
        return None
    dist = d.array(_dtype(max_weight * max(map(len, supports)) * d.diameter))
    near = dist <= p                       # closed p-balls, used for both tests
    # slots[k, x] is the k-th vertex of the closed p-ball of x, padded with
    # x: a stable argsort of ~near puts each ball first, in ascending order
    size = near.sum(axis=1)
    ball = int(size.max())
    slots = np.where(np.arange(ball)[:, None] < size,
                     np.argsort(~near, axis=1, kind="stable")[:, :ball].T,
                     np.arange(n))
    seeds = np.arange(n, dtype=_dtype(n))[:, None]   # vertex ids, as a column
    radix = max_weight + 1
    cap = max(1, _BLOCK // ball)           # profile columns in one block
    for block in _blocks(pairs, supports, radix, cap):
        hit = _scan_block(dist, near, slots, seeds, block, radix)
        if hit is not None:
            return hit
    return None


_DTYPES = [(dt, np.iinfo(dt).max) for dt in (np.int16, np.int32, np.int64)]


def _dtype(bound: int):
    """The narrowest of int16, int32 and int64 that holds +-bound."""
    for dt, top in _DTYPES:
        if bound <= top:
            return dt
    raise OverflowError(f"profile values up to {bound} do not fit in int64")


def _blocks(pairs, supports, radix: int, cap: int):
    """The blocks of segments (pair, support, split, j) to scan, in order.

    A segment is the profiles on `support` whose first `split` digits spell
    j; with split 0 it is every profile of the pair.  A pair not inside a
    kept support is kept: it is reached only when every block before it
    was clean, so every kept pair before it was cleared.  The first kept
    pair, and any pair with more than `cap` profiles, is scanned alone,
    split into blocks of at most `cap` columns; the other kept pairs are
    packed in order into shared blocks of at most `cap` columns.
    """
    kept = []                              # masks of the kept supports
    packed, width = [], 0
    for pair, support in zip(pairs, supports):
        mask = sum(1 << s for s in support)
        if any(mask & c == mask for c in kept):
            continue
        count = radix ** len(support) - 1
        if kept and count <= cap:
            if width + count > cap:
                yield packed
                packed, width = [], 0
            packed.append((pair, support, 0, 0))
            width += count
        else:
            if packed:
                yield packed
                packed, width = [], 0
            split = 0                      # prefix digits, a block each
            if count > cap:
                split = 1
                while radix ** (len(support) - split) > cap:
                    split += 1
            for j in range(radix ** split):
                yield [(pair, support, split, j)]
        kept.append(mask)
    if packed:
        yield packed


@lru_cache(maxsize=16)
def _digits(radix: int, size: int, dtype) -> np.ndarray:
    """The size x radix**size matrix whose column i spells i in base radix,
    most significant digit first: the profiles in itertools.product order.
    Read-only, since one copy serves every call; a block's matrix has at
    most cap + 1 columns, and at most 16 are kept."""
    codes = np.arange(radix ** size)
    powers = radix ** np.arange(size - 1, -1, -1)[:, None]
    digits = (codes // powers % radix).astype(dtype)
    digits.setflags(write=False)
    return digits


def _decode(code: int, radix: int, size: int) -> list[int]:
    """The size digits of code in base radix, most significant first."""
    out = [0] * size
    for k in range(size - 1, -1, -1):
        code, out[k] = divmod(code, radix)
    return out


def _table(dist, support, split: int, j: int, radix: int):
    """f[x, i] for the profiles of one segment, the all-zero one skipped."""
    rows = dist[support]
    digits = _digits(radix, len(support) - split, dist.dtype)
    if j == 0:
        digits = digits[:, 1:]
    f = np.einsum("sx,sc->xc", rows[split:], digits)
    if split:                              # the prefix digits add one column
        prefix = np.array(_decode(j, radix, split), dtype=dist.dtype)
        f += np.einsum("sx,s->x", rows[:split], prefix)[:, None]
    return f


def _scan_block(dist, near, slots, seeds, block, radix: int):
    """The first bad (pair, Profile) of a block, or None."""
    tables = [_table(dist, support, split, j, radix)
              for _, support, split, j in block]
    f = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)
    bad = _bad_columns(f, near, slots, seeds)
    if not bad.any():
        return None
    col = int(bad.argmax())
    for table, (pair, support, split, j) in zip(tables, block):
        if col < table.shape[1]:
            break
        col -= table.shape[1]
    inner = len(support) - split
    code = j * radix ** inner + (j == 0) + col
    weights = _decode(code, radix, len(support))
    return pair, Profile({s: w for s, w in zip(support, weights) if w})


def _bad_columns(f, near, slots, seeds):
    """Profiles (columns of f) whose median set is not G^p-connected or has
    a local minimum in G^p outside it."""
    med = f == f.min(axis=0)
    # local minima in G^p: f(x) <= f(y) for every y with d(x,y) <= p; every
    # median is one
    loc = f == f[slots].min(axis=0)
    # reach: the medians one G^p step from the last one.  reach <= med <=
    # loc, so a column is good iff loc == reach once reach is closed; one
    # step decides a set of one or two medians
    last = (med * seeds).max(axis=0)
    reach = np.take(near, last, axis=1) & med
    bad = (loc != reach).any(axis=0)
    open_ = np.flatnonzero(bad)
    if open_.size:                         # grow reach until it stops
        m, reach = med[:, open_], reach[:, open_]
        count, size = -1, np.count_nonzero(reach)
        while size > count:
            reach = reach[slots].any(axis=0) & m
            count, size = size, np.count_nonzero(reach)
        bad[open_] = (loc[:, open_] != reach).any(axis=0)
    return bad
