"""Exact-rational LP recognition of graphs whose medians are connected in G^p.

A pair u,v admits a weight function violating the chord condition iff the
homogeneous strict system D^uv pi < 0, pi >= 0 is solvable; by scaling this
is the closed system D^uv pi <= -1.  Feasibility is decided by a phase-1
simplex with Bland's anti-cycling rule and fraction-free integer pivots.
Its tableau is [A | -I | rhs]: the artificial columns are not stored, since
artificial i is always the negated slack column i, and its reduced cost is
D minus the slack's (see `_phase1`).  It returns either a witness profile,
in `Fraction`s, or a Farkas certificate, read from the slack reduced costs
as the integers D*y: a positive multiple of a certificate is one.  Its
tableau holds only the first copy of each distinct nonzero column, and
its pivots are those on every column (see `lp_feasible_strict`).  Both
answers are re-verified exactly on the full D^uv.  A certificate is sparse: the dict
{w: y_w} of its entries y_w > 0, keyed by row vertex.  Its check sums y_w
times row w over the rows it names only, in every column; a zero row adds
nothing, so this is the full product y^T D^uv, and a unit certificate
costs O(n), not O(mn).
`lp_feasible_strict` is the module's one LP: the alpha/beta weights of
`alpha_beta_certificate` are read from its answer on the alternative
system, so both of their outcomes are certified the same way.

A matrix of at least _UNIFORM_ENTRIES = 256 entries whose row sums s_w are
all negative takes the uniform witness: pi_x = 1/min_w |s_w| on every
column x that is not all zero.  A zero column adds nothing to any row, so
(D pi)_w = s_w / min |s_w| <= -1 for every row w.  Columns u and v of D^uv
are zero, since D[w][u] = d(u,w) k - k d(u,w), so on D^uv the witness
leaves out u and v.  The rule is the zero columns, not x != u, v, because
`_solve_eta` solves matrices whose columns are J°(u,v), which holds u and
v, with nonzero entries there.  The witness is checked on the matrix like
every other answer.  On the witness pair of G_q every row has the same
sum, and the witness is the one the simplex reaches: the plain simplex
took 0.42 s on G_5's 62 x 64 and 6.96 s on G_7's 114 x 116, and did not
finish G_11's in 300 s (2-vCPU VM).  The gate keeps the simplex's witness
on smaller matrices: with no gate 71 atlas, 8 random pool, 5 seeded random
and 10 test corpus witnesses change.

A pair's verdict comes from `_pair_verdicts`, shared by `compute_p` and
`has_Gp_connected_medians`.  Column x of D^uv is the profile with all its
weight on x, and row w is w's chord inequality.  By Farkas' lemma,
D^uv pi <= -1 has no solution pi >= 0 iff some y >= 0, y != 0 has
y^T D^uv >= 0: given both, y^T D^uv pi >= 0 since pi >= 0, while
y^T (D^uv pi) <= -(y_1 + ... + y_m) < 0.  Before any LP, three tests can
decide a pair; two of them are the singleton tests of LP presolve
(Andersen & Andersen 1995, "Presolving in linear programming", Math.
Program. 71):
- a nonnegative row w makes {w: 1} a Farkas certificate, since
  e_w^T D^uv is that row;
- an all-negative column x makes {x: 1} a witness, since every row is then
  at most -1;
- a balanced pair (`_balanced`).  With u, v at distance k, write
  a_i = d(u,w_i) and b_i = d(v,w_i) = k - a_i for two interior rows
  w_1, w_2; they are balanced when a_1 + a_2 = k, so that b_1 + b_2 = k
  as well.  Rows w_1 and w_2 then sum to
    (b_1 + b_2) d(u,x) + (a_1 + a_2) d(v,x) - k (d(w_1,x) + d(w_2,x))
    = k (d(u,x) + d(v,x) - d(w_1,x) - d(w_2,x)),
  so {w_1: 1, w_2: 1} is a Farkas certificate iff d(w_1,x) + d(w_2,x) <=
  d(u,x) + d(v,x) for every vertex x, which reads two rows of the distance
  table and no matrix.  This is the companion test of
  `alpha_beta_certificate` taken over every x.  Two interior vertices at
  distance k, a mirror pair, are always balanced: k = d(w_1,w_2) is at
  most both a_1 + a_2 and b_1 + b_2, which sum to 2k.  Summing the
  inequality over x shows that r(w_1) + r(w_2) <= r(u) + r(v) is needed,
  r(w) being the transmission, the sum of w's distance row.  So the tries
  are the mirror pairs first, then the other balanced pairs, each in order
  of least r(w_1) + r(w_2), ties in row order, and at most
  _BALANCED_TRIES = 8 of them.  The candidates are taken level by level,
  w_1 at level a <= k/2 of the interval and w_2 at level k - a.  At the
  middle level, 2a = k, w_1 = w_2 = w is a candidate too, never a mirror
  pair.  Its try 2 d(w,x) <= d(u,x) + d(v,x) is exactly "row w is
  nonnegative", since row w is (k/2)(d(u,x) + d(v,x) - 2 d(w,x)), and the
  certificate stored is {w: 1}, as for a nonnegative row.  So the pairs of
  paths, trees and grids with one interior vertex, whose one row is
  nonnegative, are decided by a try.
The tests run in the order of their cost.  The balanced pairs come first,
since they read the distance table alone.  Then (`_unbalanced`) the rows
of D^uv are built in order, and building stops at the first nonnegative
row; the same loop keeps the columns that are negative in every row so
far, so a full D^uv whose first such column is x takes the witness
{x: 1}.  Only a pair that no test decides gets a `RationalMatrix`, for
the LP.  On the benchmark's random pool, of the 15,671
pairs at distance at least 2, a balanced pair decides 5,722, a nonnegative
row 20 and an all-negative column 8,029, and 1,900 go to the LP.  The
row-sum certificate y = 1 would decide 20 of these 1,900 and no pair of
the atlas bands or of the test corpus, for a pass over every full D^uv,
so it is not tried.
The first try decides every infeasible pair of G_7, G_11 and C_12 x C_12;
on the pair (0, 22) of C_10 x C_10 it is the two free corners of the
3 x 3 interval, and y^T D^uv = 0.

Every answer is a sparse integer certificate or a witness, and no answer
keeps a matrix.  It is checked by a computation apart from its test, and
a failed check raises `AssertionError` naming the pair.  An answer found
before the LP is checked in integers on the distance table, with no
`RationalMatrix`.  `_holds` takes a certificate {w: y_w} only when each w
is an interior row (w != u, v and d(u,w) + d(w,v) = d(u,v)) with
y_w > 0, and sums y_w times row w, built from the distance rows by
`_Duv_rows`, the one formula of a row, over the rows it names only: a
zero row adds nothing to y^T D^uv.  Every column of the sum must be at
least 0.  A balanced pair is checked on rows w_1 and w_2 (row w alone for
a midpoint), and a nonnegative row on itself.  The witness {x: 1} is
checked by reading column x of every row again, each entry at most -1.
An LP answer is checked on the full D^uv by `_check_result(mat, res)`: a
certificate that is empty, has a y_w <= 0 or names a vertex that is not a
row of mat fails it.

A band scan of `_pair_verdicts` reads only the rows of orbit roots.  An
automorphism sigma keeps distances, so row sigma(w), column sigma(x) of
D^{sigma(u) sigma(v)} is entry (w, x) of D^uv: the rows and columns are
permuted, and (u, v) and (sigma(u), sigma(v)) have the same verdict.
Let rho < u be the least vertex of u's orbit, its root, and sigma an
automorphism that maps u to rho.  A pair (u, v), u < v, then has the
same verdict as (rho, sigma(v)), which lies in the row of rho or of
sigma(v) < rho, an earlier row; by induction every pair has a pair of
equal verdict and distance in the row of a root, at or before it in the
scan's order.  So a band has a failing pair iff a root's row has one, and
its first failing pair lies in a root's row: `compute_p` and
`has_Gp_connected_medians` skip every other row and find the same p and
the same witness pair.  The automorphisms come from
`symmetry.automorphisms`, each checked on every edge, so a weak or failed
search costs time, never a verdict.  The search runs only on a graph with
at least _ORBIT_PAIRS = 32 pairs at distance 2 or more, whose every
transmission r(w) is shared by another vertex.  Each of the 995 connected
atlas graphs has at most 15 such pairs (a tree of 7 vertices: 21 - 6), and
on them a search costs more than scanning them: with the transmission gate
alone, 156 atlas graphs search, the atlas bands'
`has_Gp_connected_medians` at p = 1, 2 took 79.6 ms against 64.5 ms, and
the benchmark's `oracle-atlas` `job_s.p50` 0.446 ms against 0.422 ms,
higher in 12 of 12 rotating runs.  A gate at 128 pairs, which keeps G_2
(85 pairs) from searching, measured the same as 32 on `pvalue-families`,
`pvalue-random` and `oracle-atlas`.  The transmissions are shared in
none of the 240 graphs of the benchmark's random pool and in every graph
of its family corpus.  With neither gate
the search made the pool's `compute_p` 7% slower and the atlas bands 1.9
times slower.
Vertex 0 is always a root, so the search runs when a scan first moves
past row 0, and a scan that stops within row 0, as every scan of an odd
cycle does, or whose band lies past the diameter, makes none.  A graph
that passes both gates, has no symmetry and has no failing pair in row 0
pays for a search that saves nothing, bounded by the search's budget (see
`symmetry`): about 13 ms on the Latin square graph of 64 vertices.  Each
pair a scan reads is decided pair by pair (`_head`), its interior read
from the distance rows as the w != u, v with d(u,w) + d(w,v) = d(u,v).

D^uv has a column for every vertex, though a violating profile pi can
always be moved onto J(u,v).  With F the median function of pi and w inside
I(u,v), moving weight omega from z to a neighbour closer to both u and v
(there is one iff z is not in J(u,v)) lowers d(v,w)F(u) + d(u,w)F(v) by
exactly d(u,v)*omega and d(u,v)F(w) by at most that, so each violated row
stays violated.  The moves end on J(u,v), so the LP on the J(u,v) columns
alone is feasible iff this one is: a J-column LP would add nothing.
D^uv depends only on the pair, never on p, so `_pair_verdicts` decides
each pair at most once, and `compute_p` stops each scan, the report's too,
at its first failing pair: its decision is the last one.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import symmetry
from .errors import InteriorTooLarge, WrongDistance
from .graph import DistMatrix, Graph
from .medians import (Profile, _pairs_in_distance_band, _require_nonadjacent,
                      _scaled)
from .metric import Jcirc_set, M_set, interior_interval


@dataclass(frozen=True)
class RationalMatrix:
    """Integer matrix D^uv: rows the interval interior, columns every vertex."""

    entries: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]      # w in I°(u,v)
    cols: tuple[int, ...]      # column vertex set
    u: int
    v: int


@dataclass(frozen=True)
class FeasibilityResult:
    status: str                                 # "feasible" | "infeasible"
    witness: dict[int, Fraction] | None = None  # keyed by column vertex
    certificate: dict[int, int] | None = None   # y_w > 0, keyed by row vertex

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def build_Duv(g: Graph, d: DistMatrix, u: int, v: int) -> RationalMatrix:
    """D^uv entry (w,x) = d(v,w)d(u,x) + d(u,w)d(v,x) - d(u,v)d(w,x), its
    rows I°(u,v) in ascending order."""
    _require_nonadjacent(g, u, v)
    rows = tuple(sorted(interior_interval(g, d, u, v)))
    return RationalMatrix(tuple(_Duv_rows(d, u, v, rows)), rows, tuple(range(g.n)), u, v)


def _Duv_rows(d: DistMatrix, u: int, v: int, rows):
    """Row w of D^uv for each w of rows, in order, each built as it is read."""
    dd = d.d
    du, dv = dd[u], dd[v]
    k = du[v]
    for w in rows:
        b, a = dv[w], du[w]
        yield tuple([b * x + a * y - k * z for x, y, z in zip(du, dv, dd[w])])


def _phase1(tableau, n_free):
    """Minimize the sum of the artificial variables with Bland's rule.

    tableau: integer rows [A | -I | rhs] with rhs >= 0, n_free columns in A
    and one slack column per row after them.  Row i stands for
    A_i x - s_i + a_i = rhs_i, and the artificials a are the starting basis.
    The objective is carried as one more row, appended here: D times the
    reduced costs, and -D times the objective value in its rhs.  It starts
    as c minus the sum of the rows, c being 1 on the artificials and 0
    elsewhere.

    The artificial columns are not stored.  Artificial column i starts as
    +e_i and slack column i as -e_i, and every row operation is linear, so
    in every constraint row artificial column i is the negated slack column
    n_free + i.  Their reduced costs are 1 - y_i and y_i, y being the
    simplex multipliers, so the objective entry of artificial i is
    D - obj[n_free + i]; a pivot keeps that relation, as the update below
    maps D - s to piv - s', s' being the slack's new entry and piv the new
    D.  Bland's rule scans the columns as if they were stored: the
    n_free + m stored ones first, then artificial i, labelled
    n_free + m + i, which enters when obj[n_free + i] > D.  An entering
    artificial pivots on the negated slack column, with D - obj[n_free + i]
    as its objective entry, and keeps its label in the basis, so the ratio
    test breaks ties as on the full tableau [A | -I | I | rhs], and the
    pivots are the full tableau's.

    Pivots are fraction-free (Edmonds 1967; Bareiss 1968): the tableau is
    kept as integers T = D * R, where R is the rational simplex tableau and
    D > 0 the determinant of the current basis.  Pivoting on T[r][e] = piv
    leaves row r as it is and maps every other row, the objective row too,
    to (piv*T[i][j] - T[i][e]*T[r][j]) // D, then sets D = piv; a row with
    T[i][e] = 0 becomes piv*T[i][j] // D, and stays as it is when piv = D.
    The division
    is exact because every entry is a minor of the start matrix bordered by
    the objective row, whose bordered basis also has determinant D.  Signs
    of reduced costs and the cross-multiplied ratio test agree with those
    of R, so the pivot sequence is the rational one.

    Returns (tableau, D, basis); the objective row is tableau[-1], and
    obj[n_free + i] / D is the multiplier y_i.
    """
    m = len(tableau)
    n_cols = n_free + m
    # c minus the column sums: 0 + 1 = 1 on the slack columns.  With no
    # rows zip(*tableau) is empty, and every entry is 0.
    obj = [-sum(col) for col in zip(*tableau)] or [0] * (n_cols + 1)
    tableau.append(obj)
    basis = list(range(n_cols, n_cols + m))
    D = 1
    while True:
        obj = tableau[-1]
        label = next((j for j in range(n_cols) if obj[j] < 0), -1)
        if label >= 0:
            entering = [row[label] for row in tableau]
        else:
            i = next((i for i in range(m) if obj[n_free + i] > D), -1)
            if i < 0:
                return tableau, D, basis
            label, slack = n_cols + i, n_free + i
            entering = [-row[slack] for row in tableau]
            entering[m] = D - obj[slack]
        # ratio rhs_i / a_i, compared as rhs_i * a_l < rhs_l * a_i (a_i, a_l > 0)
        leaving = -1
        for i in range(m):
            a = entering[i]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                lhs = tableau[i][-1] * entering[leaving]
                rhs = tableau[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            raise AssertionError("phase-1 objective unbounded")  # impossible: bounded by 0
        prow = tableau[leaving]
        piv = entering[leaving]
        for i in range(m + 1):
            if i != leaving:
                c = entering[i]
                if c:
                    tableau[i] = [(piv * a - c * b) // D for a, b in zip(tableau[i], prow)]
                elif piv != D:      # c = 0: the row is scaled by piv / D
                    tableau[i] = [piv * a // D for a in tableau[i]]
        basis[leaving] = label
        D = piv


def lp_feasible_strict(mat: RationalMatrix) -> FeasibilityResult:
    """Decide whether some pi >= 0 has M pi < 0 strictly in every row.

    Solved as feasibility of {M pi <= -1, pi >= 0}: every row is negated to
    (-M) pi - s + a = 1, and the sum of artificials a is minimized by
    `_phase1` on the tableau [-M | -I | 1], which keeps the artificial
    columns implicit.  A zero optimum gives the witness pi; otherwise the
    simplex multipliers y, read from the slack reduced costs, are the
    Farkas certificate; it is returned as the integers D*y_w != 0, keyed by
    row vertex, D > 0 being the final basis determinant, which certify the
    same as y.

    The tableau keeps only the first copy of each distinct nonzero column
    of M, and every pivot is the one on all of M.  A zero column has
    reduced cost 0 at every pivot, since it is 0 in every row of the
    tableau and the objective row starts as minus its column sum, so it
    never enters.  A later copy of a column is equal to its first copy in
    every row, the objective row too, at every pivot, so Bland's rule,
    which takes the lowest label of negative reduced cost, takes the first
    copy first, and the later one never enters either.  The kept columns
    are renumbered in order, and the slacks and artificials all shift down
    by the number of columns left out, so every comparison of labels in
    the ratio test is as before.  A column that never enters is never basic, so the witness, D
    and the certificate are those of the full tableau.

    A matrix of at least _UNIFORM_ENTRIES entries, counted before the
    reduction, whose row sums are all negative takes the uniform witness
    instead: 1/min |s_w| on every column that is not all zero, s_w being
    the sum of row w; see the module docstring.
    """
    entries = mat.entries
    m, n = len(entries), len(mat.cols)
    if m * n >= _UNIFORM_ENTRIES and (top := max(map(sum, entries))) < 0:
        weight = Fraction(1, -top)
        res = FeasibilityResult("feasible", witness={
            x: weight for x, col in zip(mat.cols, zip(*entries)) if any(col)})
        return _checked(_check_result(mat, res), res, "uniform witness", mat.u, mat.v)
    first = {}              # each distinct nonzero column: its first index
    for j, col in enumerate(zip(*entries)):
        if any(col):
            first.setdefault(col, j)
    kept = list(first.values())
    n = len(kept)
    # columns: pi (0..n-1), slacks (n..n+m-1); the artificials are implicit
    rows = [[-x for x in row] + [-1 if k == i else 0 for k in range(m)] + [1]
            for i, row in enumerate(list(zip(*first)) or [()] * m)]
    tableau, D, basis = _phase1(rows, n)
    obj = tableau[-1]
    if obj[-1] == 0:
        res = FeasibilityResult("feasible", witness={
            mat.cols[kept[b]]: Fraction(tableau[i][-1], D) for i, b in enumerate(basis)
            if b < n and tableau[i][-1] != 0})
    else:
        # obj[n + i] = D * y_i, y_i being the reduced cost of slack column i
        res = FeasibilityResult("infeasible", certificate={
            w: y for w, y in zip(mat.rows, obj[n:n + m]) if y})
    return _checked(_check_result(mat, res), res, "simplex answer", mat.u, mat.v)


_UNIFORM_ENTRIES = 256        # the size gate of the uniform witness: see the module docstring


def _check_result(mat: RationalMatrix, r: FeasibilityResult) -> bool:
    """Exact check on mat of a witness (every row of M pi <= -1, pi >= 0)
    or a Farkas certificate (y >= 0, y != 0, y^T M >= 0), in integers
    after scaling by the common denominator.  The certificate names each
    row w with y_w > 0 by its vertex, and the rows it leaves out have
    y_w = 0: a zero row adds nothing to y^T M, so mat needs to hold only
    the rows it names, a unit certificate costs one pass over its row, and
    a row with y_w = 1 is summed as it stands.  A certificate that is
    empty, has a y_w <= 0 or names a vertex that is not a row of mat is
    rejected."""
    if r.status == "feasible":
        if not r.witness:
            return False
        col_index = {x: j for j, x in enumerate(mat.cols)}
        if any(x not in col_index for x in r.witness):
            return False
        den, weights = _scaled(list(r.witness.values()))
        if any(w < 0 for w in weights):
            return False
        cols = [col_index[x] for x in r.witness]
        return all(sum(row[j] * w for j, w in zip(cols, weights)) <= -den
                   for row in mat.entries)
    y = r.certificate
    rows = dict(zip(mat.rows, mat.entries))
    if not y or not y.keys() <= rows.keys() or min(y.values()) <= 0:
        return False
    _, scale = _scaled(list(y.values()))
    scaled = [rows[w] if yw == 1 else [yw * x for x in rows[w]] for w, yw in zip(y, scale)]
    return min(map(sum, zip(*scaled)), default=0) >= 0


def _checked(ok: bool, res: FeasibilityResult, source: str, u: int, v: int) -> FeasibilityResult:
    """res, once its check ok holds on the pair (u, v)."""
    if not ok:
        raise AssertionError(f"{source} does not verify on pair ({u},{v})")
    return res


def _holds(d: DistMatrix, u: int, v: int, y: dict[int, int]) -> bool:
    """Whether y = {w: y_w} is a Farkas certificate of the pair (u, v),
    checked in integers on the rows of D^uv it names: each w an interior
    row (w != u, v and d(u,w) + d(w,v) = d(u,v)) with y_w > 0, at least
    one of them, and the sum of y_w times row w (`_Duv_rows`) at least 0
    in every column."""
    du, dv = d.d[u], d.d[v]
    k = du[v]
    total = None
    for (w, yw), row in zip(y.items(), _Duv_rows(d, u, v, y)):
        if w == u or w == v or du[w] + dv[w] != k or yw <= 0:
            return False
        row = row if yw == 1 else [yw * x for x in row]
        total = row if total is None else list(map(operator.add, total, row))
    return total is not None and min(total) >= 0


def _head(d: DistMatrix, r, u: int, v: int):
    """(mat, res) for the pair (u, v) decided on its own: res is its
    balanced-pair certificate, checked by `_holds`, and then mat is None;
    else the `_unbalanced` answer."""
    du = d.d[u]
    k = du[v]
    far = list(map(operator.add, du, d.d[v]))
    rows = [w for w, f in enumerate(far) if f == k]      # I(u,v)
    rows.remove(u)
    rows.remove(v)
    pair = _balanced(d, r, u, v, rows, far)
    if pair is None:
        return _unbalanced(d, u, v, tuple(rows))
    y = dict.fromkeys(pair, 1)     # {w: 1} for a midpoint w = w_1 = w_2
    return None, _checked(_holds(d, u, v, y), FeasibilityResult("infeasible", certificate=y),
                          "balanced answer", u, v)


def _unbalanced(d: DistMatrix, u: int, v: int, rows):
    """(mat, res) for the pair (u, v) whose interior rows no balanced pair
    decides.  Its rows of D^uv are built in order, and the columns negative
    in every row so far are kept.  res is the first nonnegative row {w: 1},
    checked by `_holds`, else the witness {x: 1} of the first column x
    negative in every row, checked by reading column x of every row again,
    and then mat is None.  Else mat is the full D^uv and res is None, which
    leaves the pair to the LP."""
    entries = []
    neg = range(d.n)
    for w, row in zip(rows, _Duv_rows(d, u, v, rows)):
        if min(row) >= 0:
            return None, _checked(_holds(d, u, v, {w: 1}), FeasibilityResult(
                "infeasible", certificate={w: 1}), "one-vertex answer", u, v)
        neg = [x for x in neg if row[x] < 0]
        entries.append(row)
    if neg:
        x = neg[0]
        return None, _checked(all(row[x] <= -1 for row in entries), FeasibilityResult(
            "feasible", witness={x: Fraction(1)}), "one-vertex answer", u, v)
    return RationalMatrix(tuple(entries), rows, tuple(range(d.n)), u, v), None


def verify_feasibility_result(g: Graph, d: DistMatrix, u: int, v: int,
                              r: FeasibilityResult) -> bool:
    """Re-check a witness or certificate against a freshly built matrix."""
    return _check_result(build_Duv(g, d, u, v), r)


def _balanced(d: DistMatrix, r, u: int, v: int, rows, far):
    """The first balanced pair (w_1, w_2), w_1 <= w_2, of the interior rows
    of D^uv whose try holds, else None.  The candidates are taken level by
    level, w_1 at distance a from u and w_2 at distance d(u,v) - a, the
    midpoint w_1 = w_2 too, and ranked mirror pairs, d(w_1,w_2) = d(u,v),
    first, then by least r(w_1) + r(w_2), r being the transmissions, then in
    row order; at most _BALANCED_TRIES of them are tried.  A try holds when
    d(w_1,x) + d(w_2,x) <= d(u,x) + d(v,x) for every x; see the module
    docstring; far[x] is d(u,x) + d(v,x)."""
    dd = d.d
    du = dd[u]
    k = du[v]
    levels = [[] for _ in range(k)]
    for w in rows:
        levels[du[w]].append(w)
    tries = []
    for a in range(1, k // 2 + 1):
        for w1, w2 in (itertools.combinations_with_replacement(levels[a], 2) if 2 * a == k
                       else itertools.product(levels[a], levels[k - a])):
            if w1 > w2:
                w1, w2 = w2, w1
            tries.append((dd[w1][w2] != k, r[w1] + r[w2], w1, w2))
    tries.sort()
    for _, _, w1, w2 in tries[:_BALANCED_TRIES]:
        if all(map(operator.le, map(operator.add, dd[w1], dd[w2]), far)):
            return w1, w2
    return None

_BALANCED_TRIES = 8           # balanced pairs tried per pair: see the module docstring


def _pair_verdicts(g: Graph, d: DistMatrix):
    """The band scan of one graph, and the set of the pairs it gave their
    own solve.

    scan(lo, hi) yields (u, v, verdict) for the pairs of the band
    lo <= d(u,v) <= hi in `_pairs_in_distance_band` order, in the rows u
    that are the roots of their orbits: every row, unless the graph has at
    least _ORBIT_PAIRS pairs at distance 2 or more and every transmission is
    shared by another vertex.  Then the first scan to move past row 0
    searches for automorphisms (`symmetry.automorphisms`), and the rows of the
    vertices that are not the least of their orbit are skipped: whether a
    band has a failing pair, and its first one, are read off the roots'
    rows (see the module docstring).  A pair's verdict is its presolve
    answer when it has one, else its own solve; neither holds a matrix.
    Scans share the verdicts, own, the orbits and the transmissions that
    order the balanced pairs, summed once.
    """
    verdicts: dict[tuple[int, int], FeasibilityResult] = {}
    own: set[tuple[int, int]] = set()
    r = [sum(row) for row in d.d]       # the transmissions
    search = g.n * (g.n - 1) // 2 - g.num_edges() >= _ORBIT_PAIRS and \
        min(Counter(r).values()) > 1
    root = None

    def decide(u: int, v: int) -> FeasibilityResult:
        """The verdict of (u, v), stored."""
        mat, res = _head(d, r, u, v)
        if res is None:
            res = lp_feasible_strict(mat)
            own.add((u, v))
        verdicts[u, v] = res
        return res

    def roots():
        """The rows a scan reads, each as the scan reaches it: every row, or
        from row 1 on, once automorphisms are searched, the orbit roots'."""
        nonlocal search, root
        for u in range(g.n):
            if u == 1 and search:
                search = False
                root = symmetry.automorphisms(g, d, r)[1]
            if root is None or root[u] == u:
                yield u

    def scan(lo: int, hi: int):
        if lo > d.diameter:     # no pair, and no row to move past: no search
            return
        for u, v in _pairs_in_distance_band(d, lo, hi, roots()):
            yield u, v, verdicts.get((u, v)) or decide(u, v)

    return scan, own


_ORBIT_PAIRS = 32       # pairs at distance 2 or more before automorphisms are searched


def has_Gp_connected_medians(g: Graph, d: DistMatrix, p: int) -> bool:
    """p(G) <= p iff no pair in the band p+1 <= d(u,v) <= 2p is feasible."""
    if p < 1:
        raise ValueError("p must be >= 1")
    scan, _ = _pair_verdicts(g, d)
    return not any(res.feasible for _, _, res in scan(p + 1, 2 * p))


@dataclass(frozen=True)
class PValueReport:
    p: int
    witness_pair: tuple[int, int] | None = None
    witness_profile: Profile | None = None           # feasible pi at p-1
    disconnecting_profile: Profile | None = None     # integer profile, Med disconnected in G^{p-1}


def witness_to_profile(witness: dict[int, Fraction]) -> Profile:
    """Scale a rational LP witness to an integer profile."""
    _, weights = _scaled(list(witness.values()))
    return Profile(dict(zip(witness, weights)))


def disconnecting_profile(g: Graph, d: DistMatrix, u: int, v: int,
                          pi: Profile) -> Profile:
    """Integer profile pi+ with median set exactly {u, v}.

    Input: integer pi whose median function has every interior vertex of
    I(u,v) strictly above the chord between u and v.  The boost
    mu = k*F(v) + 1 (k = d(u,v), F(v) >= F(u)) makes u and v the unique
    minima while the relative order elsewhere is preserved.  It is
    computed in ints, and only the `Profile` returned holds `Fraction`s.
    """
    _, ints = _scaled(list(pi.weights.values()))     # den = 1: pi is an integer profile
    weights = dict(zip(pi.weights, ints))
    fu, fv = (sum(w * d.d[x][y] for x, w in weights.items()) for y in (u, v))
    if fv < fu:
        u, v = v, u
        fu, fv = fv, fu
    k = d(u, v)
    mu = k * fv + 1
    boosted = {x: k * w for x, w in weights.items()}
    boosted[u] = boosted.get(u, 0) + mu
    boosted[v] = boosted.get(v, 0) + mu + fv - fu
    return Profile(boosted)


def compute_p(g: Graph, d: DistMatrix) -> PValueReport:
    """Smallest p such that every median set is connected in G^p.

    A pair's verdict does not depend on p, and a failing (feasible) pair at
    distance k lies in the band p+1 <= d(u,v) <= 2p of every level
    ceil(k/2) <= p <= k-1.  So a level's scan stops at its first failing
    pair and the scan goes on at p = k; the first level with no failing
    pair is p.  Terminates by p = diameter, where the band is empty.  The
    band of p-1 is then scanned in ascending pair order up to its first
    failing pair, the witness pair, whose verdict is its own solve.

    Pairs are decided by `_pair_verdicts`, which reads the rows of orbit
    roots only; the first failing pair of a band lies in one of them.  A
    feasible verdict is a one-vertex witness or the pair's own solve; in
    the first case the witness pair is solved again, on `build_Duv`'s
    matrix, the one its witness was found on.
    """
    scan, own = _pair_verdicts(g, d)
    p = 1
    while True:
        k = next((d(u, v) for u, v, res in scan(p + 1, 2 * p) if res.feasible), None)
        if k is None:
            break
        p = k
    if p == 1:
        return PValueReport(p=p)
    u, v, res = next(t for t in scan(p, 2 * p - 2) if t[2].feasible)
    if (u, v) not in own:
        res = lp_feasible_strict(build_Duv(g, d, u, v))
    return PValueReport(
        p=p,
        witness_pair=(u, v),
        witness_profile=Profile(dict(res.witness)),
        disconnecting_profile=disconnecting_profile(g, d, u, v,
                                                    witness_to_profile(res.witness)),
    )


_INTERIOR_CAP = 8             # interior vertices of an alpha/beta pair
_ASSIGNMENT_CAP = 20_000      # companion assignments of one S


def alpha_beta_certificate(g: Graph, d: DistMatrix, u: int, v: int):
    """Certificate (S, eta, companions) for a distance-2 pair, or None.

    Searches nonempty S inside the interval interior, of at most
    _INTERIOR_CAP vertices.  Each s in S needs a
    companion t in S with d(s,x)+d(t,x) <= d(u,x)+d(v,x) for all x in the
    equidistant part M(u,v), with eta(s)=eta(t) forced when d(s,t)=2; eta
    must give every x in J°(u,v) at least half the total weight among its
    neighbours in S.  For each S and companion choice the weights come from
    lp_feasible_strict, the one LP of this module, on the alternative
    system (see _solve_eta): its verified Farkas certificate is eta,
    normalized to total 1, and its verified witness proves that no eta
    exists.  So both outcomes are exact certificates.
    """
    if d(u, v) != 2:
        raise WrongDistance(f"pair ({u},{v}) is at distance {d(u, v)}, need 2")
    interior = sorted(interior_interval(g, d, u, v))
    if len(interior) > _INTERIOR_CAP:
        raise InteriorTooLarge(f"interval interior has {len(interior)} "
                               f"vertices (cap {_INTERIOR_CAP})")
    mids = sorted(M_set(g, d, u, v))
    jcirc = sorted(Jcirc_set(g, d, u, v))
    compat = {
        (s, t): all(d(s, x) + d(t, x) <= d(u, x) + d(v, x) for x in mids)
        for s in interior for t in interior}

    for size in range(1, len(interior) + 1):
        for S in itertools.combinations(interior, size):
            options = {s: [t for t in S if compat[(s, t)]] for s in S}
            if any(not opts for opts in options.values()):
                continue
            # only companions at distance 2 impose eta equalities; a vertex
            # with a closer valid companion can take it with no constraint
            free, tied = {}, []
            for s in S:
                near = [t for t in options[s] if d(s, t) != 2]
                if near:
                    free[s] = near[0]
                else:
                    tied.append(s)
            choice_lists = [options[s] for s in tied]
            n_assign = 1
            for lst in choice_lists:
                n_assign *= len(lst)
            if n_assign > _ASSIGNMENT_CAP:
                raise InteriorTooLarge(f"{n_assign} companion assignments "
                                       f"exceed cap {_ASSIGNMENT_CAP}")
            for picks in itertools.product(*choice_lists):
                comp = dict(free)
                comp.update(zip(tied, picks))
                eta = _solve_eta(g, d, u, v, S, comp, jcirc)
                if eta is not None:
                    return set(S), eta, comp
    return None


def _solve_eta(g: Graph, d: DistMatrix, u: int, v: int, S, comp, jcirc):
    """Weights eta >= 0 on S of total 1, equal on companions at distance 2,
    that put at least half of the total on the neighbours of each x in
    J°(u,v); None if there are none.

    Tied vertices are merged into classes with one weight each, named by
    their smallest vertex.  The system is then {e >= 0, e != 0, A e <= 0}
    with A[x][c] = sum over s in c of (1 - 2[s ~ x]).  By Ville's theorem
    of the alternative it has no solution iff some pi >= 0 has A^T pi > 0,
    which is the strict system of lp_feasible_strict on M = -A^T.  So a
    verified witness pi proves that no eta exists, and otherwise the
    verified Farkas certificate y is a solution e.
    """
    label = {s: s for s in S}
    for s, t in comp.items():
        if d(s, t) == 2:
            keep, drop = sorted((label[s], label[t]))
            for x in S:
                if label[x] == drop:
                    label[x] = keep
    classes = sorted(set(label.values()))
    entries = tuple(
        tuple(sum(1 if s in g.adj_sets[x] else -1 for s in S if label[s] == c)
              for x in jcirc)
        for c in classes)
    res = lp_feasible_strict(RationalMatrix(entries, tuple(classes), tuple(jcirc), u, v))
    if res.feasible:
        return None
    y = [res.certificate.get(label[s], 0) for s in S]
    total = sum(y)
    return {s: Fraction(ys, total) for s, ys in zip(S, y)}
