"""Exact-rational LP recognition of graphs whose medians are connected in G^p.

A pair u,v admits a weight function violating the chord condition iff the
homogeneous strict system D^uv pi < 0, pi >= 0 is solvable; by scaling this
is the closed system D^uv pi <= -1.  Feasibility is decided by a phase-1
simplex with Bland's anti-cycling rule and fraction-free integer pivots.
Its tableau is [A | -I | rhs]: the artificial columns are not stored, since
artificial i is always the negated slack column i, and its reduced cost is
D minus the slack's (see `_phase1`).  It returns either a witness profile,
in `Fraction`s, or a Farkas certificate, read from the slack reduced costs
as the integers D*y: a positive multiple of a certificate is one.  Both are
re-verified exactly on the full D^uv.  The check of a certificate y sums
y_i times row i over the rows with y_i != 0 only, in every column; a zero
row adds nothing, so this is the full product y^T D^uv, and a unit
certificate costs O(n), not O(mn).
`lp_feasible_strict` is the module's one LP: the alpha/beta weights of
`alpha_beta_certificate` are read from its answer on the alternative
system, so both of their outcomes are certified the same way.

A matrix of at least _QUOTIENT_ENTRIES = 256 entries is solved on its
equitable quotient: colour refinement as dimension reduction (Grohe,
Kersting, Mladenov & Selman 2014, "Dimension reduction via colour
refinement", ESA).  `_equitable_partition` refines the matrix itself into
row classes A and column classes B such that all rows of A have the same
sum over the columns of B, and all columns of B the same sum over the
rows of A.  The quotient R[A][B] is that row sum, the sum of D[w][x] over
x in B for any w in A, and it has the verdict of D:
- a witness pi of R, lifted as pi_B on every x in B, gives
  (D pi)_w = sum_B pi_B R[A][B] = (R pi)_A <= -1 for every w in A;
- a certificate y of R, lifted as y_A / |A| on every row of A, gives
  (y^T D)_x = sum_A y_A R[A][B] / |B| = (y^T R)_B / |B| >= 0 for every x
  in B, since the entries of the block A x B sum to |A| R[A][B] and to
  |B| times the sum of column x over the rows of A.  `_lifted` scales the
  lift by L, the lcm of the row class sizes, so it stays an int tuple.
Each lift is checked on the full D^uv like every other answer, and one that
fails raises `AssertionError`; there is no fallback.  A matrix whose rows
and columns are all classes of their own takes the plain solve.  The lifted
witness need not be the vertex that Bland's rule reaches on the full
matrix, so a witness pair over the gate can print another witness of the
same pair, as C_41 and C_10 x C_10 do (README lists the graphs found);
G_3, G_5 and G_7 print the same one.
The gate was measured on a 2-vCPU VM, best of 3 per solve, on the matrices
that compute_p solves (has_Gp_connected_medians at p = 1, 2 on the atlas),
quotient first against the plain solve:

  matrices                    entries   solves   quotient    plain
  random pool, 240 graphs      0-49       207     25.8 ms     9.9 ms
                              50-99       299     72.7 ms    34.2 ms
                             100-149      146     65.4 ms    38.8 ms
                             150-199       56     42.4 ms    31.2 ms
                             200-221        8     12.2 ms    10.7 ms
  benchmark families            224         1      0.3 ms     1.6 ms
  (the G_3 ones)                280         1      0.3 ms     1.1 ms
                                728         1      0.5 ms    12.8 ms
  atlas, 995 graphs             0-35       259     25.8 ms    15.9 ms

So the quotient loses on every pool bucket and on the atlas, and the only
matrices of the benchmark's workloads that reach the gate are G_3's 10 x 28
and 26 x 28.  The witness D^uv of G_q refines to 1 x 2: every row sums to
the same value and columns u and v are 0, so G_7's 114 x 116 becomes
((-288, 0)), and compute_p on G_7 went from 5.0-7.2 s to 0.8-1.0 s.

A pair's verdict comes from `_pair_verdicts`, shared by `compute_p` and
`has_Gp_connected_medians`.  It first tries `_presolve`: the singleton
tests of LP presolve (Andersen & Andersen 1995, "Presolving in linear
programming", Math. Program. 71), then one fixed certificate.  Column x of
D^uv is the profile with all its weight on x, and row w is w's chord
inequality:
- a nonnegative row w makes e_w a Farkas certificate, since e_w^T D^uv is
  that row;
- an all-negative column x makes {x: 1} a witness, since every row is then
  at most -1;
- nonnegative column sums make y = 1 a Farkas certificate.  By Farkas'
  lemma, D^uv pi <= -1 has no solution pi >= 0 iff some y >= 0, y != 0
  has y^T D^uv >= 0: given both, y^T D^uv pi >= 0 since pi >= 0, while
  y^T (D^uv pi) <= -(y_1 + ... + y_m) < 0.  With y = 1, y^T D^uv is the
  vector of column sums: when none is negative, the rows of D^uv pi sum
  to at least 0 for every pi >= 0, so they cannot all be at most -1.
An all-negative column has a negative sum, so the row-sum test never takes
the place of a one-vertex witness.

A pair these tests leave tries balanced pairs (`_balanced`).  With u, v at
distance k, write a_i = d(u,w_i) and b_i = d(v,w_i) = k - a_i for two
interior rows w_1 != w_2; they are balanced when a_1 + a_2 = k, so that
b_1 + b_2 = k as well.  Rows w_1 and w_2 then sum to
  (b_1 + b_2) d(u,x) + (a_1 + a_2) d(v,x) - k (d(w_1,x) + d(w_2,x))
  = k (d(u,x) + d(v,x) - d(w_1,x) - d(w_2,x)),
so y = e_w1 + e_w2 is a Farkas certificate iff d(w_1,x) + d(w_2,x) <=
d(u,x) + d(v,x) for every vertex x, which reads two rows of the distance
table and no matrix.  This is the companion test of
`alpha_beta_certificate` taken over every x.  Two interior vertices at
distance k, a mirror pair, are always balanced: k = d(w_1,w_2) is at most
both a_1 + a_2 and b_1 + b_2, which sum to 2k.  Summing the inequality over
x shows that r(w_1) + r(w_2) <= r(u) + r(v) is needed, r(w) being the
transmission, the sum of w's distance row.  So the tries are the mirror
pairs first, then the other balanced pairs, each in order of least
r(w_1) + r(w_2), ties in row order, and at most _BALANCED_TRIES = 8 of
them.  The first try decides every infeasible pair of G_7, G_11 and
C_12 x C_12 that the row sums leave; on the pair (0, 22) of C_10 x C_10 it
is the two free corners of the 3 x 3 interval, and y^T D^uv = 0.  On the
benchmark's random pool compute_p made 716 LP solves with a class key in
this place, and makes 358, 322, 319 and 315 with 4, 8, 10 and unbounded
tries; the pool's time was the same within noise at 4 to 40 tries.  Every
presolve answer is an int tuple or a unit witness, and is checked on the
full matrix like the simplex's.

A band scan of `_pair_verdicts` streams the pairs it has not decided yet.
The first _BULK_PAIRS - 1 = 31 of them keep `build_Duv`, `_presolve` and
`_balanced`, so a scan that fails on one of its first pairs makes no array.
The rest go to one `_bulk_presolve` per scan: numpy arrays D[pair, row, x],
built from one copy of the distance table, each pair's rows padded with
rows of -1 to the longest interior of its array, which changes no test.
The three tests run on the whole array in the order above (`_bulk_tests`),
then the balanced-pair tries on the pairs they leave (`_bulk_balanced`),
and every answer is checked in the same array by a computation of its own
(`_bulk_verified`): y^T D >= 0 for a certificate, y = e_i + e_j for a
balanced pair, every row <= -1 in the witness column.  A failed check
raises `AssertionError` naming the pair.  A pair decided by a certificate
gets no `RationalMatrix`; the pairs the tests leave, and the feasible ones,
take theirs from the array rows, and the ones left go on to the LP.  Both
paths read a pair's interior from the distance rows, as the w != u, v with
d(u,w) + d(w,v) = d(u,v), so a scan builds no level bitsets.  The head of
31 pairs stays because an array costs more than it saves on a short band.
With every pair in arrays, compute_p on the benchmark's random pool went
from 0.19 to 0.32 s and has_Gp_connected_medians at p = 1, 2 on the 995
atlas graphs, whose bands hold at most 21 pairs, from 0.15 to 0.41 s
(2-vCPU VM, best of 5); the ROADMAP corpus, where the arrays pay, took
0.026 s with the head and 0.06 s with no arrays.  Two bounds hold:
- on a pair at distance k, write a = d(u,w) and b = d(v,w), so a + b = k.
  The entry b d(u,x) + a d(v,x) - k d(w,x) is at most 2ab, since
  d(u,x) <= a + d(w,x) and d(v,x) <= b + d(w,x), and at least -2ab, since
  k d(w,x) = b d(w,x) + a d(w,x) <= b (d(u,x) + a) + a (d(v,x) + b); it
  is 2ab at x = w.  So |entry| <= 2ab <= floor(k^2 / 2).  Each product the
  array build forms is at most k diam < n k, and every sum, a column sum
  or y^T D with y in {0, 1}, adds fewer than n entries, so no value the
  bulk path forms on a band up to distance k exceeds n floor(k^2 / 2), k
  being the band's top or the diameter if that is smaller.
  `_pair_verdicts` keeps one table, of the narrowest of int16, int32 and
  int64 that holds this bound for the band it serves (`_distance_array`),
  and makes it again, the old one dropped first, only when a later band
  needs a wider type.  int64 holds it for every graph whose distance table
  fits in memory.  int16 holds band 2 of every graph of at most 16,383
  vertices, and every band of the half-cubes up to 1/2 H_9 and of J(10,5),
  where it ran twice as fast as int64;
- each array holds at most _BULK_ENTRIES = 2^16 entries (128 KB in
  int16), or one pair's D^uv when that alone is larger.  On 1/2 H_9 the
  scan took 0.61 s at 2^14 entries, 0.38 s at 2^16 and 0.38 s at 2^18.

D^uv has a column for every vertex, though a violating profile pi can
always be moved onto J(u,v).  With F the median function of pi and w inside
I(u,v), moving weight omega from z to a neighbour closer to both u and v
(there is one iff z is not in J(u,v)) lowers d(v,w)F(u) + d(u,w)F(v) by
exactly d(u,v)*omega and d(u,v)F(w) by at most that, so each violated row
stays violated.  The moves end on J(u,v), so the LP on the J(u,v) columns
alone is feasible iff this one is: a J-column LP would add nothing.
D^uv depends only on the pair, never on p, so `_pair_verdicts` decides
each pair at most once, and `compute_p` stops each scan, the report's too,
at its first failing pair: its solve is the last one, and the bulk path
has presolved the pairs of that pair's array at most.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InteriorTooLarge, WrongDistance
from .graph import DistMatrix, Graph
from .medians import (Profile, _pairs_in_distance_band, _require_nonadjacent,
                      _scaled, median_value)
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
    certificate: tuple[int | Fraction, ...] | None = None  # one entry per matrix row
    matrix: RationalMatrix | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def build_Duv(g: Graph, d: DistMatrix, u: int, v: int) -> RationalMatrix:
    """D^uv entry (w,x) = d(v,w)d(u,x) + d(u,w)d(v,x) - d(u,v)d(w,x), its
    rows the w != u, v with d(u,w) + d(w,v) = d(u,v), read from the
    distance rows as `_bulk_presolve` reads them."""
    _require_nonadjacent(g, u, v)
    du, dv = d[u], d[v]
    duv = du[v]
    rows = tuple(w for w, a, b in zip(range(g.n), du, dv) if a and b and a + b == duv)
    entries = []
    for w in rows:
        dvw, duw = dv[w], du[w]
        entries.append(tuple([dvw * a + duw * b - duv * c
                              for a, b, c in zip(du, dv, d[w])]))
    return RationalMatrix(tuple(entries), rows, tuple(range(g.n)), u, v)


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
    to (piv*T[i][j] - T[i][e]*T[r][j]) // D, then sets D = piv; the division
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
                tableau[i] = [(piv * a - c * b) // D for a, b in zip(tableau[i], prow)]
        basis[leaving] = label
        D = piv


def _simplex(entries, n: int):
    """`_phase1` on the strict system of the matrix entries, n columns wide:
    (True, {column index: weight}) for a witness, else (False, the
    certificate D*y as integers)."""
    m = len(entries)
    # columns: pi (0..n-1), slacks (n..n+m-1); the artificials are implicit
    rows = [[-x for x in entries[i]]
            + [-1 if k == i else 0 for k in range(m)] + [1]
            for i in range(m)]
    tableau, D, basis = _phase1(rows, n)
    obj = tableau[-1]
    if obj[-1] == 0:
        return True, {b: Fraction(tableau[i][-1], D) for i, b in enumerate(basis)
                      if b < n and tableau[i][-1] != 0}
    # obj[n + i] = D * y_i, y_i being the reduced cost of slack column i
    return False, tuple(obj[n:n + m])


def lp_feasible_strict(mat: RationalMatrix) -> FeasibilityResult:
    """Decide whether some pi >= 0 has M pi < 0 strictly in every row.

    Solved as feasibility of {M pi <= -1, pi >= 0}: every row is negated to
    (-M) pi - s + a = 1, and the sum of artificials a is minimized by
    `_phase1` on the tableau [-M | -I | 1], which keeps the artificial
    columns implicit.  A zero optimum gives the witness pi; otherwise the
    simplex multipliers y, read from the slack reduced costs, are the
    Farkas certificate; it is returned as the integers D*y, D > 0 being the
    final basis determinant, which certify the same as y.

    A matrix of at least _QUOTIENT_ENTRIES entries is solved on its
    coarsest equitable partition and the answer lifted (`_lifted`), unless
    every row and every column is a class of its own; see the module
    docstring.
    """
    m, n = len(mat.entries), len(mat.cols)
    if m * n >= _QUOTIENT_ENTRIES:
        rows, cols = _equitable_partition(mat.entries, n)
        if len(set(rows)) < m or len(set(cols)) < n:
            return _lifted(mat, rows, cols)
    feasible, answer = _simplex(mat.entries, n)
    if feasible:
        res = FeasibilityResult("feasible", matrix=mat, witness={
            mat.cols[j]: w for j, w in answer.items()})
    else:
        res = FeasibilityResult("infeasible", certificate=answer, matrix=mat)
    return _checked(res, "simplex answer")


_QUOTIENT_ENTRIES = 256       # the size gate of the quotient: see the module docstring


def _equitable_partition(entries, n: int):
    """The coarsest equitable partition of a matrix with n columns: the
    class of each row and of each column, numbered from 0.  Rows start in
    one class and columns in another; rows are split by their sums over
    the column classes, then columns by their sums over the row classes,
    until nothing splits.  A class is named by the place of its signature,
    its old class and its sums, among the sorted signatures, so permuting
    the rows and columns permutes the classes and keeps their names."""
    columns = list(zip(*entries))
    rows, cols = [0] * len(entries), [0] * n
    k = l = 1
    while True:
        rows, k_new = _split(entries, rows, cols, l)
        cols, l_new = _split(columns, cols, rows, k_new)
        if (k_new, l_new) == (k, l):
            return rows, cols
        k, l = k_new, l_new


def _split(lines, classes, across, count):
    """Each line's new class and the number of classes: lines of one class
    stay together iff their sums over the count classes of across agree."""
    signatures = [(c, *_class_sums(line, across, count))
                  for c, line in zip(classes, lines)]
    names = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [names[s] for s in signatures], len(names)


def _class_sums(line, across, count):
    """The sums of a line's entries over the count classes of across."""
    sums = [0] * count
    for x, b in zip(line, across):
        sums[b] += x
    return sums


def _lifted(mat: RationalMatrix, rows, cols) -> FeasibilityResult:
    """The answer of mat from its quotient R under the row classes rows and
    the column classes cols, lifted and checked on mat: R[A][B] is the sum
    of mat's entries of row w over the columns of B, w the first row of A.
    A witness pi of R puts pi_B on every column of B; a certificate y of R
    puts y_A * L / |A| on every row of A, L being the lcm of the row class
    sizes.  A lift that fails its check raises `AssertionError`."""
    size = Counter(rows)
    width = max(cols) + 1
    quotient = [_class_sums(mat.entries[rows.index(a)], cols, width)
                for a in range(len(size))]
    feasible, answer = _simplex(quotient, width)
    if feasible:
        res = FeasibilityResult("feasible", matrix=mat, witness={
            x: answer[b] for x, b in zip(mat.cols, cols) if b in answer})
    else:
        scale = lcm(*size.values())
        res = FeasibilityResult("infeasible", matrix=mat, certificate=tuple(
            answer[a] * (scale // size[a]) for a in rows))
    return _checked(res, "lifted answer")


def _check_result(r: FeasibilityResult) -> bool:
    """Exact check of a witness (every row of M pi <= -1, pi >= 0) or a
    Farkas certificate (y >= 0, y != 0, y^T M >= 0) on the full matrix,
    in integers after scaling by the common denominator.  y^T M is the
    column sums of the rows y_i * M_i with y_i != 0, in every column: a
    zero row adds nothing, so a unit certificate costs one pass over its
    row, and a row with y_i = 1 is summed as it stands."""
    mat = r.matrix
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
    if r.certificate is None or len(r.certificate) != len(mat.entries):
        return False
    _, y = _scaled(r.certificate)
    if any(yi < 0 for yi in y) or not any(y):
        return False
    scaled = [row if yi == 1 else [yi * x for x in row]
              for yi, row in zip(y, mat.entries) if yi]
    return min(map(sum, zip(*scaled)), default=0) >= 0


def _checked(res: FeasibilityResult, source: str) -> FeasibilityResult:
    """res, once `_check_result` accepts it on its own matrix."""
    if not _check_result(res):
        raise AssertionError(f"{source} does not verify on pair "
                             f"({res.matrix.u},{res.matrix.v})")
    return res


def _presolve(mat: RationalMatrix) -> FeasibilityResult | None:
    """The first presolve answer of mat, checked on it, else None: the
    certificate e_i for the first nonnegative row i, else the witness
    {x: 1} for the first all-negative column x, else the certificate y = 1
    when every column sum is nonnegative.  A matrix has at most one of the
    one-vertex kinds, and an all-negative column has a negative sum."""
    entries = mat.entries
    i = next((i for i, row in enumerate(entries) if min(row) >= 0), None)
    if i is not None:
        return _checked(FeasibilityResult("infeasible", matrix=mat, certificate=tuple(
            int(k == i) for k in range(len(entries)))), "one-vertex answer")
    neg = range(len(mat.cols))
    for row in entries:
        neg = [j for j in neg if row[j] < 0]
    if neg:
        return _checked(FeasibilityResult(
            "feasible", witness={mat.cols[neg[0]]: Fraction(1)}, matrix=mat),
            "one-vertex answer")
    if min(map(sum, zip(*entries)), default=0) >= 0:
        return _checked(FeasibilityResult(
            "infeasible", matrix=mat, certificate=(1,) * len(entries)),
            "row-sum answer")
    return None


def verify_feasibility_result(g: Graph, d: DistMatrix, u: int, v: int,
                              r: FeasibilityResult) -> bool:
    """Re-check a witness or certificate against a freshly built matrix."""
    mat = build_Duv(g, d, u, v)
    return _check_result(FeasibilityResult(r.status, r.witness, r.certificate, mat))


def _balanced(d: DistMatrix, r, mat: RationalMatrix):
    """The first balanced-pair certificate e_i + e_j of mat, checked on it,
    else None.  Rows i < j are tried when d(u,w_i) + d(u,w_j) = d(u,v):
    mirror pairs, d(w_i,w_j) = d(u,v), first, then the others, each in
    order of least r(w_i) + r(w_j), r being the transmissions, and at most
    _BALANCED_TRIES of them.  A try holds when d(w_i,x) + d(w_j,x) <=
    d(u,x) + d(v,x) for every x; see the module docstring."""
    rows = mat.rows
    du, dv = d[mat.u], d[mat.v]
    k = du[mat.v]
    tries = heapq.nsmallest(_BALANCED_TRIES, (
        (d[w1][w2] != k, r[w1] + r[w2], i, j)
        for (i, w1), (j, w2) in itertools.combinations(enumerate(rows), 2)
        if du[w1] + du[w2] == k))
    far = list(map(operator.add, du, dv))
    for *_, i, j in tries:
        if all(map(operator.le, map(operator.add, d[rows[i]], d[rows[j]]), far)):
            y = tuple(int(t == i or t == j) for t in range(len(rows)))
            return _checked(FeasibilityResult("infeasible", matrix=mat, certificate=y),
                            "balanced answer")
    return None


_BALANCED_TRIES = 8           # balanced pairs tried per pair: see the module docstring


def _pair_verdicts(g: Graph, d: DistMatrix):
    """The band scan of one graph, and the set of the pairs it gave their
    own solve.

    scan(lo, hi) yields (u, v, verdict) for the pairs of the band
    lo <= d(u,v) <= hi in `_pairs_in_distance_band` order.  The pairs not
    yet decided get their matrix and presolve answer from one lazy stream:
    the first _BULK_PAIRS - 1 of them from `build_Duv`, `_presolve` and
    `_balanced`, a pair at a time, and the rest from one `_bulk_presolve`,
    an array at a time.  A scan that stops within its first 31 undecided
    pairs makes no array, and one that stops later has read at most one
    block of pairs past the pair it stops at.  The transmissions that order
    the balanced pairs are summed once, for all scans.

    A pair's verdict is its presolve answer when it has one, else its own
    solve.  A decided pair is stored without its matrix unless it is
    feasible, the one matrix the witness re-solve reads.
    """
    verdicts: dict[tuple[int, int], FeasibilityResult] = {}
    own: set[tuple[int, int]] = set()
    dist, top = None, -1    # the distance table as an array, its type's max
    r = [sum(row) for row in d.d]       # the transmissions

    def decide(u: int, v: int, mat, res) -> FeasibilityResult:
        """The verdict of (u, v) from its matrix mat and presolve answer
        res, stored."""
        if res is None:
            res = lp_feasible_strict(mat)
            own.add((u, v))
        out = verdicts[u, v] = res if res.feasible else FeasibilityResult(
            "infeasible", certificate=res.certificate)
        return out

    def bulk(pairs, k: int):
        """`_bulk_presolve` on pairs, over a table that holds the values of
        a band up to distance k."""
        nonlocal dist, top
        bound = d.n * (k * k // 2)              # see the module docstring
        if bound > top:
            dist = None                         # a wider table: drop the old first
            dist, top = _distance_array(d, bound)
        yield from _bulk_presolve(d, dist, pairs, r)

    def scan(lo: int, hi: int):
        band, pairs = itertools.tee(_pairs_in_distance_band(d, lo, hi))
        new = (pair for pair in pairs if pair not in verdicts)
        head = ((mat, _presolve(mat) or _balanced(d, r, mat))
                for mat in (build_Duv(g, d, u, v)
                            for u, v in itertools.islice(new, _BULK_PAIRS - 1)))
        answers = itertools.chain(head, bulk(new, min(hi, d.diameter)))
        # new may be read ahead of band, but only this loop adds to
        # verdicts, each pair when it reaches it: the answers stay in step
        for u, v in band:
            res = verdicts.get((u, v))
            yield u, v, res if res is not None else decide(u, v, *next(answers))

    return scan, own


# The bulk path: see the module docstring.
_BULK_PAIRS = 32
_BULK_ENTRIES = 2 ** 16
_NONE, _ROW, _COLUMN, _ALL_ROWS, _PAIR = range(5)     # the presolve answer kinds
_SOURCES = (None, "one-vertex", "one-vertex", "row-sum", "balanced")


def _distance_array(d: DistMatrix, bound: int):
    """The distance table as one array of the narrowest integer type that
    holds +-bound, and the largest value of that type."""
    import numpy as np
    from .oracle import _dtype
    dtype = _dtype(bound)
    return np.array(d.d, dtype=dtype), int(np.iinfo(dtype).max)


def _bulk_presolve(d: DistMatrix, dist, pairs, r):
    """(mat, res) for each pair of the iterable pairs, in order: res is the
    pair's checked presolve answer, or None when the tests leave the pair;
    mat is its D^uv, read from the array, when the pair is left or
    feasible, else None.  r holds the transmissions.  Pairs are read a block
    at a time, and each array is made when its first pair is asked for.

    The interiors are read from the table too, as the w != u, v with
    d(u,w) + d(w,v) = d(u,v), the rows `build_Duv` takes."""
    import numpy as np
    n = d.n
    cols = tuple(range(n))
    r = np.array(r, dtype=np.int64)
    step = max(1, _BULK_ENTRIES // n)       # pairs whose intervals are found at once
    while block := list(itertools.islice(pairs, step)):
        us, vs = np.array(block).T
        at = np.arange(len(block))
        du, dv = dist[us], dist[vs]
        inside = du + dv == du[at, vs, None]
        inside[at, us] = inside[at, vs] = False
        counts = inside.sum(axis=1).tolist()
        lo = 0
        while lo < len(block):
            # the next array: pairs lo..hi-1, m rows each, n columns
            hi, m = lo + 1, counts[lo]
            while hi < len(block) and \
                    (hi + 1 - lo) * max(m, counts[hi]) * n <= _BULK_ENTRIES:
                m = max(m, counts[hi])
                hi += 1
            D, ws = _bulk_array(dist, us[lo:hi], vs[lo:hi], inside[lo:hi], m)
            valid = np.arange(m) < np.array(counts[lo:hi])[:, None]
            kind, index = _bulk_tests(D, valid)
            other = index.copy()
            left = np.flatnonzero(kind == _NONE)
            if len(left) and m > 1:           # a balanced pair takes two rows
                found, i, j = _bulk_balanced(dist, r, us[lo:hi][left], vs[lo:hi][left],
                                             ws[left], valid[left])
                left = left[found]
                kind[left], index[left], other[left] = _PAIR, i[found], j[found]
            ok = _bulk_verified(D, valid, kind, index, other)
            for (u, v), k, i, j, good, count, p in zip(
                    block[lo:hi], kind.tolist(), index.tolist(), other.tolist(),
                    ok.tolist(), counts[lo:hi], range(hi - lo)):
                if k != _NONE and not good:
                    raise AssertionError(
                        f"{_SOURCES[k]} answer does not verify on pair ({u},{v})")
                if k in (_ROW, _PAIR):
                    yield None, FeasibilityResult("infeasible", certificate=tuple(
                        int(t == i or t == j) for t in range(count)))
                elif k == _ALL_ROWS:
                    yield None, FeasibilityResult("infeasible",
                                                  certificate=(1,) * count)
                else:
                    mat = RationalMatrix(
                        tuple(map(tuple, D[p, :count].tolist())),
                        tuple(ws[p, :count].tolist()), cols, u, v)
                    yield mat, None if k == _NONE else FeasibilityResult(
                        "feasible", witness={i: Fraction(1)}, matrix=mat)
            lo = hi


def _bulk_array(dist, us, vs, inside, m):
    """D[pair, row, x] for the pairs (us[k], vs[k]) whose interiors are
    marked in inside, each padded to m rows with rows of -1, and the row
    vertices ws[pair, row], u on a padding row.  u is never in its own
    interior, so the padding rows are the rows of u."""
    import numpy as np
    ws = np.repeat(us[:, None], m, axis=1)
    pair, w = np.nonzero(inside)
    ws[pair, (np.cumsum(inside, axis=1) - 1)[pair, w]] = w
    du, dv = dist[us, None], dist[vs, None]
    D = (dist[vs[:, None], ws, None] * du + dist[us[:, None], ws, None] * dv
         - dist[us, vs, None, None] * dist[ws])
    D[ws == us[:, None]] = -1
    return D, ws


def _bulk_tests(D, valid):
    """The tests of `_presolve` on every pair of an array D[pair, row, x]
    at once, padding rows being -1 and valid marking the others: (kind,
    index) per pair, `_ROW` and the first nonnegative row, else `_COLUMN`
    and the first all-negative column, else `_ALL_ROWS` when every column
    sum is nonnegative, else `_NONE`."""
    import numpy as np
    nonneg = D.min(axis=2) >= 0              # a padding row is negative
    neg = D.max(axis=1) < 0                  # and adds nothing to a max
    # each padding row adds -1 to every column sum
    sums = D.sum(axis=1).min(axis=1) + (~valid).sum(axis=1) >= 0
    has_row = nonneg.any(axis=1)
    kind = np.select([has_row, neg.any(axis=1), sums],
                     [_ROW, _COLUMN, _ALL_ROWS], _NONE)
    return kind, np.where(has_row, nonneg.argmax(axis=1), neg.argmax(axis=1))


def _bulk_verified(D, valid, kind, index, other):
    """Whether each pair's answer verifies on its rows of D, computed apart
    from the tests: y >= 0, y != 0 and y^T D >= 0 for a certificate, y
    being 1 on the pair's rows, or e_index + e_other (e_index for a row,
    whose other is its index); every row <= -1 in column index for a
    witness (a padding row is -1 everywhere)."""
    import numpy as np
    at = np.arange(len(D))
    y = valid & (kind == _ALL_ROWS)[:, None]
    two = (kind == _ROW) | (kind == _PAIR)
    for rows in (index, other):
        y[at[two], rows[two]] = valid[at[two], rows[two]]
    certificate = (np.einsum("pr,prx->px", y.astype(D.dtype), D).min(axis=1) >= 0) \
        & y.any(axis=1)
    witness = (D[at, :, index] <= -1).all(axis=1)
    return np.where(kind == _COLUMN, witness, certificate)


def _bulk_balanced(dist, r, us, vs, ws, valid):
    """The tries of `_balanced` on the pairs (us[p], vs[p]) of an array at
    once, ws[p] being their row vertices and valid marking their interior
    rows: per pair, whether a try holds, and the rows i < j of the first
    one that does."""
    import numpy as np
    m = ws.shape[1]
    k = dist[us, vs][:, None]
    level = dist[us[:, None], ws]
    i, j = np.triu_indices(m, 1)            # the row pairs in (i, j) order
    wi, wj = ws[:, i], ws[:, j]
    balanced = valid[:, i] & valid[:, j] & (level[:, i] + level[:, j] == k)
    t = r[wi] + r[wj]
    top = 2 * int(r.max()) + 1              # above every t
    rank = np.where(balanced, np.where(dist[wi, wj] == k, 0, top) + t, 2 * top)
    tries = np.argsort(rank, axis=1, kind="stable")[:, :_BALANCED_TRIES]
    w1, w2 = np.take_along_axis(wi, tries, 1), np.take_along_axis(wj, tries, 1)
    far = (dist[us] + dist[vs])[:, None]
    holds = (dist[w1] + dist[w2] <= far).all(axis=2) \
        & np.take_along_axis(balanced, tries, 1)
    first = tries[np.arange(len(tries)), holds.argmax(axis=1)]
    return holds.any(axis=1), i[first], j[first]


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
    minima while the relative order elsewhere is preserved.
    """
    fu, fv = median_value(g, d, pi, u), median_value(g, d, pi, v)
    if fv < fu:
        u, v = v, u
        fu, fv = fv, fu
    k = d(u, v)
    eps = fv - fu
    mu = k * fv + 1
    boosted = {x: k * w for x, w in pi.weights.items()}
    boosted[u] = boosted.get(u, Fraction(0)) + mu
    boosted[v] = boosted.get(v, Fraction(0)) + mu + eps
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

    Pairs are decided by `_pair_verdicts`.  A feasible verdict is a
    one-vertex witness or the pair's own solve; in the first case the
    witness pair is solved again, on the matrix it was decided on.
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
        res = lp_feasible_strict(res.matrix)
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
    y = dict(zip(classes, res.certificate))
    total = sum(y[label[s]] for s in S)
    return {s: Fraction(y[label[s]], total) for s in S}
