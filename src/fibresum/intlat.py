"""Exact linear algebra over the integers.

Matrices carry arbitrary-precision Python ints, so the coefficient growth
that occurs during Smith reduction can never overflow.  All values are
immutable and all operations are pure functions; concurrent use needs no
coordination.  Entries obey :func:`abgroups.as_ints`, the integer rule.

Every Smith reduction here runs one deterministic pivot loop,
:func:`_reduce` (Havas and Majewski, "Integer matrix diagonalization",
J. Symb. Comput. 1997), so every result can be tested byte for byte.  Its
diagonal, every kernel basis (canonicalised by HNF) and every cokernel do
not depend on the pivot rule.  Only V, the one transform it tracks, does,
and with V the lifts of the cokernel's torsion that
:func:`kernel_and_cokernel` returns beside them.

One fraction-free elimination (Bareiss, Math. Comp. 1968),
:class:`_FractionFree`, reduces nothing and serves three answers:
:meth:`IntMatrix.det`, :func:`rank`, the rank over Q, and the
certificate below.  :func:`kernel_and_cokernel` skips the reduction
exactly when a tall A has full column rank and every invariant factor 1,
that is when d_n, the gcd of its maximal minors, is 1 (Kannan and
Bachem, SIAM J. Comput. 1979).  :func:`_unit_invariant_factors` decides
this from that elimination: by Sylvester's identity and Cramer's rule,
each further row, from two dot products with A's own row, gives a
maximal minor with every row before it at O(1) each.  A gcd of these
minors that stays above 1 is settled by an elimination modulo it, split
into coprime parts at each zero divisor.  The kernel is then 0, the
cokernel free and there are no lifts, which is what the reduction
returns, so the result does not depend on which path ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .abgroups import AbGroup, as_ints

__all__ = ["IntMatrix", "kernel_and_cokernel", "cokernel_presentation"]


def _check_dimensions(rows: int, cols: int) -> None:
    as_ints((rows, cols), "matrix dimensions")
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")


@dataclass(frozen=True)
class IntMatrix:
    """An immutable ``rows x cols`` integer matrix, stored row-major.

    Empty matrices (``0 x n`` and ``n x 0``) are first class: genus-0
    surfaces and sides with vanishing first Betti number produce them.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dimensions(self.rows, self.cols)
        entries = as_ints(self.entries, "matrix entries")
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "entries", entries)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Build from a list of rows; ``cols`` disambiguates the 0-row case."""
        nrows = len(rows)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, ())
        ncols = len(rows[0])
        if cols is not None and cols != ncols:
            raise ValueError("cols does not match row length")
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def _unchecked(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        """A matrix from entries that passed the integer rule already; they are not scanned."""
        matrix = object.__new__(cls)
        vars(matrix).update(rows=rows, cols=cols, entries=entries)
        return matrix

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_dimensions(rows, cols)
        return cls._unchecked(rows, cols, (0,) * (rows * cols))

    @classmethod
    def vstack(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """Stack matrices with equal column counts; their entries, already checked, are not scanned."""
        if not blocks:
            raise ValueError("vstack needs at least one block")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column mismatch in vstack")
        return cls._unchecked(sum(b.rows for b in blocks), cols, sum((b.entries for b in blocks), ()))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # -- arithmetic --------------------------------------------------------

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, self.row(i), v)) for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant from the fraction-free elimination
        :class:`_FractionFree`, one stage per column.

        A column with no pivot makes it 0.  Otherwise the last pivot is the
        determinant with the rows in pivot order, and taking a pivot that
        sits s places into the unused rows is s transpositions."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        elimination = _FractionFree(self)
        sign = 1
        for j in range(self.cols):
            skipped = elimination.pivot(j)
            if skipped is None:
                return 0
            if skipped % 2:
                sign = -sign
        return sign * elimination.last


def _reduce(A: IntMatrix, track_v: bool = False) -> tuple[list[list[int]], list[list[int]] | None]:
    """The pivot loop behind every Smith reduction.  Returns the rows of D,
    whose diagonal is a nonnegative divisibility chain with zeros last,
    and, when tracked, of V (else None), with D = U A V for a unimodular U.

    Each pivot is the entry of least nonzero absolute value, the first in
    row-major order.  Its column, then its row, is cleared with
    nearest-integer quotients, so each remainder is at most half the pivot;
    the row (then column) holding the smallest nonzero remainder, the lowest
    index on ties, is swapped into the pivot position and the clearing
    repeats.  This keeps the Euclid rounds and the growth of V down.
    """
    m, n = A.rows, A.cols
    d = A.to_rows()
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track_v else None

    def swap_cols(a: int, b: int) -> None:
        for row in d if v is None else d + v:
            row[a], row[b] = row[b], row[a]

    def add_row(src: int, dst: int, q: int) -> None:
        # row[dst] += q * row[src]; columns left of t are zero in both rows
        # of D, so only the live columns t.. change.
        d[dst][t:] = [x + q * y for x, y in zip(d[dst][t:], d[src][t:])]

    t = 0
    while True:
        # The pivot is the least entry of the live submatrix, the first in
        # row-major order.
        k = _least_nonzero(x for row in d[t:] for x in row[t:])
        if k is None:
            break
        pi, pj = t + k // (n - t), t + k % (n - t)
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            p = d[t][t]
            unit = abs(p) == 1
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x * p if unit else _nearest_quotient(x, p)
                    if q:
                        add_row(t, i, -q)
            if not unit:
                # A remainder is at most |p|/2, so promoting the smallest
                # survivor at least halves the pivot.
                left = _least_nonzero(d[i][t] for i in range(t + 1, m))
                if left is not None:
                    d[t], d[t + 1 + left] = d[t + 1 + left], d[t]
                    continue
            # Column t is now zero off the pivot, so a column operation
            # changes only row t of D.
            row_t = d[t]
            for j in range(t + 1, n):
                x = row_t[j]
                if x:
                    q = x * p if unit else _nearest_quotient(x, p)
                    if q:
                        row_t[j] -= q * p
                        if v is not None:
                            for row in v:
                                row[j] -= q * row[t]
            # A unit pivot divides everything, so its row and column are
            # clear and the divisibility scan below has nothing to find.
            if unit:
                break
            left = _least_nonzero(row_t[t + 1 :])
            if left is not None:
                swap_cols(t, t + 1 + left)
                continue
            # Row and column are clear; force the pivot to divide the rest
            # of the submatrix so the diagonal comes out as a chain.
            for i in range(t + 1, m):
                if any(d[i][j] % p for j in range(t + 1, n)):
                    add_row(i, t, 1)
                    break
            else:
                break
        d[t][t] = abs(d[t][t])
        t += 1
    return d, v


def _least_nonzero(values: Iterable[int]) -> int | None:
    """Index of the first value of least nonzero absolute value, or None if
    all are zero.  The scan stops at the first unit, which nothing beats."""
    best = 0
    where = None
    for k, x in enumerate(values):
        if x:
            x = abs(x)
            if x == 1:
                return k
            if not best or x < best:
                best, where = x, k
    return where


def _nearest_quotient(x: int, p: int) -> int:
    """floor(x/p + 1/2): the remainder ``x - q*p`` is at most |p|/2."""
    return (2 * x + p) // (2 * p)


def _cokernel(A: IntMatrix, d: list[list[int]]) -> AbGroup:
    """``Z^rows / A(Z^cols)`` read off the rows ``d`` of A's Smith form."""
    diagonal = [d[i][i] for i in range(min(A.rows, A.cols))]
    return AbGroup(A.rows - sum(1 for x in diagonal if x), tuple(x for x in diagonal if x > 1))


def _hnf_rows(vectors: list[list[int]], width: int) -> list[list[int]]:
    """Canonical basis of the row lattice spanned by independent vectors.

    Echelon over Z with positive pivots and entries above each pivot
    reduced into [0, pivot); rows ordered by pivot column.  This is the
    deterministic normal form used for every kernel basis.
    """
    rows = [list(v) for v in vectors]
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(r + 1, len(rows)):
            while rows[i][col]:
                q = rows[r][col] // rows[i][col]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][col] // rows[r][col]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


class _FractionFree:
    """One fraction-free (Bareiss) elimination of the rows of A, run one
    column at a time by :meth:`pivot`, with each row copied from A and
    carried through the stages only when it is read.

    Stage k has a pivot row, itself carried through stages 0..k-1, its
    column c_k and the divisor p_{k-1}, the pivot of stage k - 1 (1 at
    stage 0).  It makes entry j > c_k of a row ``(p_k*row[j] -
    row[c_k]*pivot[j]) / p_{k-1}``.  By Sylvester's identity, after stage
    k entry j > c_k is the minor on the pivot rows of stages 0..k and the
    row, in columns c_0..c_k and j: the numerator is the 2 x 2 determinant
    of four such minors after stage k - 1, and p_{k-1} is the minor they
    share, so the division is exact.  Entries up to c_k are left stale.

    :meth:`carry` takes a row through two stages s and s + 1 at once.
    With (P, c, d) and (Q, c', p) their pivot rows, columns and divisors,
    p = P[c], q = Q[c'] and x = row[c], stage s makes row[c'] into
    y = (p*row[c'] - x*P[c']) / d, and the two stages make entry j > c'
    ``(q*(p*row[j] - x*P[j]) / d - y*Q[j]) / p``, that is
    ``(q*p*row[j] - q*x*P[j] - d*y*Q[j]) / (d*p)``: the same integer, so
    the division is exact, from three products and one division where
    two stages take four and two.
    """

    def __init__(self, A: IntMatrix) -> None:
        self.A = A
        self.rows: list[list[int] | None] = [None] * A.rows  # copied when first carried
        self.unused = list(range(A.rows))  # rows not yet a pivot, in row order
        self.level = [0] * A.rows  # the stages each row has been carried through
        self.stages: list[tuple[list[int], int, int]] = []  # (pivot row, column, divisor)
        self.last = 1  # the pivot of the last stage

    def carry(self, i: int) -> list[int]:
        """Row i, carried through every stage so far, two at a time."""
        row, stages = self.rows[i], self.stages
        if row is None:
            row = self.rows[i] = list(self.A.row(i))
        for s in range(self.level[i], len(stages), 2):
            pivot, c, divisor = stages[s]
            p, x = pivot[c], row[c]
            if s + 1 == len(stages):
                row[c + 1 :] = [(p * a - x * b) // divisor for a, b in zip(row[c + 1 :], pivot[c + 1 :])]
                break
            second, c, _ = stages[s + 1]
            y = row[c] = (p * row[c] - x * pivot[c]) // divisor
            q = second[c]
            qp, qx, dy, dp = q * p, q * x, divisor * y, divisor * p
            row[c + 1 :] = [
                (qp * a - qx * b - dy * e) // dp for a, b, e in zip(row[c + 1 :], pivot[c + 1 :], second[c + 1 :])
            ]
        self.level[i] = len(stages)
        return row

    def pivot(self, j: int) -> int | None:
        """Make the first unused row whose carried entry j is nonzero the
        pivot of a stage at column j.  Returns how many unused rows came
        before it, or None, with no stage, when there is no such row."""
        for skipped, i in enumerate(self.unused):
            row = self.carry(i)
            if row[j]:
                del self.unused[skipped]
                self.stages.append((row, j, self.last))
                self.last = row[j]
                return skipped
        return None


def _unit_invariant_factors(A: IntMatrix) -> bool:
    """True iff A (m x n) has m >= n >= 1, rank n and every invariant
    factor 1, that is iff d_n, the gcd of its n x n minors, is 1.

    For n = 1, d_n is the gcd of the column.  Otherwise the elimination
    :class:`_FractionFree` takes a pivot in each of columns 0..k-1, k =
    n - 2; a column with no pivot means rank below n.  Let P be the pivot
    rows of A, in pivot order, and P_k their k x k block in those columns,
    so that the last pivot p (1 when n = 2) is det P_k.  Carried through
    the stages, an unused row x would keep two live entries: for c = k and
    k + 1, the minor on P and x in columns 0..k-1 and c, which is
    ``p*x[c] - x[:k].w_c`` (a Schur complement), with w_c = p P_k^-1 P[:, c]
    integral by Cramer's rule.  So no row is carried; each w_c comes from
    the pivot rows.  Row i of P minus multiples of rows 0..i-1 is zero
    before column i and, from column i on, u_i / p_{i-1}, with u_i the
    pivot row of stage i (p_{-1} = 1).  So ``P_k w = p P[:, c]`` is
    equivalent to ``sum(u_i[l]*w[l] for i <= l < k) = p*u_i[c]`` for each
    i, solved from i = k - 1 down, each division by u_i[i] exact since
    w_c is integral.  By Sylvester's identity, for two unused rows with
    live entries (x0, x1) and (y0, y1), ``(x0*y1 - x1*y0) / p`` is plus or
    minus the n x n minor on the pivot rows, x and y.  The minors of each
    further row are folded into their gcd delta, a multiple of d_n, until
    delta = 1 or a row leaves a nonzero delta unchanged.  delta = 0 after
    every row means rank below n.  When m = n, delta is |det A| = d_n.
    Otherwise a delta above 1 is settled by :func:`_full_rank_modulo`:
    d_n = 1 iff A has rank n modulo every prime dividing delta.
    """
    m, n = A.rows, A.cols
    if not 1 <= n <= m:
        return False
    if n == 1:
        return math.gcd(*A.entries) == 1
    elimination = _FractionFree(A)
    for j in range(n - 2):
        if elimination.pivot(j) is None:
            return False
    k, p = n - 2, elimination.last
    pivots = [row for row, _, _ in elimination.stages]
    cofactors = []
    for c in (k, k + 1):
        w: list[int] = []  # w_c[i + 1 :] as i runs down
        for i in reversed(range(k)):
            u = pivots[i]
            w.insert(0, (p * u[c] - sum(map(mul, u[i + 1 : k], w))) // u[i])
        cofactors.append(w)
    w0, w1 = cofactors
    delta = 0
    tails: list[tuple[int, int]] = []
    for i in elimination.unused:
        x = A.row(i)
        y0 = p * x[k] - sum(map(mul, x, w0))
        y1 = p * x[k + 1] - sum(map(mul, x, w1))
        before = delta
        for x0, x1 in tails:
            delta = math.gcd(delta, (x0 * y1 - x1 * y0) // p)
            if delta == 1:
                return True
        if delta and delta == before:
            break
        tails.append((y0, y1))
    if not delta or m == n:
        return False
    return _full_rank_modulo(A, delta, [None] * n, 0)


def _full_rank_modulo(
    A: IntMatrix, delta: int, basis: Sequence[list[int] | None], start: int
) -> bool:
    """True iff A has rank ``A.cols`` modulo every prime dividing delta > 1,
    given ``basis`` found from the rows before ``start``.

    Rows from ``start`` on are inserted one at a time.  Each is reduced mod
    delta, column by column, against the echelon rows found so far
    (``basis[j]`` is 0 before column j and 1 at it, or None).  A row whose
    first surviving entry is a unit joins them; once there are n, A has
    rank n modulo every prime of delta.  A row that reduces to 0 is
    dependent modulo every prime of delta.  A first surviving entry x that
    is a zero divisor splits delta into g = gcd(x, delta), modulo which x
    vanishes, and the part of delta / g prime to g, modulo which x is a
    unit; each part is decided on from this row.
    """
    n = A.cols
    basis = [None if b is None else [x % delta for x in b] for b in basis]
    for i in range(start, A.rows):
        row = [x % delta for x in A.row(i)]
        for j in range(n):
            x = row[j]
            if not x:
                continue
            b = basis[j]
            if b is not None:
                row[j:] = [(y - x * z) % delta for y, z in zip(row[j:], b[j:])]
                continue
            g = math.gcd(x, delta)
            if g > 1:
                h = delta // g
                while (c := math.gcd(h, g)) > 1:
                    h //= c
                return all(_full_rank_modulo(A, part, basis, i) for part in (g, h) if part > 1)
            inverse = pow(x, -1, delta)
            basis[j] = [y * inverse % delta for y in row]
            if None not in basis:
                return True
            break
    return False


def kernel_and_cokernel(A: IntMatrix) -> tuple[IntMatrix, AbGroup, IntMatrix]:
    """The kernel of A, as the rows of a ``d x cols`` matrix, the cokernel
    of :func:`cokernel_presentation`, and the lifts of its torsion, from at
    most one reduction.

    The kernel of a map into a free group is a direct summand; its basis
    is the canonical echelon form of the columns of V past the rank.  The
    lifts are the columns of V at the invariant factors above 1, as rows
    in the order of ``cokernel.torsion``: A maps the lift of factor t to t
    times a basis vector of the target, and the lifts with the kernel
    basis are part of a basis of Z^cols.  No reduction runs exactly when
    :func:`_unit_invariant_factors` finds that A has full column rank and
    every invariant factor 1: the kernel is then 0, the cokernel free of
    rank rows - cols and there are no lifts, what the reduction would give.
    """
    if _unit_invariant_factors(A):
        return IntMatrix(0, A.cols, ()), AbGroup(A.rows - A.cols, ()), IntMatrix(0, A.cols, ())
    d, v = _reduce(A, track_v=True)
    cokernel = _cokernel(A, d)
    r = A.rows - cokernel.free_rank
    vecs = [[row[j] for row in v] for j in range(r, A.cols)]
    lifts = [[row[j] for row in v] for j in range(r - len(cokernel.torsion), r)]
    kernel = IntMatrix.from_rows(_hnf_rows(vecs, A.cols), cols=A.cols)
    return kernel, cokernel, IntMatrix.from_rows(lifts, cols=A.cols)


def cokernel_presentation(A: IntMatrix) -> AbGroup:
    """Normal form of ``Z^rows / A(Z^cols)``.

    Free rank is ``rows - rank(A)``; the invariant factors are the Smith
    diagonal entries greater than 1.
    """
    return _cokernel(A, _reduce(A)[0])


def rank(A: IntMatrix) -> int:
    """The rank of A over Q: the number of columns in which the
    fraction-free elimination :class:`_FractionFree` finds a pivot.  A
    column without one is skipped."""
    elimination = _FractionFree(A)
    return sum(1 for j in range(A.cols) if elimination.pivot(j) is not None)
