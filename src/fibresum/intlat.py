"""Exact linear algebra over the integers.

Matrices carry arbitrary-precision Python ints, so the coefficient growth
that occurs during Smith reduction can never overflow.  All values are
immutable and all operations are pure functions; concurrent use needs no
coordination.

Every Smith reduction here runs one deterministic pivot loop, so every
result can be tested byte for byte.  The loop clears with least absolute
remainders and promotes the smallest surviving remainder (Havas and
Majewski, "Integer matrix diagonalization", J. Symb. Comput. 1997), which
keeps the number of Euclid rounds and the growth of the transforms down.
Each caller tracks only the transforms it reads: :func:`smith_normal_form`
tracks U and V, :func:`kernel_basis` and :func:`kernel_and_cokernel` track
V alone, and :func:`rank` and :func:`cokernel_presentation` track neither.
D, every kernel basis (canonicalised by HNF) and every cokernel do not
depend on the pivot rule; only U and V do.

:func:`kernel_and_cokernel`, and so :func:`kernel_basis`, skips the
reduction exactly when a tall A has full column rank and every invariant
factor 1, that is when d_n, the gcd of its maximal minors, is 1 (Kannan
and Bachem, SIAM J. Comput. 1979).  :func:`_unit_invariant_factors`
decides this from one fraction-free elimination (Bareiss, Math. Comp.
1968): by Sylvester's identity, each further row, carried through it at
O(n^2), gives a maximal minor with every row before it at O(1) each.  A
gcd of these minors that stays above 1 is settled by an elimination
modulo it, split into coprime parts at each zero divisor.  The kernel is
then 0 and the cokernel free, which is what the reduction returns, so the
result does not depend on which path ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .abgroups import AbGroup

__all__ = [
    "IntMatrix",
    "SNFDecomposition",
    "IntBasis",
    "smith_normal_form",
    "rank",
    "kernel_basis",
    "kernel_and_cokernel",
    "cokernel_presentation",
]


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
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(entries)}"
            )
        # One C-level scan passes the all-int case; the loop names the culprit
        # and still admits int subclasses such as IntEnum.
        if not {int}.issuperset(map(type, entries)):
            for e in entries:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"matrix entries must be ints, got {e!r}")
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
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def vstack(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """Stack matrices with equal column counts on top of each other."""
        if not blocks:
            raise ValueError("vstack needs at least one block")
        cols = blocks[0].cols
        flat: list[int] = []
        rows = 0
        for b in blocks:
            if b.cols != cols:
                raise ValueError("column mismatch in vstack")
            flat.extend(b.entries)
            rows += b.rows
        return cls(rows, cols, tuple(flat))

    @classmethod
    def block_diag(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = [[0] * cols for _ in range(rows)]
        i0 = j0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[i0 + i][j0 + j] = b.entry(i, j)
            i0 += b.rows
            j0 += b.cols
        return cls.from_rows(out, cols=cols)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def is_diagonal(self) -> bool:
        return all(
            self.entry(i, j) == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        out: list[int] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(x * y for x, y in zip(self.row(i), v)) for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        divisors = [1]
        for k in range(n - 1):
            i = next((i for i in range(k, n) if m[i][k]), None)
            if i is None:
                return 0
            if i != k:
                m[k], m[i] = m[i], m[k]
                sign = -sign
            for row in m[k + 1 :]:
                _fraction_free_carry(row, m, divisors, k, k + 1)
            divisors.append(m[k][k])
        return sign * m[n - 1][n - 1]

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class SNFDecomposition:
    """Unimodular ``U``, ``V`` and diagonal ``D`` with ``U @ A @ V == D``.

    The diagonal entries are nonnegative and form a divisibility chain
    ``d1 | d2 | ...`` with zeros last.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return self.D.diagonal()

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


@dataclass(frozen=True)
class IntBasis:
    """Vectors spanning a saturated subgroup (a direct summand) of Z^n."""

    ambient_dim: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        vectors = tuple(tuple(int(x) for x in v) for v in self.vectors)
        for v in vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def matrix(self) -> IntMatrix:
        """The len(self) x ambient_dim matrix whose rows are the vectors."""
        return IntMatrix.from_rows([list(v) for v in self.vectors], cols=self.ambient_dim)


def smith_normal_form(A: IntMatrix) -> SNFDecomposition:
    """Smith normal form with unimodular transforms, ``U @ A @ V == D``.

    Deterministic: each pivot is the entry of smallest nonzero absolute
    value, ties broken by lowest row index, then lowest column index.  Its
    column, then its row, is cleared with nearest-integer quotients, so
    each remainder is at most half the pivot; the row (then column) holding
    the smallest nonzero remainder, the lowest index on ties, is swapped
    into the pivot position and the clearing repeats.  This is the only
    caller that tracks U; U, D and V are what the ``snf`` command prints.
    """
    m, n = A.rows, A.cols
    d, u, v = _reduce(A, track_u=True, track_v=True)
    return SNFDecomposition(
        U=IntMatrix.from_rows(u, cols=m),
        D=IntMatrix.from_rows(d, cols=n),
        V=IntMatrix.from_rows(v, cols=n),
    )


def _reduce(
    A: IntMatrix, track_u: bool = False, track_v: bool = False
) -> tuple[list[list[int]], list[list[int]] | None, list[list[int]] | None]:
    """The pivot loop behind every Smith reduction (see
    :func:`smith_normal_form`).  Returns the rows of D and, when tracked,
    of U and V (None otherwise), with ``U @ A @ V == D``."""
    m, n = A.rows, A.cols
    d = A.to_rows()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if track_u else None
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track_v else None

    def swap_rows(a: int, b: int) -> None:
        d[a], d[b] = d[b], d[a]
        if u is not None:
            u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int) -> None:
        for row in d if v is None else d + v:
            row[a], row[b] = row[b], row[a]

    def add_row(src: int, dst: int, q: int) -> None:
        # row[dst] += q * row[src]; columns left of t are zero in both rows
        # of D, so only the live columns t.. change.
        d[dst][t:] = [x + q * y for x, y in zip(d[dst][t:], d[src][t:])]
        if u is not None:
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    t = 0
    while True:
        # The pivot is the least entry of the live submatrix, the first in
        # row-major order.
        k = _least_nonzero(x for row in d[t:] for x in row[t:])
        if k is None:
            break
        pi, pj = t + k // (n - t), t + k % (n - t)
        if pi != t:
            swap_rows(t, pi)
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
                    swap_rows(t, t + 1 + left)
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
        if d[t][t] < 0:
            d[t][t] = -d[t][t]
            if u is not None:
                u[t] = [-x for x in u[t]]
        t += 1
    return d, u, v


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


def rank(A: IntMatrix) -> int:
    """Rank over the rationals: nonzero diagonal entries of the Smith form."""
    return A.rows - _cokernel(A, _reduce(A)[0]).free_rank


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


def _fraction_free_carry(
    row: list[int], pivots: Sequence[list[int]], divisors: Sequence[int], start: int, stop: int
) -> None:
    """Carry ``row`` in place through stages start..stop-1 of a
    fraction-free (Bareiss) elimination.  Stage k has the pivot row
    ``pivots[k]``, itself carried through stages 0..k-1, and the divisor
    ``divisors[k]``, the pivot of stage k - 1 (1 at stage 0); it makes
    entry j > k ``(pivots[k][k]*row[j] - row[k]*pivots[k][j]) /
    divisors[k]``, an exact division.  After stage k, entry j is the minor
    on the pivot rows of stages 0..k and ``row``, in columns 0..k and j.
    Entries up to column k are left stale."""
    for k in range(start, stop):
        pivot, divisor = pivots[k], divisors[k]
        p, x = pivot[k], row[k]
        row[k + 1 :] = [(p * a - x * b) // divisor for a, b in zip(row[k + 1 :], pivot[k + 1 :])]


def _unit_invariant_factors(A: IntMatrix) -> bool:
    """True iff A (m x n) has m >= n >= 1, rank n and every invariant
    factor 1, that is iff d_n, the gcd of its n x n minors, is 1.

    For n = 1, d_n is the gcd of the column.  Otherwise one fraction-free
    elimination runs over columns 0..n-3, taking each pivot row from A in
    row order; a column with no nonzero entry at its stage in any row means
    rank below n.  Each other row, carried through those stages, keeps two
    live entries (x0, x1) = (x[n-2], x[n-1]).  By Sylvester's identity,
    for two such rows x and y, ``(x0*y1 - x1*y0) / p``, with p the last
    pivot (1 when n = 2), is plus or minus the n x n minor on the pivot
    rows, x and y.  The minors of each further row are folded into their
    gcd delta, a multiple of d_n, until delta = 1 or a row leaves a
    nonzero delta unchanged.  delta = 0 after every row means rank below
    n.  When m = n, delta is |det A| = d_n.  Otherwise a delta above 1 is
    settled by :func:`_full_rank_modulo`: d_n = 1 iff A has rank n
    modulo every prime dividing delta.
    """
    m, n = A.rows, A.cols
    if not 1 <= n <= m:
        return False
    if n == 1:
        return math.gcd(*A.entries) == 1
    rows = A.to_rows()
    level = [0] * m  # the stages each row has been carried through
    pivots: list[list[int]] = []  # the pivot row of each stage
    divisors = [1]  # divisors[s] is the pivot of stage s - 1
    others = list(range(m))
    for s in range(n - 2):
        for i in others:
            _fraction_free_carry(rows[i], pivots, divisors, level[i], s)
            level[i] = s
            if rows[i][s]:
                break
        else:
            return False
        others.remove(i)
        pivots.append(rows[i])
        divisors.append(rows[i][s])
    k, p = n - 2, divisors[-1]
    delta = 0
    tails: list[tuple[int, int]] = []
    for i in others:
        _fraction_free_carry(rows[i], pivots, divisors, level[i], k)
        y0, y1 = rows[i][k:]
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


def kernel_and_cokernel(A: IntMatrix) -> tuple[IntBasis, AbGroup]:
    """The kernel basis of :func:`kernel_basis` and the cokernel of
    :func:`cokernel_presentation`, from at most one reduction of A.

    No reduction runs exactly when :func:`_unit_invariant_factors` finds
    that A has full column rank and every invariant factor 1: the kernel
    is then 0 and the cokernel free of rank rows - cols, what the
    reduction would give.
    """
    if _unit_invariant_factors(A):
        return IntBasis(A.cols, ()), AbGroup(A.rows - A.cols, ())
    d, _, v = _reduce(A, track_v=True)
    cokernel = _cokernel(A, d)
    vecs = [[row[j] for row in v] for j in range(A.rows - cokernel.free_rank, A.cols)]
    return IntBasis(A.cols, tuple(tuple(row) for row in _hnf_rows(vecs, A.cols))), cokernel


def kernel_basis(A: IntMatrix) -> IntBasis:
    """Saturated basis of ``{ v : A @ v = 0 }`` inside Z^cols.

    The kernel of a map into a free group is automatically a direct
    summand; the basis returned is the canonical echelon form of the
    columns of V past the rank.
    """
    return kernel_and_cokernel(A)[0]


def cokernel_presentation(A: IntMatrix) -> AbGroup:
    """Normal form of ``Z^rows / A(Z^cols)``.

    Free rank is ``rows - rank(A)``; the invariant factors are the Smith
    diagonal entries greater than 1.
    """
    return _cokernel(A, _reduce(A)[0])
