"""Smith reduction, rank, kernels and cokernel presentations."""

import enum
import math
import random
import re

import pytest

from fibresum import intlat
from fibresum import AbGroup, IntMatrix, cokernel_presentation, kernel_and_cokernel
from helpers import checked_smith_form, identity, matmul, random_matrix, random_unimodular


def rank(A):
    """The rank of A over the rationals, read off its cokernel."""
    return A.rows - cokernel_presentation(A).free_rank


def diagonal(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def v_columns(A, start):
    """Columns ``start..`` of the V of ``intlat._reduce``, as rows."""
    v = intlat._reduce(A, track_v=True)[1]
    return [[row[j] for row in v] for j in range(start, A.cols)]


class TestSmithNormalForm:
    def test_identity(self):
        eye = identity(2)
        assert intlat._reduce(eye, track_v=True) == (eye.to_rows(), eye.to_rows())

    def test_invariant_factors_2x2(self):
        assert checked_smith_form(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)

    def test_zero_matrix(self):
        zero = IntMatrix.zeros(2, 3)
        assert intlat._reduce(zero, track_v=True) == (zero.to_rows(), identity(3).to_rows())

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_matrices(self, shape):
        m = IntMatrix.zeros(*shape)
        assert intlat._reduce(m)[0] == m.to_rows()
        assert checked_smith_form(m) == ()
        assert rank(m) == 0

    def test_pinned_transforms(self):
        # The exact V of the pivot rule.  Floor quotients, or promoting the
        # first surviving remainder instead of the smallest, give another V
        # (the earlier rule gave V = [[1, 43], [0, 1]]).
        d, v = intlat._reduce(IntMatrix.from_rows([[-6, 8], [-8, 8], [-5, -9]]), track_v=True)
        assert d == [[1, 0], [0, 2], [0, 0]]
        assert v == [[1, 17], [0, 1]]

    def test_deterministic(self):
        m = IntMatrix.from_rows([[3, 1, -4], [2, -2, 6], [0, 5, 5]])
        assert intlat._reduce(m, track_v=True) == intlat._reduce(m, track_v=True)

    def test_random_suite(self):
        rng = random.Random(20260809)
        for _ in range(200):
            rows = rng.randint(0, 8)
            cols = rng.randint(0, 8)
            checked_smith_form(random_matrix(rng, rows, cols, 50))


def oracle_matrices(count, max_dim=9):
    """Random matrices of every shape the library meets: empty (0 x n and
    n x 0), zero, tall, wide, rank-deficient and with torsion."""
    rng = random.Random(20261018)
    for i in range(count):
        kind = i % 6
        rows, cols = rng.randint(0, max_dim), rng.randint(0, max_dim)
        if kind == 0:
            rows, cols = rng.choice([(0, cols), (rows, 0), (rows, cols)])
            yield IntMatrix.zeros(rows, cols)
        elif kind == 1:
            yield random_matrix(rng, max(rows, cols), min(rows, cols), 20)
        elif kind == 2:
            yield random_matrix(rng, min(rows, cols), max(rows, cols), 20)
        elif kind == 3:
            inner = rng.randint(0, min(rows, cols))
            yield matmul(random_matrix(rng, rows, inner, 4), random_matrix(rng, inner, cols, 4))
        elif kind == 4:
            scale = rng.choice([2, 3, 4, 6, 12])
            yield IntMatrix(rows, cols, tuple(scale * e for e in random_matrix(rng, rows, cols, 5).entries))
        else:
            yield random_matrix(rng, rows, cols, rng.choice([1, 5, 10**6]))


def ladder_matrices(count):
    """Dense tall 4k x 2k matrices with |entries| <= 5, shaped like the
    stacked embedding of a genus-k sum with b1 = 2k on each side."""
    rng = random.Random(20261019)
    for i in range(count):
        k = 1 + i % 3
        yield random_matrix(rng, 4 * k, 2 * k, 5)


def sympy_oracle_matrices():
    yield from oracle_matrices(600, max_dim=8)
    yield from ladder_matrices(60)


class TestDifferentialOracles:
    """The transform-free reduction and the answers built on it against
    the reduction with V as the reference, the fraction-free rank, and
    sympy's invariant factors as an independent oracle."""

    def test_transform_free_diagonal(self):
        for m in oracle_matrices(600):
            reference = intlat._reduce(m, track_v=True)[0]
            assert intlat._reduce(m)[0] == reference
            r = intlat.rank(m)
            assert rank(m) == r == sum(1 for x in diagonal(reference) if x)
            assert cokernel_presentation(m) == AbGroup(
                m.rows - r, tuple(x for x in diagonal(reference) if x > 1)
            )

    def test_kernel_basis_from_reference_v(self):
        for m in oracle_matrices(600):
            tail = v_columns(m, intlat.rank(m))
            assert kernel_and_cokernel(m)[0] == IntMatrix.from_rows(intlat._hnf_rows(tail, m.cols), cols=m.cols)

    def test_sympy_invariant_factors(self):
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        for m in sympy_oracle_matrices():
            if m.rows == 0 or m.cols == 0:
                continue
            expected = [int(x) for x in invariant_factors(Matrix(m.to_rows())) if x]
            assert [x for x in diagonal(intlat._reduce(m)[0]) if x] == expected

    def test_sympy_torsion_lifts(self):
        # On matrices with a kernel and an invariant factor above 1: the
        # lifts match sympy's factors above 1 in number and order, A maps
        # the lift of factor t to a nonzero multiple of t, and the lifts
        # stacked on the kernel basis span a direct summand (sympy's
        # invariant factors of the stack are all 1).
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random("torsion-lifts")
        checked = 0
        while checked < 80:
            rows, cols = rng.randint(1, 7), rng.randint(2, 7)
            inner = rng.randint(1, cols - 1)
            m = matmul(random_matrix(rng, rows, inner, 4), random_matrix(rng, inner, cols, 4))
            factors = [int(x) for x in invariant_factors(Matrix(m.to_rows())) if x]
            torsion = tuple(x for x in factors if x > 1)
            if not torsion or len(factors) == cols:
                continue
            basis, cokernel, lifts = kernel_and_cokernel(m)
            assert cokernel.torsion == torsion
            assert (lifts.rows, lifts.cols) == (len(torsion), cols)
            for w, t in zip(lifts.to_rows(), torsion):
                image = m.mul_vector(w)
                assert any(image) and all(x % t == 0 for x in image)
            stacked = IntMatrix.vstack([lifts, basis])
            assert [int(x) for x in invariant_factors(Matrix(stacked.to_rows()))] == [1] * stacked.rows
            checked += 1

    def test_sympy_kernel(self):
        # Independent of the pivot loop: every vector is in the kernel,
        # there are cols - rank of them by sympy's rank, which the cokernel
        # gives too, and the basis is saturated because sympy's invariant
        # factors of it are all 1.
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        for m in sympy_oracle_matrices():
            basis = kernel_and_cokernel(m)[0]
            for vec in basis.to_rows():
                assert m.mul_vector(vec) == (0,) * m.rows
            expected_rank = Matrix(m.to_rows()).rank() if m.rows and m.cols else 0
            assert basis.rows == m.cols - expected_rank
            assert rank(m) == expected_rank
            if basis.rows:
                assert all(x == 1 for x in invariant_factors(Matrix(basis.to_rows())))


def pivot_rows(elimination):
    """The rows of A that are pivots of ``elimination``, in stage order."""
    return [next(i for i, r in enumerate(elimination.rows) if r is row) for row, _, _ in elimination.stages]


class TestFractionFree:
    """Every value the elimination carries is a minor of A (Sylvester's
    identity), whichever stages a row goes through in one pass."""

    def test_carried_rows_are_minors(self):
        # Stages are taken one column at a time, as rank takes them, and a
        # random subset of the unused rows is carried after each, so rows
        # go through odd and even numbers of stages at once.  Columns with
        # no pivot (a zero column, or one that the stages before clear)
        # are skipped.
        from sympy import Matrix

        rng = random.Random("fraction-free-carry")
        counts, skipped = set(), 0
        for _ in range(40):
            m, n = rng.randint(2, 8), rng.randint(2, 7)
            rows = random_matrix(rng, m, n, rng.choice([3, 10**6])).to_rows()
            kind = rng.randrange(3)
            if kind:
                j = rng.randrange(1, n)
                for row in rows:
                    row[j] = 0 if kind == 1 else 2 * row[j - 1]
            A = IntMatrix.from_rows(rows)
            elimination = intlat._FractionFree(A)
            for j in range(n):
                skipped += elimination.pivot(j) is None
                for i in rng.sample(elimination.unused, rng.randint(0, len(elimination.unused))):
                    elimination.carry(i)
            columns = [c for _, c, _ in elimination.stages]
            counts.add(len(columns))
            pivots = pivot_rows(elimination)
            for i in elimination.unused:
                row = elimination.carry(i)
                for j in range(columns[-1] + 1 if columns else 0, n):
                    minor = Matrix([[rows[r][c] for c in columns + [j]] for r in pivots + [i]])
                    assert row[j] == minor.det()
            block = Matrix([[rows[r][c] for c in columns] for r in pivots])
            assert elimination.last == (block.det() if columns else 1)
        assert {1, 2, 3, 4} <= counts and skipped

    def test_tail_minors(self, monkeypatch):
        """Each minor that the certificate folds into delta is the n x n
        minor on the pivot rows and two unused rows, in that order, for
        odd and even numbers k = n - 2 of stages."""
        from sympy import Matrix

        minors = []

        def gcd(*values):
            minors.append(values[-1])
            return math.gcd(*values)

        monkeypatch.setattr(intlat, "math", type("spy", (), {"gcd": staticmethod(gcd)}))
        monkeypatch.setattr(intlat, "_full_rank_modulo", lambda *args: False)
        rng = random.Random("tail-minors")
        ks, compared = set(), 0
        for _ in range(60):
            n = rng.randint(2, 7)
            rows = random_matrix(rng, rng.randint(n, 2 * n + 2), n, 4).to_rows()
            if rng.randrange(2):
                for row in rows:
                    row[-1] *= 6
            A = IntMatrix.from_rows(rows)
            elimination = intlat._FractionFree(A)
            if any(elimination.pivot(j) is None for j in range(n - 2)):
                continue
            pivots, unused = pivot_rows(elimination), elimination.unused
            minors.clear()
            intlat._unit_invariant_factors(A)
            pairs = [(a, b) for b in range(len(unused)) for a in range(b)]
            for minor, (a, b) in zip(minors, pairs):
                assert minor == Matrix([rows[r] for r in pivots + [unused[a], unused[b]]]).det()
                compared += 1
            ks.add(n - 2)
        assert {0, 1, 2, 3} <= ks and compared > 200


def certificate_pool(kind, count):
    """Ladder-shaped 2n x n matrices (n <= 6, |entries| <= 5) of one kind,
    told apart by sympy: ``coprime_minors`` (the top and bottom n x n
    minors have gcd 1), ``common_minor_factor`` (that gcd is above 1, yet
    every invariant factor is 1), ``non_unit_factor`` (one column scaled
    by 2 or 3, both minors nonzero) and ``rank_deficient`` (a repeated
    column)."""
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(f"certificate-{kind}")
    pool = []
    while len(pool) < count:
        n = rng.randint(1 if kind in ("coprime_minors", "non_unit_factor") else 2, 6)
        rows = random_matrix(rng, 2 * n, n, 5).to_rows()
        if kind == "non_unit_factor":
            j, scale = rng.randrange(n), rng.choice([2, 3])
            for row in rows:
                row[j] *= scale
        elif kind == "rank_deficient":
            j, k = rng.sample(range(n), 2)
            for row in rows:
                row[k] = row[j]
        delta = math.gcd(int(Matrix(rows[:n]).det()), int(Matrix(rows[n:]).det()))
        units = [int(x) for x in invariant_factors(Matrix(rows))] == [1] * n
        wanted = {
            "coprime_minors": delta == 1,
            "common_minor_factor": delta > 1 and units,
            "non_unit_factor": delta > 1 and not units,
            "rank_deficient": delta == 0,
        }[kind]
        if wanted:
            pool.append(IntMatrix.from_rows(rows))
    return pool


class TestUnitInvariantFactorCertificate:
    """``kernel_and_cokernel`` on every kind equals sympy's cokernel and
    the kernel of the reduction path.  The certificate is an exact
    decision, so the reduction runs exactly when sympy finds fewer than n
    invariant factors or one above 1."""

    @pytest.mark.parametrize(
        "kind", ["coprime_minors", "common_minor_factor", "non_unit_factor", "rank_deficient"]
    )
    def test_against_sympy_and_reduction(self, kind, monkeypatch):
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        original = intlat._reduce
        reduced = []

        def counting(A, *args, **kwargs):
            reduced.append(A)
            return original(A, *args, **kwargs)

        monkeypatch.setattr(intlat, "_reduce", counting)
        skipped_with_common_factor = 0
        for m in certificate_pool(kind, 60):
            rows, n = m.to_rows(), m.cols
            factors = [int(x) for x in invariant_factors(Matrix(rows)) if x]
            tail = v_columns(m, intlat.rank(m))
            before = len(reduced)
            basis, cokernel, _ = intlat.kernel_and_cokernel(m)
            assert cokernel == AbGroup(m.rows - len(factors), tuple(x for x in factors if x > 1))
            assert basis == IntMatrix.from_rows(intlat._hnf_rows(tail, n), cols=n)
            ran = len(reduced) > before
            delta = math.gcd(int(Matrix(rows[:n]).det()), int(Matrix(rows[n:]).det()))
            assert ran == (factors != [1] * n)
            skipped_with_common_factor += delta > 1 and not ran
        if kind == "common_minor_factor":
            assert skipped_with_common_factor >= 50

    def test_two_prime_gcd_certified(self):
        # Top and bottom minors -78 and -30 (gcd 6), every invariant
        # factor 1, and no column holds an entry prime to 6.
        m = IntMatrix.from_rows(
            [[-2, -5, 4], [4, -5, -4], [-1, -1, -1], [1, -3, 1], [-4, -2, 5], [-3, 3, 3]]
        )
        assert intlat._unit_invariant_factors(m)
        assert intlat.kernel_and_cokernel(m) == (IntMatrix(0, 3, ()), AbGroup(3, ()), IntMatrix(0, 3, ()))

    def test_decision_against_sympy(self, monkeypatch):
        """True exactly when sympy finds n invariant factors, all 1, on
        random tall matrices (scaled columns, entries with common
        factors, zero top blocks, repeated columns) and on matrices whose
        minors stall at 6, 12 and 30, so that the modular pass runs and
        splits its modulus."""
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors

        moduli = []
        original = intlat._full_rank_modulo

        def spy(A, delta, *args):
            moduli.append(delta)
            return original(A, delta, *args)

        monkeypatch.setattr(intlat, "_full_rank_modulo", spy)
        stalled = [
            ([[1, 0], [0, 6], [0, 12], [0, 2], [0, 3]], True),
            ([[1, 0], [0, 6], [0, 12], [0, 2]], False),
            ([[1, 0], [0, 12], [2, 24], [0, 2], [0, 4], [1, 3]], True),
            ([[1, 0], [0, 12], [2, 24], [0, 4], [0, 8]], False),
            ([[1, 0], [0, 30], [0, 60], [0, 6], [0, 10], [0, 15]], True),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 30], [0, 0, 60], [0, 0, 6], [0, 0, 10]], False),
        ]
        cases = [(IntMatrix.from_rows(rows), want) for rows, want in stalled]
        rng = random.Random("unit-invariant-factors")
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = random_matrix(rng, rng.randint(n, 2 * n + 2), n, 5).to_rows()
            shape = rng.randrange(5)
            if shape == 0:
                j, scale = rng.randrange(n), rng.choice([2, 3, 6])
                for row in rows:
                    row[j] *= scale
            elif shape == 1:
                for row in rows:
                    row[:] = [x * rng.choice([1, 2, 3, 5]) for x in row]
            elif shape == 2:
                for row in rows[: rng.randint(1, max(1, len(rows) - 1))]:
                    row[:] = [0] * n
            elif shape == 3 and n > 1:
                j, k = rng.sample(range(n), 2)
                for row in rows:
                    row[k] = row[j]
            cases.append((IntMatrix.from_rows(rows), None))
        first_moduli, widths, square_non_unit, zero_top = set(), set(), 0, 0
        for m, want in cases:
            factors = [int(x) for x in invariant_factors(Matrix(m.to_rows()))]
            expected = factors == [1] * m.cols
            assert want in (None, expected)
            moduli.clear()
            assert intlat._unit_invariant_factors(m) == expected
            # rank and det share the certificate's elimination.
            assert intlat.rank(m) == Matrix(m.to_rows()).rank()
            first_moduli.update(moduli[:1])
            widths.add(m.cols)
            if m.rows == m.cols:
                det = int(Matrix(m.to_rows()).det())
                assert m.det() == det
                square_non_unit += abs(det) > 1
            zero_top += not any(m.row(0))
        assert {6, 12, 30} <= first_moduli
        assert {1, 2} <= widths
        assert square_non_unit and zero_top

    def test_shapes_that_always_reduce(self):
        for m in (IntMatrix.zeros(3, 0), IntMatrix.from_rows([[1, 0, 0]]), IntMatrix.zeros(0, 2)):
            assert not intlat._unit_invariant_factors(m)

    def test_square_unimodular(self):
        m = IntMatrix.from_rows([[2, 3], [1, 2]])
        assert intlat._unit_invariant_factors(m)
        assert intlat.kernel_and_cokernel(m) == (IntMatrix(0, 2, ()), AbGroup(0, ()), IntMatrix(0, 2, ()))


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_degenerate(self):
        assert rank(IntMatrix.from_rows([[2, 4], [1, 2]])) == 1

    def test_empty(self):
        assert rank(IntMatrix.zeros(0, 5)) == 0

    def test_elimination_against_sympy_and_cokernel(self):
        # intlat.rank eliminates without reducing; sympy and the free rank
        # of the cokernel are two independent answers.  Draws include zero,
        # repeated and dependent rows, entries up to 2^70, and 0 x n and
        # n x 0 shapes.
        from sympy import Matrix

        rng = random.Random(20261019)
        kinds = set()
        for i in range(240):
            m, n = rng.randint(0, 7), rng.randint(0, 7)
            rows = random_matrix(rng, m, n, rng.choice([1, 3, 2**20, 2**70])).to_rows()
            kind = i % 4 if m >= 3 else 0
            a, b, c = rng.sample(range(m), 3) if kind else (0, 0, 0)
            if kind == 1:
                rows[c] = [0] * n
            elif kind == 2:
                rows[c] = list(rows[a])
            elif kind == 3:
                rows[c] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(rows[a], rows[b])]
            kinds.add(kind)
            A = IntMatrix.from_rows(rows, cols=n)
            expected = Matrix(rows).rank() if m and n else 0
            assert intlat.rank(A) == expected == rank(A)
        assert kinds == {0, 1, 2, 3}
        for m, n in ((0, 0), (0, 4), (4, 0)):
            assert intlat.rank(IntMatrix.zeros(m, n)) == 0

    def test_elimination_skips_pivotless_columns(self):
        # Column 1 has no pivot below row 0 and column 3 none at all.
        A = IntMatrix.from_rows([[2, 1, 0, 0, 5], [4, 2, 3, 0, 1], [6, 3, 3, 0, 6]])
        assert intlat.rank(A) == 2
        assert intlat.rank(IntMatrix.from_rows([[0, 0, 7], [0, 0, -7], [0, 0, 0]])) == 1


class TestKernelBasis:
    def test_zero_map(self):
        assert kernel_and_cokernel(IntMatrix.zeros(1, 2))[0] == identity(2)

    def test_sum_map(self):
        assert kernel_and_cokernel(IntMatrix.from_rows([[1, 1]]))[0] == IntMatrix.from_rows([[1, -1]])

    def test_injective(self):
        assert kernel_and_cokernel(identity(2))[0] == IntMatrix(0, 2, ())

    def test_saturation_certificate(self):
        # A v = 0 for every basis vector, and the Smith diagonal of the
        # stacked basis is all ones: the span is a direct summand.
        rng = random.Random(7)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 6), 9)
            basis = kernel_and_cokernel(m)[0]
            assert basis.rows == m.cols - rank(m)
            for v in basis.to_rows():
                assert m.mul_vector(v) == (0,) * m.rows
            if basis.rows:
                assert diagonal(intlat._reduce(basis)[0]) == [1] * basis.rows


class TestCokernelPresentation:
    def test_diag_2_3(self):
        group = cokernel_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert group == AbGroup(0, (6,))

    def test_zero_map(self):
        group = cokernel_presentation(IntMatrix.zeros(3, 2))
        assert group == AbGroup(3, ())

    def test_det_minus_two(self):
        group = cokernel_presentation(IntMatrix.from_rows([[1, 1], [1, -1]]))
        assert group == AbGroup(0, (2,))

    def test_basis_independence(self):
        # Invariant factors do not change under unimodular row/column moves.
        rng = random.Random(99)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols, 8)
            p = random_unimodular(rng, rows)
            q = random_unimodular(rng, cols)
            assert cokernel_presentation(m) == cokernel_presentation(matmul(matmul(p, m), q))


class TestIntMatrix:
    def test_entry_count_validated(self):
        with pytest.raises(ValueError, match="expected 4 entries, got 3"):
            IntMatrix(2, 2, (1, 2, 3))

    def test_negative_dimensions_rejected(self):
        for rows, cols in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="matrix dimensions must be nonnegative"):
                IntMatrix(rows, cols, ())

    def test_vstack_of_one(self):
        m = IntMatrix.from_rows([[1, 2]])
        assert IntMatrix.vstack([m]) == m

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: IntMatrix.vstack([]), "vstack needs at least one block"),
            (lambda: IntMatrix.vstack([IntMatrix.zeros(1, 2), IntMatrix.zeros(1, 3)]), "column mismatch in vstack"),
            # zip would drop the extra entries, or the missing ones.
            (lambda: identity(2).mul_vector((1,)), "vector length mismatch"),
            (lambda: identity(2).mul_vector((1, 2, 3)), "vector length mismatch"),
            (lambda: IntMatrix.zeros(2, 3).det(), "determinant of a non-square matrix"),
            (lambda: IntMatrix.zeros(0, 1).det(), "determinant of a non-square matrix"),
        ],
        ids=["vstack_empty", "vstack_widths", "short_vector", "long_vector", "det_2x3", "det_0x1"],
    )
    def test_shape_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_non_int_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, (1.5,))

    def test_entry_types_pinned(self):
        # bool, float and str are rejected by name; int subclasses pass.
        for bad in (True, 2.0, "3"):
            with pytest.raises(ValueError, match=re.escape(f"matrix entries: expected an integer, got {bad!r}")):
                IntMatrix(1, 3, (1, bad, 4))
        plus = enum.IntEnum("Sign", "PLUS").PLUS
        assert IntMatrix(1, 3, (1, plus, 4)).entries == (1, plus, 4)

    def test_ragged_rejected(self):
        # The first row sets the width, so a short last row is reported as
        # ragged even when cols names the right width.
        for cols in (None, 2):
            with pytest.raises(ValueError, match="ragged rows"):
                IntMatrix.from_rows([[1, 2], [3]], cols=cols)

    def test_det_bareiss(self):
        m = IntMatrix.from_rows([[2, -3, 1], [4, 0, -2], [1, 5, 3]])
        assert m.det() == 2 * (0 * 3 - (-2) * 5) - (-3) * (4 * 3 - (-2) * 1) + 1 * (4 * 5 - 0 * 1)
        assert identity(4).det() == 1
        assert IntMatrix.zeros(0, 0).det() == 1

    def test_det_against_sympy(self):
        # Random, singular (one row a combination of two others) and with
        # zero leading entries, which make Bareiss swap rows.
        from sympy import Matrix

        rng = random.Random(20261020)
        for i in range(360):
            n = rng.randint(1, 8)
            rows = random_matrix(rng, n, n, rng.choice([1, 3, 9, 10**6])).to_rows()
            if i % 3 == 1 and n > 2:
                a, b, c = rng.sample(range(n), 3)
                rows[c] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(rows[a], rows[b])]
            elif i % 3 == 2:
                for row in rows[: rng.randint(1, n)]:
                    row[0] = 0
            assert IntMatrix.from_rows(rows).det() == int(Matrix(rows).det())

    def test_big_entries_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert m.det() == big * big - 1
        assert checked_smith_form(m) == (1, big * big - 1)
