"""Acceptance suite.

Every criterion is exact integer equality; there are no tolerances.  One
pass/fail line is printed per criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

from fibresum import intlat
from fibresum import (
    AbGroup,
    IntMatrix,
    analyse,
    sum_forms,
)
from helpers import (
    checked_smith_form,
    elliptic_problem,
    lemma_cokernels,
    random_matrix,
    random_problem_any,
    random_scope_problem,
    transpose,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


@lru_cache(maxsize=1)
def randomized_suite():
    """200 validated problems inside scope: g <= 5, b1 <= 6, embedding
    entries bounded by 5, gluing entries bounded by 10."""
    rng = random.Random(0xF1B5)
    return tuple(
        random_scope_problem(rng, g_max=5, b1_max=6, entry_bound=5, a_bound=10)
        for _ in range(200)
    )


def test_criterion_1_elliptic_regression():
    with criterion(1, "elliptic regression E(m)#E(n) = E(m+n)"):
        start = time.perf_counter()
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                problem = elliptic_problem(m, n, a=(0, 0), t=(0, 0))
                s = m + n
                betti = analyse(problem).betti
                assert betti.b2 == 12 * s - 2
                assert betti.b2_plus == 2 * s - 1
                assert betti.sigma == -8 * s
                assert betti.e == 12 * s
                assert analyse(problem).h1 == AbGroup(0)
                cc = sum_forms(analyse(problem)).canonical_class
                assert cc.r_coeffs == (0, 0)
                assert cc.sigma_coeff == s - 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


def test_criterion_2_twisted_family():
    with criterion(2, "twisted family X(m,n,p)"):
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                for p in range(-3, 4):
                    cc = sum_forms(analyse(elliptic_problem(m, n, a=(p, 0)))).canonical_class
                    assert cc.r_coeffs == (-(n - 1) * p, 0)
                    assert cc.sigma_coeff == m + n - 2
                    assert cc.eta == m - 1
                    assert cc.eta_prime == n - 1


def test_criterion_3_k_squared_identity():
    with criterion(3, "K^2 identity on 200 randomized problems"):
        for problem in randomized_suite():
            check = sum_forms(analyse(problem)).k_squared
            assert check.lhs == check.rhs


def test_criterion_4_rank_bookkeeping():
    with criterion(4, "rank bookkeeping on 200 randomized problems"):
        for problem in randomized_suite():
            betti = analyse(problem).betti
            d = analyse(problem).d
            split_total = 2 * (d + 1) + (problem.M.b2 - 2) + (problem.N.b2 - 2)
            assert split_total == betti.b2
            assert analyse(problem).h1_cohom_rank == betti.b1
            bf = sum_forms(analyse(problem)).block_form
            assert bf.rank == betti.b2
            assert bf.signature == betti.sigma


def test_criterion_5_cokernel_lemma_oracle():
    with criterion(5, "cokernel-equivalence lemma on 100 random instances"):
        rng = random.Random(0x5E11)
        for _ in range(100):
            lhs, rhs = lemma_cokernels(rng, max_rank=4, max_k=6)
            assert lhs == rhs


def test_criterion_6_spin_divisibility_dichotomy():
    with criterion(6, "spin/divisibility dichotomy for K3 sums"):
        twisted = elliptic_problem(2, 2, a=(1, 0))
        sf = sum_forms(analyse(twisted))
        assert sf.divisibility.value == 1
        fc = sf.form_class
        assert fc.parity == "odd"
        assert fc.decomposition == "7<+1> + 39<-1>"

        untwisted = elliptic_problem(2, 2, a=(0, 0))
        sf = sum_forms(analyse(untwisted))
        assert sf.divisibility.value == 2
        fc = sf.form_class
        assert fc.parity == "even"
        assert fc.decomposition == "7H + 4E8(-1)"


def test_criterion_7_snf_property_suite():
    with criterion(7, "Smith normal form on 500 random matrices"):
        rng = random.Random(0x57F5)
        for _ in range(500):
            rows = rng.randint(0, 8)
            cols = rng.randint(0, 8)
            checked_smith_form(random_matrix(rng, rows, cols, 50))


def test_criterion_8_ionel_parker_cross_checks():
    with criterion(8, "Ionel-Parker cross-checks on 200 randomized problems"):
        for problem in randomized_suite():
            M, N, g = problem.M, problem.N, problem.genus
            lines = sum_forms(analyse(problem)).ionel_parker
            assert lines[0].lhs == M.K_dot_B + N.K_dot_B + 2
            assert lines[1].lhs == 2 * g - 2
            assert lines[2].lhs == 0
            assert all(line.ok for line in lines)


def test_criterion_9_transpose_oracle():
    with criterion(9, "rim tori and b1 against a reduction of the transpose"):
        rng = random.Random(4242)
        problems = randomized_suite() + tuple(random_problem_any(rng) for _ in range(100))
        for problem in problems:
            analysis = analyse(problem)
            stacked = IntMatrix.vstack([problem.M.embedding_free, problem.N.embedding_free])
            transposed = transpose(stacked)
            rim_tori = intlat.cokernel_presentation(transposed)
            assert rim_tori == analysis.rim_tori
            rank = transposed.rows - rim_tori.free_rank
            assert stacked.rows - rank == analysis.betti.b1
