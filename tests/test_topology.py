"""Oracles for how ``analyse`` assembles the sum from its sides.

The Mayer-Vietoris oracle of ``helpers`` computes H_1 of the sum from the
two complements and the gluing map on the boundary, without the
presentation of H_1 that ``analyse`` reads off the Smith form of S; the
gluing map's action on H_1 of the boundary is tested here too.  The
metamorphic suite changes the bases of H_1(M), H_1(N) and H_1(Sigma) and
checks that no invariant of the report moves.
"""

import dataclasses
import random
from collections import Counter

from fibresum import FibreSumProblem, GluingClass, IntMatrix, analyse, cli, intlat
from helpers import _phi_action_h1, h1_case, identity, make_side, matmul, mayer_vietoris_h1, transpose
from helpers import random_problem_any, random_scope_problem, random_unimodular


class TestMayerVietoris:
    def test_h1_against_analyse(self):
        rng = random.Random("mayer-vietoris")
        draws = [random_problem_any(rng) for _ in range(250)]
        draws += [random_scope_problem(rng, with_t=False) for _ in range(250)]
        cases = Counter()
        for problem in draws:
            analysis = analyse(problem)
            assert mayer_vietoris_h1(problem) == analysis.h1
            cases[h1_case(analysis)] += 1
        # Every kind of draw is checked.
        assert cases["a"] >= 100 and cases["b0"] >= 100 and cases["b+"] >= 50 and cases["c"] >= 30

    def test_meridian_order_is_the_gcd(self):
        # Two sides with b1 = 0 and no torsion: only the meridians survive,
        # and the gluing pairings decide how much of Z/gcd(k_M, k_N) dies.
        m, n = make_side("M", genus=1, k=4), make_side("N", genus=1, k=6)
        for a, torsion in (((0, 0), (2,)), ((1, 0), ()), ((2, 4), (2,))):
            problem = FibreSumProblem(M=m, N=n, gluing=GluingClass(a))
            assert mayer_vietoris_h1(problem).torsion == torsion
            assert analyse(problem).h1.torsion == torsion


class TestPhiAction:
    def test_h1_trivial_gluing(self):
        assert _phi_action_h1(2, (0, 0, 0, 0)) == IntMatrix.from_rows(
            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, -1]]
        )

    def test_h1_twisted(self):
        assert _phi_action_h1(1, (5, 0)) == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [5, 0, -1]])

    def test_h1_determinant(self):
        rng = random.Random(3)
        for _ in range(20):
            g = rng.randint(0, 4)
            a = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            assert _phi_action_h1(g, a).det() == -1

    def test_pairing_reversed(self):
        # The boundary is glued by an orientation-reversing map, so the
        # intersection pairing J between H_2 and H_1 changes sign.  On H_2,
        # in the basis (Gamma_1, ..., Gamma_2g, Sigma) dual to the H_1
        # basis, the rim classes reverse sign and Sigma picks up -a_i rim
        # classes; images are columns, as for H_1.
        rng = random.Random(9)
        for _ in range(20):
            g = rng.randint(0, 4)
            a = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            n = 2 * g + 1
            h2 = IntMatrix.from_rows(
                [[-1 if i == j else 0 for j in range(2 * g)] + [-a[i]] for i in range(2 * g)]
                + [[0] * (2 * g) + [1]],
                cols=n,
            )
            pairing = identity(n)
            lhs = matmul(matmul(transpose(h2), pairing), _phi_action_h1(g, a))
            assert lhs == IntMatrix(n, n, tuple(-x for x in pairing.entries))


def change_basis(problem: FibreSumProblem, rng: random.Random) -> FibreSumProblem:
    """The same sum in new bases U_M, U_N of H_1(M), H_1(N) and P of
    H_1(Sigma): S_side -> U_side S_side P, each torsion row r -> r P mod
    its order, a -> P^T a, and no t-vector."""
    two_g = 2 * problem.genus
    p = random_unimodular(rng, two_g)

    def side(s):
        torsion = tuple(
            (m, tuple(x % m for x in matmul(IntMatrix(1, two_g, row), p).entries))
            for m, row in s.embedding_torsion
        )
        free = matmul(matmul(random_unimodular(rng, s.b1), s.embedding_free), p)
        return dataclasses.replace(s, embedding_free=free, embedding_torsion=torsion)

    a = matmul(IntMatrix(1, two_g, problem.gluing.a), p).entries
    return FibreSumProblem(M=side(problem.M), N=side(problem.N), gluing=GluingClass(a))


def invariants(problem: FibreSumProblem):
    """The report fields no change of basis may move, or the type and
    message of the error the report raises."""
    try:
        report = cli.build_report(problem)
    except (*cli.INVALID_ERRORS, *cli.INTERNAL_ERRORS) as exc:
        return type(exc), str(exc)
    forms = report["forms"]
    block = forms.get("block_form", {})
    return {
        "betti": report["betti"],
        "h1": report["h1"],
        "rim_tori": report["rim_tori"],
        "form_class": forms.get("form_class"),
        "divisibility": forms.get("divisibility"),
        "nucleus_b_sq": block.get("nucleus_b_sq"),
        "odd_pair": any(block.get("pair_s_sq_parities", ())),
        "k_squared": report["checks"].get("k_squared"),
        "skipped": forms.get("skipped"),
        "warnings": report["warnings"],
    }


def draw(seed: int, in_scope: bool, entry_bound: int) -> FibreSumProblem:
    rng = random.Random(seed)
    if in_scope:
        return random_scope_problem(rng, entry_bound=entry_bound, with_t=False)
    return random_problem_any(rng)


class TestChangeOfBasis:
    def test_invariants_unchanged(self):
        # 300 seeded draws of (seed, in_scope, entry_bound), and the extreme seeds both ways.
        rng = random.Random(20261020)
        cases = [(rng.randrange(2**64), rng.random() < 0.5, rng.randint(1, 12)) for _ in range(300)]
        cases += [(seed, in_scope, 12) for seed in (0, 2**64 - 1) for in_scope in (False, True)]
        for seed, in_scope, entry_bound in cases:
            problem = draw(seed, in_scope, entry_bound)
            # A moved problem that broke a rule could not be built.
            moved = change_basis(problem, random.Random(~seed))
            assert invariants(moved) == invariants(problem), (seed, in_scope, entry_bound)

    def test_draws_reach_both_kernel_paths(self):
        # The stacked embedding is certified (no reduction) on some draws
        # and reduced on others; a change of basis keeps the path.
        certified = []
        for seed in range(40):
            problem = draw(seed, seed % 2 == 0, 1 + seed % 12)
            moved = change_basis(problem, random.Random(~seed))
            paths = {
                intlat._unit_invariant_factors(IntMatrix.vstack([p.M.embedding_free, p.N.embedding_free]))
                for p in (problem, moved)
            }
            assert len(paths) == 1
            certified += paths
        assert True in certified and False in certified
