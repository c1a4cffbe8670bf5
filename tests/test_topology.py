"""Oracles for how ``analyse`` assembles the sum from its sides.

The Mayer-Vietoris oracle computes H_1 of the sum from the two
complements and the gluing map on the boundary, without the presentation
of H_1 that ``analyse`` reads off the Smith form of S.  The metamorphic suite changes the bases of
H_1(M), H_1(N) and H_1(Sigma) and checks that no invariant of the report
moves.
"""

import dataclasses
import random
from collections import Counter

from fibresum import (
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    analyse,
    cli,
    cokernel_presentation,
    intlat,
    model,
    phi_action_h1,
)
from helpers import column, h1_case, make_side, random_problem_any, random_scope_problem, random_unimodular


def mayer_vietoris_h1(problem: FibreSumProblem):
    """H_1 of X = M° ∪ N°, glued along Sigma x S^1, as the cokernel of
    H_1(boundary) -> H_1(M°) + H_1(N°), x |-> i_M(x) - i_N(phi_* x).

    The generators of H_1(side°) are the side's free generators, its
    torsion generators and its meridian (of order k).  i_side sends
    gamma_j to column j of the side's free and torsion embedding and the
    meridian to the side's own meridian; phi_* x is column x of
    ``phi_action_h1``.  Each generator of finite order adds its order
    relation.
    """
    g = problem.genus
    n = 2 * g + 1  # the boundary basis gamma_1..gamma_2g, meridian

    def generators(side):
        """(order, images of the n boundary classes) per generator."""
        gens = [(0, row + [0]) for row in side.embedding_free.to_rows()]
        gens += [(m, list(row) + [0]) for m, row in side.embedding_torsion]
        gens.append((side.k, [0] * (2 * g) + [1]))
        return gens

    gens_m, gens_n = generators(problem.M), generators(problem.N)
    phi = phi_action_h1(g, problem.gluing.a)
    relations = []
    for x in range(n):
        image = column(phi, x)
        relations.append(
            [row[x] for _, row in gens_m]
            + [-sum(r * y for r, y in zip(row, image)) for _, row in gens_n]
        )
    orders = [order for order, _ in gens_m + gens_n]
    relations += [
        [order if j == i else 0 for j in range(len(orders))] for i, order in enumerate(orders) if order
    ]
    presentation = IntMatrix.from_rows(
        [[rel[i] for rel in relations] for i in range(len(orders))], cols=len(relations)
    )
    return cokernel_presentation(presentation)


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


def change_basis(problem: FibreSumProblem, rng: random.Random) -> FibreSumProblem:
    """The same sum in new bases U_M, U_N of H_1(M), H_1(N) and P of
    H_1(Sigma): S_side -> U_side S_side P, each torsion row r -> r P mod
    its order, a -> P^T a, and no t-vector."""
    two_g = 2 * problem.genus
    p = random_unimodular(rng, two_g)

    def side(s):
        torsion = tuple(
            (m, tuple(x % m for x in (IntMatrix(1, two_g, row) @ p).entries))
            for m, row in s.embedding_torsion
        )
        free = random_unimodular(rng, s.b1) @ s.embedding_free @ p
        return dataclasses.replace(s, embedding_free=free, embedding_torsion=torsion)

    a = (IntMatrix(1, two_g, problem.gluing.a) @ p).entries
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
            moved = change_basis(problem, random.Random(~seed))
            assert model.validate_problem(moved) == [], (seed, in_scope, entry_bound)
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
