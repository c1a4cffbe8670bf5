"""Kernel data, Betti numbers, first homology, rim tori, split classes,
and complement invariants."""

import dataclasses
import math
import random
from collections import Counter

import pytest

from fibresum import abgroups, cli, engine, intlat, model
from fibresum import (
    AbGroup,
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    analyse,
    complement_invariants,
    elliptic_surface,
)
from helpers import (
    elliptic_problem,
    full_presentation_h1,
    h1_case,
    identity,
    lemma_cokernels,
    make_side,
    random_problem_any,
    random_scope_problem,
)


def identity_embedding_side(name, genus, extra_b1=0):
    two_g = 2 * genus
    b1 = two_g + extra_b1
    rows = [[1 if i == j else 0 for j in range(two_g)] for i in range(b1)]
    return make_side(name, genus=genus, b1=b1, embedding=IntMatrix.from_rows(rows, cols=two_g))


class TestValidationGate:
    """A problem built by hand, which never passes through
    ``parse_problem``, cannot break a rule either: its constructor, or
    that of a side, refuses it with the rule's message before ``analyse``
    could see it.  A side's messages carry no ``M: `` prefix here."""

    E2 = elliptic_surface(2)

    @pytest.mark.parametrize(
        "build, messages",
        [
            # A side rule; the t-vector is also too long, and the side
            # is refused before d is known.
            (lambda E2: FibreSumProblem(
                M=dataclasses.replace(E2, K_squared=1), N=E2, gluing=GluingClass((0, 0)), t=(1, 2, 3)
            ), ["K_squared != 2e+3*sigma (needs 0, got 1)"]),
            (lambda E2: FibreSumProblem(M=E2, N=make_side("S", genus=2), gluing=GluingClass((0,) * 4)),
             ["genus mismatch: M has g=1, N has g=2"]),
            (lambda E2: FibreSumProblem(M=E2, N=E2, gluing=GluingClass((1, 0, 0))),
             ["gluing.a must have length 2g = 2, got 3"]),
            # At g = 2, 2g differs from 2 // g and from 2 + g.
            (lambda E2: FibreSumProblem(
                M=make_side("S", genus=2), N=make_side("S", genus=2), gluing=GluingClass((0, 0))
            ), ["gluing.a must have length 2g = 4, got 2"]),
            # One row past the kernel-check cap, 2^24 = 256 * 256^2, and a too short.
            (lambda E2: FibreSumProblem(
                M=make_side("M", genus=128, b1=200), N=make_side("N", genus=128, b1=57), gluing=GluingClass(())
            ), ["gluing.a must have length 2g = 256, got 0", "(b1(M) + b1(N)) * (2g)^2 = 257 * 256^2 = "
                "16842752 multiply-adds to check the kernel, more than 16777216"]),
        ],
        ids=["side_rule", "genus_mismatch", "gluing_length", "gluing_length_g2", "kernel_check_cap"],
    )
    def test_every_rule_refused(self, build, messages):
        with pytest.raises(model.DocumentError) as caught:
            build(self.E2)
        assert caught.value.messages == messages


class TestKernelData:
    def test_elliptic(self):
        kd = analyse(elliptic_problem(2, 3, a=(5, -1)))
        assert kd.d == 2
        assert kd.alpha_basis == IntMatrix.from_rows([[1, 0], [0, 1]])
        assert kd.a_adapted == (5, -1)

    def test_injective_embeddings(self):
        side = identity_embedding_side("I", genus=1)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass((0, 0)))
        kd = analyse(problem)
        assert kd.d == 0
        assert kd.alpha_basis == IntMatrix(0, 2, ())

    def test_mixed_rank(self):
        m_side = make_side("M", genus=1, b1=1, embedding=IntMatrix.from_rows([[1, 0]]))
        n_side = make_side("N", genus=1, b1=1, embedding=IntMatrix.from_rows([[0, 0]]))
        problem = FibreSumProblem(M=m_side, N=n_side, gluing=GluingClass((5, 7)))
        kd = analyse(problem)
        assert kd.d == 1
        assert kd.alpha_basis == IntMatrix.from_rows([[0, 1]])
        assert kd.a_adapted == (7,)


class TestBettiNumbers:
    def test_twisted_k3_sum(self):
        betti = analyse(elliptic_problem(2, 2, a=(3, 1))).betti
        assert (betti.b1, betti.b2, betti.b2_plus, betti.b2_minus) == (0, 46, 7, 39)
        assert (betti.e, betti.sigma, betti.d) == (48, -32, 2)

    def test_e1_e1_matches_k3(self):
        betti = analyse(elliptic_problem(1, 1)).betti
        assert betti.b2 == 22
        assert betti.b2_plus == 3

    def test_sphere_sections(self):
        side = make_side("S", genus=0, b2_plus=2, b2_minus=3)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass(()))
        betti = analyse(problem).betti
        assert betti.b1 == 0
        assert betti.d == 0
        assert betti.b2 == side.b2 + side.b2 - 2

    def test_euler_and_signature_add(self):
        # e and sigma are derived from b1 and b2+-; additivity is an
        # independent formula for each.
        rng = random.Random(0xADD)
        for _ in range(300):
            problem = random_problem_any(rng)
            M, N, betti = problem.M, problem.N, analyse(problem).betti
            assert betti.e == M.euler + N.euler + 4 * problem.genus - 4
            assert betti.sigma == M.signature + N.signature


class TestFirstHomology:
    def test_elliptic_simply_connected(self):
        for a in ((0, 0), (1, 0), (4, -7)):
            group = analyse(elliptic_problem(2, 3, a=a)).h1
            assert group == AbGroup(0)

    def test_divisible_surfaces_contribute_torsion(self):
        side = make_side("D", genus=1, k=2)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass((0, 0)))
        assert analyse(problem).h1 == AbGroup(0, (2,))

    def test_identity_embeddings_genus_two(self):
        side = identity_embedding_side("I", genus=2)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass((0, 0, 0, 0)))
        assert analyse(problem).h1 == AbGroup(4)

    def test_independent_of_gluing_when_coprime(self):
        rng = random.Random(41)
        for _ in range(25):
            problem = random_problem_any(rng)
            if math.gcd(problem.M.k, problem.N.k) != 1:
                continue
            base = analyse(problem).h1
            two_g = 2 * problem.genus
            for _ in range(3):
                other = FibreSumProblem(
                    M=problem.M,
                    N=problem.N,
                    gluing=GluingClass(tuple(rng.randint(-9, 9) for _ in range(two_g))),
                )
                assert analyse(other).h1 == base

    def test_gluing_matters_when_divisibilities_share_a_factor(self):
        # With both surface classes divisible by 2 the gluing pairing
        # enters mod 2: a unit entry kills the torsion summand.
        side = make_side("D", genus=1, k=2)
        glued = lambda a: FibreSumProblem(M=side, N=side, gluing=GluingClass(a))
        assert analyse(glued((0, 0))).h1 == AbGroup(0, (2,))
        assert analyse(glued((1, 0))).h1 == AbGroup(0)

    def test_torsion_embedding_reaches_target(self):
        # Embedding hitting the Z/4 factor of H_1(M) with index two.
        side = make_side(
            "T",
            genus=1,
            h1_torsion=(4,),
            embedding_torsion=((4, (2, 0)),),
        )
        trivial = make_side("S", genus=1)
        problem = FibreSumProblem(M=side, N=trivial, gluing=GluingClass((0, 0)))
        assert analyse(problem).h1 == AbGroup(0, (2,))

    def test_free_part_of_coker_kept_beside_torsion(self):
        # S = (0 0) has d = 2 and coker S = Z, free; the Z/2 of M survives
        # beside it, and the gluing kills the meridian.
        side = make_side(
            "T", genus=1, b1=1, embedding=IntMatrix.from_rows([[0, 0]]), h1_torsion=(2,)
        )
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((1, 0)))
        assert analyse(problem).d == 2
        assert analyse(problem).h1 == full_presentation_h1(problem) == AbGroup(1, (2,))

    def test_presentation_r_matches_full_presentation(self):
        # analyse reads H_1 off coker S and the presentation R built from
        # the Smith form of S, or off the orders alone when R is diagonal;
        # the full presentation must agree on every kind of draw, so a
        # block of R built wrong, or a diagonal read where it is not,
        # shows too.
        rng = random.Random(2026)
        draws = [random_scope_problem(rng, with_t=False) for _ in range(300)]
        draws += [random_problem_any(rng) for _ in range(300)]
        qualifying = 0
        cases = Counter()
        for problem in draws:
            M, N = problem.M, problem.N
            qualifying += not M.h1_torsion and not N.h1_torsion and math.gcd(M.k, N.k) == 1
            assert analyse(problem).h1 == full_presentation_h1(problem)
            cases[h1_case(analyse(problem))] += 1
        assert qualifying >= 300
        assert cases["b0"] >= 100 and cases["b+"] >= 50 and cases["c"] >= 30


class TestFirstCohomologyRank:
    def test_elliptic(self):
        assert analyse(elliptic_problem(2, 2)).h1_cohom_rank == 0

    def test_identity_embeddings(self):
        side = identity_embedding_side("I", genus=1)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass((0, 0)))
        assert analyse(problem).h1_cohom_rank == 2

    def test_genus_zero(self):
        side = make_side("S", genus=0, b1=2)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass(()))
        assert analyse(problem).h1_cohom_rank == 4

    def test_matches_betti_b1(self):
        rng = random.Random(4242)
        for _ in range(40):
            problem = random_problem_any(rng)
            assert analyse(problem).h1_cohom_rank == analyse(problem).betti.b1


class TestRimToriGroup:
    def test_elliptic(self):
        assert analyse(elliptic_problem(3, 2)).rim_tori == AbGroup(2)

    def test_surjective_restriction(self):
        side = identity_embedding_side("I", genus=1)
        other = make_side("O", genus=1)
        problem = FibreSumProblem(M=side, N=other, gluing=GluingClass((0, 0)))
        assert analyse(problem).rim_tori == AbGroup(0)

    def test_genus_zero(self):
        side = make_side("S", genus=0)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass(()))
        assert analyse(problem).rim_tori == AbGroup(0)

    def test_free_rank_is_d(self):
        rng = random.Random(55)
        for _ in range(40):
            problem = random_problem_any(rng)
            assert analyse(problem).rim_tori.free_rank == analyse(problem).d


class TestSplitClasses:
    def test_indivisible_normal_form(self):
        basis = analyse(elliptic_problem(2, 2, a=(3, 0))).split_classes
        flat = [(c.b_m, c.b_n, c.alpha) for c in basis]
        assert flat == [(1, -1, (0, 0)), (0, 3, (1, 0)), (0, 0, (0, 1))]

    def test_zero_gluing(self):
        basis = analyse(elliptic_problem(2, 2, a=(0, 0))).split_classes
        flat = [(c.b_m, c.b_n, c.alpha) for c in basis]
        assert flat == [(1, -1, (0, 0)), (0, 0, (1, 0)), (0, 0, (0, 1))]

    def test_divisible_classes(self):
        m_side = make_side(
            "M2", genus=1, b1=2, embedding=identity(2), k=2
        )
        n_side = make_side(
            "N3", genus=1, b1=2, embedding=identity(2), k=3
        )
        problem = FibreSumProblem(M=m_side, N=n_side, gluing=GluingClass((0, 0)))
        basis = analyse(problem).split_classes
        assert [(c.b_m, c.b_n, c.alpha) for c in basis] == [(3, -2, ())]

    def test_rank_and_defining_equation(self):
        rng = random.Random(77)
        for _ in range(40):
            problem = random_problem_any(rng)
            kd = analyse(problem)
            basis = analyse(problem).split_classes
            assert len(basis) == kd.d + 1
            for c in basis:
                pairing = sum(x * y for x, y in zip(kd.a_adapted, c.alpha))
                assert c.b_m * problem.M.k + c.b_n * problem.N.k - pairing == 0

    def test_divisible_basis_is_the_reduced_kernel(self):
        # The extended-gcd basis equals the canonical kernel basis that a
        # Smith reduction of the defining equation gives, including zero,
        # large and repeated entries.
        rng = random.Random("split-classes")
        for _ in range(300):
            k_m, k_n = rng.randint(1, 12), rng.randint(2, 12)
            if rng.randrange(2):
                k_m, k_n = k_n, k_m
            bound = rng.choice([0, 3, 10**12])
            a = tuple(rng.randint(-bound, bound) for _ in range(rng.randint(0, 6)))
            equation = IntMatrix.from_rows([[k_m, k_n, *(-x for x in a)]])
            kernel = intlat.kernel_and_cokernel(equation)[0]
            basis = [(c.b_m, c.b_n, *c.alpha) for c in engine._split_classes(k_m, k_n, a)]
            assert basis == [tuple(v) for v in kernel.to_rows()]

    def test_labels(self):
        basis = analyse(elliptic_problem(2, 2, a=(3, 0))).split_classes
        assert basis[0].label() == "B_M - B_N"
        assert basis[1].label() == "3*B_N + alpha_1"
        assert basis[2].label() == "alpha_2"


# Genus-2 embeddings with b1 = 2g: stacked, each pair has every invariant
# factor 1.  The certificate's minors of the first pair reach gcd 1; those
# of the second stall at 3, so it needs its modular pass; those of the
# third stall at 6, so that pass splits 6 into 2 and 3.
LADDER_EMBEDDINGS = {
    "coprime_minors": (
        [[1, 2, -3, -2], [2, 2, 3, -1], [-3, 2, -1, 2], [2, 1, 0, 1]],
        [[3, 2, -2, -1], [-1, 1, 0, 3], [1, 0, 1, 3], [-3, 0, -2, 2]],
    ),
    "common_minor_factor": (
        [[-2, 1, 3, 3], [3, -3, -1, -3], [0, 3, 0, 0], [2, 0, 3, -2]],
        [[-3, 0, -3, 3], [0, 0, 1, 3], [3, -3, 2, 0], [-1, 2, 3, -2]],
    ),
    "two_prime_gcd": (
        [[-3, -3, -1, 1], [0, 0, 3, 1], [-3, -3, -2, -2], [3, 0, -3, 0]],
        [[1, -3, -1, 1], [3, 2, 0, 1], [-3, -3, -2, 0], [3, 3, 1, 0]],
    ),
}


def ladder_problem(m_rows, n_rows):
    sides = [
        make_side(name, genus=2, b1=4, b2_plus=3, embedding=IntMatrix.from_rows(rows))
        for name, rows in (("M", m_rows), ("N", n_rows))
    ]
    return FibreSumProblem(M=sides[0], N=sides[1], gluing=GluingClass((1, 0, -2, 3)))


class TestSmithBudget:
    """Reductions per call, counted in the one pivot loop whichever public
    wrapper runs it: one of the stacked embedding S per report, or none
    when it is injective with every invariant factor 1 (certified without
    reducing, as on the genus ladder; the E(n) sides have b1 = 0, so their
    S is wide and always reduced); for H_1, none when the presentation R
    read off the Smith form of S is diagonal (always so when neither side
    has H_1 torsion and gcd(k_M, k_N) = 1), else one of R, whose shape
    (|tau| + |T'|) x (|tau| + d + |T'|) is never that of the full
    presentation; none for the split classes, whose basis comes from
    extended gcds; none for a complement, whose rank comes from an
    elimination; and none in parsing, with or without a t-vector."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []
        original = intlat._reduce

        def counting(A, *args, **kwargs):
            shapes.append((A.rows, A.cols))
            return original(A, *args, **kwargs)

        monkeypatch.setattr(intlat, "_reduce", counting)
        return shapes

    def test_in_scope_report(self, calls):
        report = cli.build_report(elliptic_problem(2, 3, a=(1, 0)))
        assert "block_form" in report["forms"]
        assert len(calls) == 1

    def test_gated_report(self, calls):
        side = make_side("T", genus=1, h1_torsion=(2,), embedding_torsion=((2, (0, 0)),))
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0)))
        assert "skipped" in cli.build_report(problem)["forms"]
        # S of E(2) is wide and reduced; the Z/2 row maps to 0, so R is
        # diagonal.
        assert len(calls) == 1

    def test_gated_report_torsion_in_coker(self, calls):
        # S = (2 0): d = 1 and coker S = Z/2, lifted by (1, 0), which the
        # Z/2 generator of M pairs to 1.  So R = [[2, 0, 0], [1, 0, 2]],
        # and H_1 = Z/4 does not split over coker S.  The full
        # presentation would be 3 x 4.
        side = make_side(
            "T", genus=1, b1=1, embedding=IntMatrix.from_rows([[2, 0]]),
            h1_torsion=(2,), embedding_torsion=((2, (1, 0)),),
        )
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0)))
        report = cli.build_report(problem)
        assert report["h1"]["torsion"] == [4]
        assert report["rim_tori"]["torsion"] == [2]
        assert calls == [(1, 2), (2, 3)]

    def test_gated_report_certified(self, calls):
        # S = I_2 is certified, d = 0 and coker S = 0 is free, so H_1 is
        # read off the orders; indivisible surfaces need no split-class
        # reduction.
        side = make_side(
            "T", genus=1, b1=2, embedding=identity(2), h1_torsion=(2,), embedding_torsion=((2, (1, 0)),)
        )
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((1, 0)))
        report = cli.build_report(problem)
        assert "skipped" in report["forms"]
        assert report["h1"]["torsion"] == [2]
        assert len(calls) == 0

    def test_gated_report_divisible_surface(self, calls):
        side = make_side("D", genus=1, k=2)
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0)))
        assert "skipped" in cli.build_report(problem)["forms"]
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", sorted(LADDER_EMBEDDINGS))
    def test_ladder_report_certified(self, calls, kind):
        report = cli.build_report(ladder_problem(*LADDER_EMBEDDINGS[kind]))
        assert "block_form" in report["forms"]
        assert report["betti"]["d"] == 0
        assert report["h1"] == {"free_rank": 4, "torsion": [], "rendered": "Z^4"}
        assert len(calls) == 0

    def test_ladder_report_two_prime_gcd(self, calls, monkeypatch):
        moduli = []
        original = intlat._full_rank_modulo

        def spy(A, delta, *args):
            moduli.append(delta)
            return original(A, delta, *args)

        monkeypatch.setattr(intlat, "_full_rank_modulo", spy)
        report = cli.build_report(ladder_problem(*LADDER_EMBEDDINGS["two_prime_gcd"]))
        assert report["betti"]["d"] == 0
        assert moduli == [6, 3, 2]
        assert len(calls) == 0

    def test_ladder_report_with_factor_two(self, calls):
        # Doubling the first coordinate makes one invariant factor 2.
        m_rows, n_rows = (
            [[2 * row[0], *row[1:]] for row in rows]
            for rows in LADDER_EMBEDDINGS["common_minor_factor"]
        )
        report = cli.build_report(ladder_problem(m_rows, n_rows))
        assert report["h1"]["torsion"] == [2]
        assert "skipped" in report["forms"]
        assert len(calls) == 1

    def test_complement_invariants(self, calls):
        complement_invariants(make_side("T", genus=1, h1_torsion=(2,), embedding_torsion=((2, (0, 0)),)))
        assert len(calls) == 0

    DOC_WITH_T = {"M": {"catalog": "E", "n": 2}, "N": {"catalog": "E", "n": 3},
                  "gluing": {"a": [1, 0]}, "t": [1, 0]}

    def test_parse_with_t(self, calls):
        model.parse_problem(self.DOC_WITH_T)
        assert len(calls) == 0

    def test_report_with_t(self, calls):
        report = cli.build_report(model.parse_problem(self.DOC_WITH_T))
        assert report["forms"]["canonical_class"]["t_coeffs"] == [1, 0]
        assert len(calls) == 1


class TestIntegerCheckBudget:
    """Values that pass the integer rule ``as_ints`` from parsing a genus-10
    ladder document to ``analyse``: each embedding entry once, in the
    ``IntMatrix`` constructor that ``parse_side`` calls, and the stacked
    embedding S not at all, since ``vstack`` joins matrices whose entries
    were checked already."""

    @pytest.fixture
    def scans(self, monkeypatch):
        scans = []
        original = abgroups.as_ints

        def counting(values, what):
            values = tuple(values)
            scans.append((what, len(values)))
            return original(values, what)

        for module in (abgroups, intlat, model):
            monkeypatch.setattr(module, "as_ints", counting)
        return scans

    def test_ladder_entries_scanned_once(self, scans):
        genus, b1 = 10, 20
        rng = random.Random(10)
        sides = [
            make_side(name, genus=genus, b1=b1, b2_plus=3, embedding=IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(2 * genus)] for _ in range(b1)]
            ))
            for name in "MN"
        ]
        gluing = GluingClass(tuple(rng.randint(-10, 10) for _ in range(2 * genus)))
        document = model.problem_to_dict(FibreSumProblem(M=sides[0], N=sides[1], gluing=gluing))
        scans.clear()
        analysis = analyse(model.parse_problem(document))
        # S is injective with every invariant factor 1, so no matrix but the
        # two embeddings holds an entry.
        assert (analysis.d, analysis.rim_tori) == (0, AbGroup(0))
        entries = 2 * b1 * 2 * genus
        assert sum(n for what, n in scans if what == "matrix entries") == entries
        assert not [what for what, _ in scans if "embedding_free" in what]
        # Every other value checked is one of the few scalars, the gluing
        # vector and the groups built from S.
        assert sum(n for _, n in scans) - entries < 100

    def test_omitted_rows_not_scanned(self, scans):
        # The zero rows a document omits are built, not read, so no entry
        # of them passes the integer rule.
        side = {"name": "S", "b1": 20, "b2_plus": 3, "b2_minus": 2, "K_squared": -63,
                "K_dot_B": 0, "B_squared": 0, "genus": 10, "k": 1}
        problem = model.parse_problem({"M": side, "N": side, "gluing": {"a": [0] * 20}})
        assert not [n for what, n in scans if what == "matrix entries" and n]
        assert problem.M.embedding_free.to_rows() == [[0] * 20] * 20


class TestComplementInvariants:
    def test_elliptic_fibre(self):
        inv = complement_invariants(elliptic_surface(2))
        assert inv.h1 == AbGroup(0)
        assert inv.ker_i_rank == 2
        assert inv.h2_rank == 23
        assert inv.h2_torsion == ()

    def test_divisible_class(self):
        side = make_side("D", genus=1, k=2)
        inv = complement_invariants(side)
        assert inv.h1 == AbGroup(0, (2,))
        assert inv.h2_torsion == (2,)

    def test_sphere(self):
        side = make_side("S", genus=0, b2_plus=1, b2_minus=1)
        inv = complement_invariants(side)
        assert inv.h1 == AbGroup(0)
        assert inv.ker_i_rank == 0
        assert inv.h2_rank == 1

    def test_rank_deficient_embedding(self):
        # The embedding has rank 2 (its second row is twice the first), so
        # two of the four curves on the push-off bound in the complement.
        rows = [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 3, 0]]
        side = make_side("R", genus=2, b1=3, embedding=IntMatrix.from_rows(rows))
        inv = complement_invariants(side)
        assert inv.ker_i_rank == 2
        assert inv.h2_rank == side.b2 - 1 + 2

    def test_torsion_merges(self):
        side = make_side(
            "T", genus=1, b1=1, h1_torsion=(3,), embedding_torsion=((3, (0, 0)),), k=2
        )
        inv = complement_invariants(side)
        assert inv.h1 == AbGroup(1, (6,))
        assert inv.h1_cohom_rank == 1
        assert inv.h2_torsion == (6,)


class TestStructuralProperties:
    def test_rank_bookkeeping(self):
        rng = random.Random(60)
        for _ in range(40):
            problem = random_problem_any(rng)
            d = analyse(problem).d
            total = 2 * (d + 1) + (problem.M.b2 - 2) + (problem.N.b2 - 2)
            assert total == analyse(problem).betti.b2

    def test_cokernel_lemma(self):
        rng = random.Random(2024)
        for _ in range(40):
            lhs, rhs = lemma_cokernels(rng)
            assert lhs == rhs
