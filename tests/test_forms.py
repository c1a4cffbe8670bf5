"""Scope gate, canonical class, block form, classification, divisibility,
cross-checks, and the second-cohomology embeddings."""

import dataclasses
import random
import re

import pytest

from fibresum import cli, engine
from fibresum import (
    DocumentError,
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    ScopeError,
    FormClass,
    analyse,
    elliptic_surface,
    embed_h2,
    parse_problem,
    sum_forms,
)
from helpers import elliptic_problem, make_side, random_scope_problem


def x_mnp(m, n, p, t=None):
    """Twisted sum of two elliptic surfaces with gluing vector (p, 0)."""
    return elliptic_problem(m, n, a=(p, 0), t=t)


def forms_of(problem):
    return sum_forms(analyse(problem))


def genus_two_problem():
    side = make_side("G2", genus=2, b1=2, b2_plus=5, b2_minus=5, K_dot_B=2, B_squared=0)
    return FibreSumProblem(M=side, N=side, gluing=GluingClass((0, 0, 0, 0)))


class TestScopeGate:
    def test_elliptic_in_scope(self):
        assert analyse(elliptic_problem(2, 2)).scope_violations == ()

    def test_divisible_class_gated(self):
        side = make_side("D", genus=1, k=2)
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0)))
        assert any("divisible" in v for v in analyse(problem).scope_violations)

    def test_side_torsion_gated(self):
        side = make_side("T", genus=1, h1_torsion=(2,), embedding_torsion=((2, (0, 0)),))
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0)))
        assert any("torsion" in v for v in analyse(problem).scope_violations)

    def test_sum_torsion_gated(self):
        # Torsion-free sides whose sum acquires Z/2 from an even embedding.
        side = make_side("M", genus=1, b1=1, embedding=IntMatrix.from_rows([[2, 0]]))
        other = make_side("N", genus=1)
        problem = FibreSumProblem(M=side, N=other, gluing=GluingClass((0, 0)))
        assert any("sum has torsion" in v for v in analyse(problem).scope_violations)

    def test_one_evaluation_per_report(self, monkeypatch):
        verdicts = []
        original = engine._scope_violations

        def counting(*args):
            verdicts.append(original(*args))
            return verdicts[-1]

        monkeypatch.setattr(engine, "_scope_violations", counting)
        report = cli.build_report(elliptic_problem(2, 3, a=(1, 0)))
        assert "block_form" in report["forms"]
        assert verdicts == [()]

    def test_gated_operations_raise(self):
        side = make_side("D", genus=1, k=2)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass((0, 0)))
        with pytest.raises(ScopeError):
            sum_forms(analyse(problem))
        with pytest.raises(ScopeError):
            embed_h2(analyse(problem), (0, 0, 1), "M")

    @pytest.mark.parametrize(
        "side",
        [
            make_side("D", genus=1, k=2),
            make_side("T", genus=1, h1_torsion=(2,), embedding_torsion=((2, (0, 0)),)),
            make_side("M", genus=1, b1=1, embedding=IntMatrix.from_rows([[2, 0]])),
        ],
        ids=["divisible", "side_torsion", "sum_torsion"],
    )
    def test_sum_forms_raises_on_every_gate(self, side):
        analysis = analyse(FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0))))
        assert analysis.scope_violations
        with pytest.raises(ScopeError) as info:
            sum_forms(analysis)
        assert info.value.violations == list(analysis.scope_violations)


class TestCanonicalClass:
    def test_twisted_elliptic(self):
        cc = forms_of(x_mnp(2, 3, 1)).canonical_class
        assert cc.r_coeffs == (-2, 0)
        assert cc.sigma_coeff == 3
        assert cc.b_coeff == 0
        assert (cc.eta, cc.eta_prime) == (1, 2)
        assert cc.kbar_m_sq == 0 and cc.kbar_n_sq == 0
        assert cc.s_coeffs == (0, 0)

    def test_untwisted_torus_sum(self):
        cc = forms_of(elliptic_problem(3, 2, a=(0, 0), t=(0, 0))).canonical_class
        assert cc.r_coeffs == (0, 0)
        assert cc.b_coeff == 0

    def test_genus_two_coefficients(self):
        cc = forms_of(genus_two_problem()).canonical_class
        assert cc.b_coeff == 2
        assert cc.eta == 3 and cc.eta_prime == 3
        assert cc.sigma_coeff == 6

    def test_basis_change_identity(self):
        problem = x_mnp(4, 3, 2, t=(5, -1))
        cc = forms_of(problem).canonical_class
        assert cc.sigma_coeff == cc.eta + cc.eta_prime
        assert cc.r_coeffs == (5 - 2 * cc.eta_prime, -1)


class TestCanonicalSquare:
    def test_twisted_elliptic(self):
        problem = x_mnp(2, 3, 1)
        check = forms_of(problem).k_squared
        assert check.lhs == 0 and check.rhs == 0 and check.ok

    def test_genus_two(self):
        problem = genus_two_problem()
        check = forms_of(problem).k_squared
        assert check.lhs == 40 and check.rhs == 40

    def test_torus_sums_add_squares(self):
        problem = elliptic_problem(3, 4, a=(0, 0))
        check = forms_of(problem).k_squared
        assert check.lhs == problem.M.K_squared + problem.N.K_squared


class TestBlockForm:
    def test_untwisted_k3_sum(self):
        problem = elliptic_problem(2, 2, a=(0, 0))
        bf = forms_of(problem).block_form
        assert (bf.pm_block.rank, bf.pm_block.signature, bf.pm_block.parity) == (20, -16, "even")
        assert bf.pair_s_sq_parities == (0, 0)
        assert bf.nucleus_b_sq == -4
        assert bf.rank == 46 and bf.signature == -32

    def test_twisted_parities(self):
        problem = elliptic_problem(2, 2, a=(1, 0))
        bf = forms_of(problem).block_form
        assert bf.pair_s_sq_parities == (1, 0)

    def test_genus_zero_has_no_pair_blocks(self):
        side = make_side("S", genus=0, b2_plus=2, b2_minus=2)
        problem = FibreSumProblem(M=side, N=side, gluing=GluingClass(()))
        bf = forms_of(problem).block_form
        assert bf.pair_s_sq_parities == ()


def side_sum(genus, M, N, a=None):
    """The sum of two sides made by ``make_side`` from ``(b2_plus, b2_minus,
    p_parity, B_squared)``, glued by ``a`` (zero by default)."""
    sides = [
        make_side(name, genus=genus, b2_plus=bp, b2_minus=bm, p_parity=parity, K_dot_B=bsq, B_squared=bsq)
        for name, (bp, bm, parity, bsq) in (("M", M), ("N", N))
    ]
    return FibreSumProblem(M=sides[0], N=sides[1], gluing=GluingClass(a or (0,) * (2 * genus)))


# Sides at the edge of a side's rules: b2+ = 1 or b2- = 1, and
# even forms with sigma = +-8.
BOUNDARY_SIDES = [
    (1, 1, "even", 0),
    (1, 1, "odd", -1),
    (9, 1, "even", 0),
    (1, 9, "even", -2),
    (1, 4, "odd", 1),
    (6, 1, "odd", 0),
]


def assert_classified(analysis):
    """The class of an in-scope sum exists and is consistent: b2+ and b2-
    at least 1 + d, rank + signature even, an even form has signature divisible
    by 8, rank and signature are the Betti numbers', and the decomposition
    spells a form of that rank and signature."""
    fc = sum_forms(analysis).form_class
    assert isinstance(fc, FormClass)
    assert (fc.rank, fc.signature) == (analysis.betti.b2, analysis.betti.sigma)
    assert (fc.rank + fc.signature) % 2 == 0
    b2_plus = (fc.rank + fc.signature) // 2
    assert min(b2_plus, fc.rank - b2_plus) >= 1 + analysis.d
    if fc.parity == "odd":
        assert fc.decomposition == f"{b2_plus}<+1> + {fc.rank - b2_plus}<-1>"
    else:
        assert fc.parity == "even" and fc.signature % 8 == 0
        h, e8, sign = re.fullmatch(r"(\d+)H(?: \+ (\d+)E8\(([+-])1\))?", fc.decomposition).groups()
        e8_rank = 8 * int(e8 or 0)
        assert (2 * int(h) + e8_rank, e8_rank if sign == "+" else -e8_rank) == (fc.rank, fc.signature)
    return fc


class TestClassifyForm:
    def test_even_sum(self):
        problem = elliptic_problem(2, 2, a=(0, 0))
        fc = forms_of(problem).form_class
        assert fc.parity == "even"
        assert fc.decomposition == "7H + 4E8(-1)"

    def test_odd_sum(self):
        problem = elliptic_problem(2, 2, a=(1, 0))
        fc = forms_of(problem).form_class
        assert fc.parity == "odd"
        assert fc.decomposition == "7<+1> + 39<-1>"

    def test_nucleus_only_hyperbolic(self):
        # Two genus-0 sides with b2+ = b2- = 1: only the nucleus is left.
        fc = assert_classified(analyse(side_sum(0, (1, 1, "even", -2), (1, 1, "even", -2))))
        assert (fc.rank, fc.parity, fc.decomposition) == (2, "even", "1H")

    def test_unknown_parity_rejected(self):
        unknown = dataclasses.replace(elliptic_surface(2), p_parity="unknown")
        for side in ("M", "N"):
            problem = dataclasses.replace(elliptic_problem(2, 2), **{side: unknown})
            assert forms_of(problem).form_class == f"p_parity of side {side} is unknown; classification needs it"

    def test_positive_signature_even_form(self):
        fc = assert_classified(analyse(side_sum(0, (9, 1, "even", 0), (1, 1, "even", 0))))
        assert (fc.rank, fc.signature, fc.decomposition) == (10, 8, "1H + 1E8(+1)")

    def test_random_sums_are_classified(self):
        rng = random.Random(2828)
        parities = [assert_classified(analyse(random_scope_problem(rng))).parity for _ in range(150)]
        assert "even" in parities and "odd" in parities

    def test_boundary_sums_are_classified(self):
        classes = set()
        for M in BOUNDARY_SIDES:
            for N in BOUNDARY_SIDES:
                for genus, a in ((0, ()), (1, (0, 0)), (1, (1, 0)), (1, (2, 1))):
                    analysis = analyse(side_sum(genus, M, N, a))
                    assert analysis.scope_violations == ()
                    fc = assert_classified(analysis)
                    classes.add((fc.parity, fc.decomposition))
        # Both E8 signs, a form with no E8, and odd forms are among them.
        assert {("even", "1H"), ("even", "1H + 1E8(+1)"), ("even", "1H + 1E8(-1)")} <= classes
        assert any(parity == "odd" for parity, _ in classes)

    NUCLEUS_PARITY = "K_dot_B = B_squared (mod 2) required since K is characteristic (got 1 vs 0)"

    def test_nucleus_parity_is_bad_input(self):
        # K.B - B^2 odd breaks a side's characteristic rule; summed with
        # E(2), the odd difference would land on the nucleus.
        side = {"name": "P", "b1": 0, "b2_plus": 2, "b2_minus": 2, "K_squared": 12,
                "K_dot_B": 1, "B_squared": 0, "genus": 1, "k": 1, "p_parity": "odd"}
        with pytest.raises(DocumentError) as caught:
            parse_problem({"M": side, "N": {"catalog": "E", "n": 2}, "gluing": {"a": [0, 0]}})
        assert caught.value.messages == [f"M: {self.NUCLEUS_PARITY}"]

    @pytest.mark.parametrize("parity", ["odd", "unknown"])
    def test_sum_forms_checks_the_nucleus(self, parity):
        # A sum_forms call on such a side is refused: the rule is checked
        # when the side is built, before any form, so an unknown p_parity
        # does not mask it.
        with pytest.raises(DocumentError) as caught:
            forms_of(FibreSumProblem(
                make_side("P", genus=1, K_dot_B=1, p_parity=parity), make_side("N", genus=1), GluingClass((0, 0))
            ))
        assert caught.value.messages == [self.NUCLEUS_PARITY]


class TestDivisibility:
    def test_untwisted_k3_sum(self):
        problem = elliptic_problem(2, 2, a=(0, 0))
        div = forms_of(problem).divisibility
        assert div.value == 2 and div.exact

    @pytest.mark.parametrize("a", [(1, 0), (3, 5), (1, 1)])
    def test_odd_gluing_indivisible(self, a):
        problem = elliptic_problem(2, 2, a=a)
        assert forms_of(problem).divisibility.value == 1

    def test_even_gluing(self):
        problem = elliptic_problem(2, 2, a=(2, 0))
        sf = forms_of(problem)
        assert sf.canonical_class.r_coeffs == (-2, 0)
        assert sf.divisibility.value == 2

    def test_zero_canonical_class(self):
        # E(1)#E(1) with trivial gluing produces the zero canonical class,
        # which is divisible by every integer: the coefficient gcd is 0.
        problem = elliptic_problem(1, 1, a=(0, 0))
        div = forms_of(problem).divisibility
        assert div.value == 0 and div.exact

    def test_unknown_kbar_gives_bound_only(self):
        side = dataclasses.replace(elliptic_surface(2), kbar_divisibility=None)
        problem = FibreSumProblem(M=side, N=elliptic_surface(2), gluing=GluingClass((0, 0)))
        div = forms_of(problem).divisibility
        assert not div.exact
        assert div.value == 2


class TestIonelParkerChecks:
    def test_twisted_elliptic(self):
        problem = x_mnp(2, 3, 1)
        lines = forms_of(problem).ionel_parker
        assert [line.lhs for line in lines] == [3, 0, 0]
        assert all(line.ok for line in lines)

    def test_genus_two(self):
        problem = genus_two_problem()
        lines = forms_of(problem).ionel_parker
        assert lines[0].lhs == lines[0].rhs == 2 + 2 + 2
        assert lines[1].lhs == 2


class TestEmbedH2:
    def test_surface_class_maps_to_push_off(self):
        problem = elliptic_problem(2, 2)
        record = embed_h2(analyse(problem), (0, 0, 1), "M")
        assert (record.b_x, record.sigma) == (0, 1)
        assert record.sigma_basis == "Sigma_X"

    def test_canonical_class_of_e3(self):
        problem = elliptic_problem(3, 2)
        record = embed_h2(analyse(problem), (0, 0, 1), "M")
        assert (record.perp, record.b_x, record.sigma) == (0, 0, 1)

    def test_dual_class(self):
        problem = elliptic_problem(2, 2)
        record = embed_h2(analyse(problem), (0, 1, -2), "N")
        assert (record.b_x, record.sigma) == (1, 0)
        assert record.sigma_basis == "Sigma_X_prime"

    def test_each_side_reads_its_own_dual_square(self):
        # E(2) has B^2 = -2 and E(3) has B^2 = -3, so the push-off
        # coefficient tells which side's square was read.
        analysis = analyse(elliptic_problem(2, 3))
        assert embed_h2(analysis, (0, 1, 5), "M").sigma == 5 + 2
        assert embed_h2(analysis, (0, 1, 5), "N").sigma == 5 + 3

    def test_side_argument_checked(self):
        problem = elliptic_problem(2, 2)
        with pytest.raises(ValueError, match="side"):
            embed_h2(analyse(problem), (0, 0, 1), "Q")


class TestSwapSymmetry:
    def test_swap_exchanges_eta_and_kbar(self):
        rng = random.Random(505)
        for _ in range(25):
            problem = random_scope_problem(rng, with_t=False)
            zero_a = GluingClass((0,) * (2 * problem.genus))
            problem = FibreSumProblem(M=problem.M, N=problem.N, gluing=zero_a)
            swapped = FibreSumProblem(M=problem.N, N=problem.M, gluing=zero_a)
            cc = forms_of(problem).canonical_class
            cs = forms_of(swapped).canonical_class
            assert (cc.eta, cc.eta_prime) == (cs.eta_prime, cs.eta)
            assert (cc.kbar_m_sq, cc.kbar_n_sq) == (cs.kbar_n_sq, cs.kbar_m_sq)
            assert cc.sigma_coeff == cs.sigma_coeff

    def test_swap_negates_t(self):
        problem = x_mnp(3, 3, 0, t=(4, -2))
        swapped = FibreSumProblem(
            M=problem.N, N=problem.M, gluing=problem.gluing, t=(-4, 2)
        )
        cc = forms_of(problem).canonical_class
        cs = forms_of(swapped).canonical_class
        assert cs.r_coeffs == tuple(-r for r in cc.r_coeffs)
        assert cs.sigma_coeff == cc.sigma_coeff


class TestRandomizedIdentities:
    def test_canonical_square_and_totals(self):
        rng = random.Random(616)
        for _ in range(60):
            problem = random_scope_problem(rng)
            sf = forms_of(problem)
            assert sf.k_squared.ok
            assert sf.block_form.rank >= 2
