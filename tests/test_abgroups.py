"""Abelian groups in invariant-factor normal form."""

import random

import pytest

from fibresum import (
    AbGroup,
    cokernel_presentation,
    direct_sum,
    normal_form,
)
from helpers import block_diag, random_matrix


class TestDirectSum:
    def test_free_plus_torsion(self):
        assert direct_sum(AbGroup(1), AbGroup(0, (2,))) == AbGroup(1, (2,))

    def test_crt_merges_coprime(self):
        assert direct_sum(AbGroup(0, (2,)), AbGroup(0, (3,))) == AbGroup(0, (6,))

    def test_chain_kept(self):
        assert direct_sum(AbGroup(0, (2,)), AbGroup(0, (4,))) == AbGroup(0, (2, 4))

    def test_commutative_associative(self):
        rng = random.Random(12)
        groups = [
            normal_form(rng.randint(0, 3), [rng.randint(2, 12) for _ in range(rng.randint(0, 3))])
            for _ in range(40)
        ]
        for g, h in zip(groups, groups[1:]):
            assert direct_sum(g, h) == direct_sum(h, g)
        for g, h, k in zip(groups, groups[1:], groups[2:]):
            assert direct_sum(direct_sum(g, h), k) == direct_sum(g, direct_sum(h, k))

    def test_matches_block_diagonal_cokernel(self):
        rng = random.Random(34)
        for _ in range(40):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 7)
            b = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 7)
            combined = cokernel_presentation(block_diag([a, b]))
            summed = direct_sum(cokernel_presentation(a), cokernel_presentation(b))
            assert combined == summed


class TestIsIsomorphic:
    """Groups in normal form are isomorphic iff they are ``==``."""

    def test_equal_free(self):
        assert normal_form(1, [0, 0, 1]) == AbGroup(3)

    def test_non_normal_form_flagged(self):
        # A hand-built value outside the normal form compares unequal to
        # the normal form of the same group, and is_normal_form says so.
        for torsion in ((2, 3), (4, 2), (1, 2), (0,)):
            assert not AbGroup(0, torsion).is_normal_form()
        assert AbGroup(0, (2, 3)) != AbGroup(0, (6,)) == normal_form(0, [2, 3])
        assert all(AbGroup(0, t).is_normal_form() for t in ((), (2,), (2, 4), (6, 12)))

    def test_distinguishes_torsion(self):
        assert AbGroup(1, (2,)) != AbGroup(1, (4,))


class TestConstructor:
    def test_negative_free_rank_rejected(self):
        # -1 is the boundary of the rule, and 0 the first value past it.
        with pytest.raises(ValueError, match="free rank must be nonnegative"):
            AbGroup(-1)
        assert AbGroup(0).free_rank == 0


class TestNormalForm:
    def test_drops_units_and_zeros(self):
        assert normal_form(0, [1, 1]) == AbGroup(0)
        assert normal_form(1, [0, 2]) == AbGroup(2, (2,))

    def test_regroups(self):
        assert normal_form(0, [4, 6]) == AbGroup(0, (2, 12))
        assert normal_form(0, [2, 2, 3]) == AbGroup(0, (2, 6))

    def test_large_prime_factor(self):
        p = 2**61 - 1
        assert normal_form(0, [p, 6, 4, 10]) == AbGroup(0, (2, 2, 60 * p))


class TestRendering:
    def test_examples(self):
        assert str(AbGroup(3, (2, 6))) == "Z^3 + Z/2 + Z/6"
        assert str(AbGroup(1)) == "Z"
        assert str(AbGroup(0)) == "0"
        assert str(AbGroup(0, (2,))) == "Z/2"
