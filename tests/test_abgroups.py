"""Abelian groups in invariant-factor normal form."""

import random

import pytest

from fibresum import (
    AbGroup,
    cokernel_presentation,
    direct_sum,
    is_isomorphic,
    is_torsion_free,
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
            assert is_isomorphic(combined, summed)


class TestIsIsomorphic:
    def test_equal_free(self):
        assert is_isomorphic(AbGroup(3), AbGroup(3))

    def test_rejects_non_normal_form(self):
        with pytest.raises(ValueError, match="normal form"):
            is_isomorphic(AbGroup(0, (6,)), AbGroup(0, (2, 3)))

    def test_distinguishes_torsion(self):
        assert not is_isomorphic(AbGroup(1, (2,)), AbGroup(1, (4,)))


class TestIsTorsionFree:
    def test_free(self):
        assert is_torsion_free(AbGroup(4))

    def test_torsion(self):
        assert not is_torsion_free(AbGroup(0, (2,)))

    def test_trivial(self):
        assert is_torsion_free(AbGroup(0))


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
