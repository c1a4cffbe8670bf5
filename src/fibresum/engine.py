"""Homology-level computations for a fibre-sum problem.

Everything here reduces to exact kernel/cokernel computations over Z:
the Betti numbers of the sum, its first homology as the cokernel of the
combined embedding-plus-gluing map, the rim-tori and split-class groups,
and the invariants of a single complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import abgroups, intlat, model
from .abgroups import AbGroup
from .intlat import IntMatrix
from .model import BettiNumbers, FibreSumProblem, ManifoldSide

__all__ = [
    "ComplementInvariants",
    "SplitClass",
    "SumAnalysis",
    "analyse",
    "complement_invariants",
]


@dataclass(frozen=True)
class ComplementInvariants:
    """Homology of the complement of the surface in one closed side."""

    h1: AbGroup
    h1_cohom_rank: int
    h2_rank: int
    h2_torsion: tuple[int, ...]
    ker_i_rank: int


@dataclass(frozen=True)
class SplitClass:
    """An element ``b_m*B_M + b_n*B_N + sum(alpha_i * alpha-basis)``."""

    b_m: int
    b_n: int
    alpha: tuple[int, ...]

    def label(self) -> str:
        terms: list[str] = []
        for coeff, symbol in [(self.b_m, "B_M"), (self.b_n, "B_N")] + [
            (c, f"alpha_{i + 1}") for i, c in enumerate(self.alpha)
        ]:
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = symbol if mag == 1 else f"{mag}*{symbol}"
            if not terms:
                terms.append(body if sign == "+" else f"-{body}")
            else:
                terms.append(f"{sign} {body}")
        return " ".join(terms) if terms else "0"


@dataclass(frozen=True)
class SumAnalysis:
    """The homology of one fibre sum, computed once by :func:`analyse`.

    ``alpha_basis`` is the d x 2g matrix whose rows are the canonical
    saturated basis of the kernel of the stacked embedding, in gamma
    coordinates; every t-vector and the adapted gluing vector
    ``a_adapted`` (pairings of the gluing class with the basis vectors)
    are expressed in its ordering.  ``h1_cohom_rank`` is the rank of H^1
    of the sum, ``rim_tori`` the rim-tori group, and ``split_classes`` a
    basis of the rank d + 1 group of split classes.
    ``scope_violations`` lists the hypotheses of the forms module that the
    sum breaks; it is empty exactly when the intersection form and
    canonical class are defined.
    """

    problem: FibreSumProblem
    alpha_basis: IntMatrix
    a_adapted: tuple[int, ...]
    betti: BettiNumbers
    h1: AbGroup
    h1_cohom_rank: int
    rim_tori: AbGroup
    split_classes: tuple[SplitClass, ...]
    scope_violations: tuple[str, ...]

    @property
    def d(self) -> int:
        """The rank of the kernel of the stacked embedding."""
        return self.alpha_basis.rows

    @property
    def t_effective(self) -> tuple[int, ...]:
        """The supplied t-vector, or the zero vector of length d."""
        return self.problem.t if self.problem.t is not None else (0,) * self.d


def analyse(problem: FibreSumProblem) -> SumAnalysis:
    """Every homological invariant of the sum from the Smith form of the
    stacked free embedding S : Z^2g -> Z^(b1(M)+b1(N)): its kernel, its
    cokernel and the lifts of that cokernel's torsion, computed once by
    ``intlat.kernel_and_cokernel``.  That takes one Smith reduction of S,
    or none when S is injective with every invariant factor 1 (then
    d = 0, coker S is free, the rim tori are free and there are no lifts).

    The kernel of S gives d and the alpha basis.  S and its transpose
    share their Smith diagonal, so the rim-tori group, the cokernel of
    the transpose, is Z^d plus the invariant factors of S, and H^1 of the
    sum, the kernel of the transpose, has the free rank of coker S.  H_1
    of the sum is that free part plus the cokernel of one presentation R,
    which :func:`_sum_homology` builds from the same Smith form and the
    torsion and meridian generators; no matrix holding S is reduced
    again, and R is reduced only when it is not diagonal.  The forms
    scope verdict is evaluated here too, once per sum.

    Every other rule held when the problem was built, but the length of
    t needs d: a ``model.DocumentError`` refuses a t-vector that is not d long.
    """
    M, N = problem.M, problem.N
    stacked = IntMatrix.vstack([M.embedding_free, N.embedding_free])
    alpha_basis, coker, lifts = intlat.kernel_and_cokernel(stacked)
    for vec in alpha_basis.to_rows():
        if any(stacked.mul_vector(vec)):
            raise AssertionError(f"alpha basis vector {vec} is not in the kernel of the embedding")
    d = alpha_basis.rows
    if problem.t is not None and len(problem.t) != d:
        raise model.DocumentError([f"t must have length d = {d}, got {len(problem.t)}"])
    a_adapted = alpha_basis.mul_vector(problem.gluing.a)
    h1 = _sum_homology(problem, coker, lifts, alpha_basis, a_adapted)
    return SumAnalysis(
        problem=problem,
        alpha_basis=alpha_basis,
        a_adapted=a_adapted,
        betti=_betti_numbers(problem, d),
        h1=h1,
        h1_cohom_rank=coker.free_rank,
        rim_tori=AbGroup(d, coker.torsion),
        split_classes=_split_classes(M.k, N.k, a_adapted),
        scope_violations=_scope_violations(problem, h1),
    )


def _scope_violations(problem: FibreSumProblem, h1: AbGroup) -> tuple[str, ...]:
    """The forms hypotheses the sum breaks: each surface indivisible and
    H_1 torsion free on both sides and on the sum."""
    violations: list[str] = []
    for label, side in (("M", problem.M), ("N", problem.N)):
        if side.k != 1:
            violations.append(f"surface class of {label} is divisible (k = {side.k})")
        if side.h1_torsion:
            violations.append(f"H_1({label}) has torsion {list(side.h1_torsion)}")
    if h1.torsion:
        violations.append(f"H_1 of the sum has torsion: {h1}")
    return tuple(violations)


def _betti_numbers(problem: FibreSumProblem, d: int) -> BettiNumbers:
    """Betti numbers of the sum from the kernel dimension d."""
    M, N, g = problem.M, problem.N, problem.genus
    return BettiNumbers(
        b1=M.b1 + N.b1 - 2 * g + d,
        b2_plus=M.b2_plus + N.b2_plus - 1 + d,
        b2_minus=M.b2_minus + N.b2_minus - 1 + d,
        d=d,
    )


def _sum_homology(
    problem: FibreSumProblem,
    coker: AbGroup,
    lifts: IntMatrix,
    alpha_basis: IntMatrix,
    a_adapted: tuple[int, ...],
) -> AbGroup:
    """H_1 of the sum from the Smith form of S: its cokernel, the lifts of
    that cokernel's torsion, and the kernel basis.

    The full presentation is P = [[S, 0], [E, O]].  Its rows are F, the
    free generators of both sides, then T: the torsion generators of M
    and of N, then the meridian of order n = gcd(k_M, k_N).  Its columns
    are the 2g surface-curve relations, then one order column per
    generator of T: O is the diagonal of the orders, and row i of E holds
    the images of the curves in generator i of T (the gluing vector for
    the meridian).  Let U S V = D be the Smith form.  Then diag(U, I) P
    diag(V, I) = [[D, 0], [E V, O]] has the same cokernel, and
      - a column with d_j = 1 is the only entry of its F row, so that
        generator and relation drop out;
      - the F rows past the rank of S are zero and give Z^(free rank of
        coker S);
      - the kernel columns of V may be replaced by the rows of the alpha
        basis, a unimodular change inside those columns;
      - a meridian of order n = 1 drops out with its order column (every
        torsion generator has order >= 2).
    That leaves R = [[diag(tau), 0, 0], [E W, E alpha^T, O']], where tau
    is the torsion of coker S, W holds the lifts (the columns of V at
    those factors), and O' holds the orders of T', which is T without a
    meridian of order 1.  So H_1 = Z^(free rank of coker S) + coker R.  Row
    ``lifts.mul_vector(e) + alpha_basis.mul_vector(e)`` of E W and
    E alpha^T belongs to a generator with images e; the meridian's
    middle block is ``a_adapted``.  When both blocks are 0, R is diagonal
    and needs no reduction.
    """
    M, N = problem.M, problem.N
    torsion = [*M.embedding_torsion, *N.embedding_torsion]
    rows = [(order, lifts.mul_vector(e) + alpha_basis.mul_vector(e)) for order, e in torsion]
    n = math.gcd(M.k, N.k)
    if n != 1:
        rows.append((n, lifts.mul_vector(problem.gluing.a) + a_adapted))
    if not any(x for _, images in rows for x in images):
        return abgroups.normal_form(coker.free_rank, coker.torsion + tuple(order for order, _ in rows))
    tau = coker.torsion
    width = len(tau) + alpha_basis.rows + len(rows)
    presentation = IntMatrix.from_rows(
        [[t if j == i else 0 for j in range(width)] for i, t in enumerate(tau)]
        + [
            list(images) + [order if j == i else 0 for j in range(len(rows))]
            for i, (order, images) in enumerate(rows)
        ],
        cols=width,
    )
    return abgroups.direct_sum(AbGroup(coker.free_rank), intlat.cokernel_presentation(presentation))


def _split_classes(k_m: int, k_n: int, a_adapted: tuple[int, ...]) -> tuple[SplitClass, ...]:
    """Basis of the rank d+1 group of split classes.

    A class x_M*B_M + x_N*B_N + alpha splits exactly when
    x_M*k_M + x_N*k_N - <C, alpha> = 0.  With both surfaces indivisible
    the basis takes the explicit normal form B_M - B_N followed by
    S_i = <C, alpha_i>*B_N + alpha_i; for general divisibilities it is
    the canonical (HNF) basis of the kernel of the 1 x (2+d) defining
    equation v, the only basis checked against it: the explicit one
    satisfies it by construction.  That kernel needs no reduction.  Let
    g_j be a gcd of v_0..v_j, up to sign and never 0 as v_0 = k_M >= 1,
    and c a vector on v_0..v_{j-1} with c.v = g_{j-1} (a chain of extended
    gcds).  Then z_j = (v_j/g_j)*c - (g_{j-1}/g_j)*e_j lies in the kernel,
    and the kernel vectors supported on 0..j have as entry j exactly the
    multiples of g_{j-1}/g_j, so z_1..z_{d+1} are a basis.
    """
    d = len(a_adapted)
    if k_m == 1 and k_n == 1:
        classes = [SplitClass(1, -1, (0,) * d)]
        for i, ai in enumerate(a_adapted):
            unit = tuple(1 if j == i else 0 for j in range(d))
            classes.append(SplitClass(0, ai, unit))
        return tuple(classes)
    equation = [k_m, k_n, *(-x for x in a_adapted)]
    g, bezout, vectors = k_m, [1], []
    for j, x in enumerate(equation[1:], 1):
        h, s, t = _extended_gcd(g, x)
        vectors.append([x // h * c for c in bezout] + [-(g // h)] + [0] * (d + 1 - j))
        g, bezout = h, [s * c for c in bezout] + [t]
    classes = [SplitClass(v[0], v[1], tuple(v[2:])) for v in intlat._hnf_rows(vectors, len(equation))]
    for c in classes:
        value = c.b_m * k_m + c.b_n * k_n - sum(x * y for x, y in zip(a_adapted, c.alpha))
        if value != 0:
            raise AssertionError(f"split class {c} does not satisfy the defining equation")
    if len(classes) != d + 1:
        raise AssertionError("split-class basis must have rank d + 1")
    return tuple(classes)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(h, s, t) with s*a + t*b = h, a gcd of a and b up to sign."""
    s, t, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s, t, s1, t1 = b, r, s1, t1, s - q * s1, t - q * t1
    return a, s, t


def complement_invariants(side: ManifoldSide) -> ComplementInvariants:
    """Homology of the complement of the surface in the closed side.

    H_1 gains a Z/k summand generated by the meridian; H^1 keeps the rank
    b1; H^2 splits off the curves on the push-off that bound in the
    complement (rank 2g - rank of the embedding) on top of the quotient
    of H^2 by the surface class, and its torsion is that of H_1 by
    universal coefficients.
    """
    h1 = abgroups.normal_form(side.b1, side.h1_torsion + (side.k,))
    ker_i_rank = 2 * side.genus - intlat.rank(side.embedding_free)
    h2_rank = (side.b2 - 1) + ker_i_rank
    return ComplementInvariants(
        h1=h1,
        h1_cohom_rank=side.b1,
        h2_rank=h2_rank,
        h2_torsion=h1.torsion,
        ker_i_rank=ker_i_rank,
    )
