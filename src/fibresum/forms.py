"""Intersection form and canonical class of the fibre sum.

Valid only when both surfaces are indivisible (k = 1 on both sides) and
the integral cohomology of both sides and of the sum is torsion free;
``SumAnalysis.scope_violations`` lists the ones a sum breaks.  Under
those hypotheses the second cohomology of the sum splits into the two
perpendicular blocks, d
hyperbolic-like pair blocks spanned by a split class and a rim torus, and
the nucleus spanned by the sewn dual surface and the surface push-off.
:func:`sum_forms` builds that block sum, its class and the canonical
class in one pass.  :class:`BlockForm` holds the numbers of the block
sum; every identity the module states comes back as a :class:`CheckLine`
and raises nothing, since each holds for every integer input.

The canonical class is stored as its coefficient vector in this basis,
in both the push-off basis (coefficients r_i, sigma on Sigma_X) and the
symmetric basis (coefficients t_i, eta on Sigma_X, eta' on Sigma_X').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .engine import SumAnalysis

__all__ = [
    "ScopeError",
    "CanonicalClass",
    "BlockForm",
    "FormClass",
    "Divisibility",
    "SumForms",
    "sum_forms",
    "embed_h2",
]


class ScopeError(Exception):
    """The problem is outside the torsion-free, indivisible-class scope."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class CanonicalClass:
    """Coefficients of the canonical class of the sum.

    ``s_coeffs`` vanish identically (split surfaces satisfy adjunction);
    ``r_coeffs`` are the rim coefficients in the push-off basis and
    ``t_coeffs`` the rim coefficients in the symmetric basis, related by
    r_i = t_i - a_i * eta_prime.  ``sigma_coeff = eta + eta_prime`` is the
    push-off coefficient and ``b_coeff = 2g - 2`` the coefficient on the
    sewn dual surface.  Divisibility data for the perpendicular parts is
    carried through from the sides (None = unknown).
    """

    kbar_m_sq: int
    kbar_m_div: int | None
    kbar_n_sq: int
    kbar_n_div: int | None
    s_coeffs: tuple[int, ...]
    r_coeffs: tuple[int, ...]
    t_coeffs: tuple[int, ...]
    b_coeff: int
    sigma_coeff: int
    eta: int
    eta_prime: int


@dataclass(frozen=True)
class PBlock:
    """Perpendicular block of one side: rank b2 - 2, the side's full
    signature, and the parity supplied with the side data."""

    rank: int
    signature: int
    parity: str


@dataclass(frozen=True)
class BlockForm:
    """The intersection form of the sum as a block sum.

    ``pm_block`` and ``pn_block`` are the perpendicular blocks.  Each split
    class S_i and its dual rim torus span a block [[S_i^2, 1], [1, 0]];
    only S_i^2 mod 2 is determined by the algebraic input (it must match
    the rim coefficient of the canonical class mod 2, and rim shifts move
    S_i^2 in even steps), so ``pair_s_sq_parities`` holds those parities.
    The sewn dual surface and the push-off span the nucleus
    [[nucleus_b_sq, 1], [1, 0]], where ``nucleus_b_sq`` = B_M^2 + B_N^2 is
    the sum of the two dual-surface squares.
    """

    pm_block: PBlock
    pn_block: PBlock
    pair_s_sq_parities: tuple[int, ...]
    nucleus_b_sq: int

    @property
    def rank(self) -> int:
        return self.pm_block.rank + self.pn_block.rank + 2 * len(self.pair_s_sq_parities) + 2

    @property
    def signature(self) -> int:
        # Every rank-2 block [[x, 1], [1, 0]] has determinant -1, hence
        # signature 0; only the perpendicular blocks contribute.
        return self.pm_block.signature + self.pn_block.signature


@dataclass(frozen=True)
class FormClass:
    """Isomorphism class of a unimodular form by rank, signature, parity."""

    rank: int
    signature: int
    parity: str
    decomposition: str


@dataclass(frozen=True)
class Divisibility:
    """gcd of the canonical-class coefficients.

    ``exact`` is True when both perpendicular divisibilities are known, in
    which case the gcd is the divisibility of the canonical class itself;
    otherwise it is only an upper bound (a necessary condition).
    """

    value: int
    exact: bool


@dataclass(frozen=True)
class CheckLine:
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class SumForms:
    """What :func:`sum_forms` finds for one in-scope sum: the canonical
    class, the block form and its class (or the text saying why the class
    is unavailable), the divisibility of the canonical class, its square
    next to the closed formula, and its Ionel-Parker pairings."""

    canonical_class: CanonicalClass
    block_form: BlockForm
    form_class: FormClass | str
    divisibility: Divisibility
    k_squared: CheckLine
    ionel_parker: tuple[CheckLine, ...]


@dataclass(frozen=True)
class EmbeddedClass:
    """A second-cohomology class of one side written in the basis of the
    sum: perpendicular part passed through, then the coefficients on the
    sewn dual surface and on the push-off (the N-side push-off differs
    from the M-side one by the gluing rim torus)."""

    perp: object
    b_x: int
    sigma: int
    sigma_basis: str


def _require_scope(analysis: SumAnalysis) -> None:
    if analysis.scope_violations:
        raise ScopeError(analysis.scope_violations)


def sum_forms(analysis: SumAnalysis) -> SumForms:
    """The canonical class, block form and its class, divisibility and
    check lines of an in-scope sum, each computed once from b = 2g - 2,
    eta, eta' and B_X^2 = B_M^2 + B_N^2.

    The characteristic property of the canonical class forces the parity
    of each pair block: S_i^2 = K.S_i = r_i (mod 2).

    Every sum has an indefinite block form with rank + signature even
    and, when the form is even, signature = 0 (mod 8), so its class is
    known whenever both parities are:
    - b2 + sigma = 2 b2+ on each side, so the form's rank + signature is
      2 (b2+(M) + b2+(N) - 1 + d), even;
    - a side is built only with b2+, b2- >= 1, so the form has
      b2+ = b2+(M) + b2+(N) - 1 + d >= 1 + d, and likewise b2-;
    - an even form needs both P blocks even, which a side may have only
      with sigma = 0 (mod 8), so sigma(X) = 0 (mod 8).
    """
    _require_scope(analysis)
    problem = analysis.problem
    M, N, g = problem.M, problem.N, problem.genus
    b = 2 * g - 2
    eta = M.K_dot_B + 1 - b * M.B_squared
    eta_prime = N.K_dot_B + 1 - b * N.B_squared
    b_sq = M.B_squared + N.B_squared
    k_dot_b = b * b_sq + eta + eta_prime
    cc = CanonicalClass(
        # The square of the perpendicular part of K on each side.
        kbar_m_sq=M.K_squared - 2 * b * M.K_dot_B + b * b * M.B_squared,
        kbar_m_div=M.kbar_divisibility,
        kbar_n_sq=N.K_squared - 2 * b * N.K_dot_B + b * b * N.B_squared,
        kbar_n_div=N.kbar_divisibility,
        s_coeffs=(0,) * analysis.d,
        r_coeffs=tuple(ti - ai * eta_prime for ti, ai in zip(analysis.t_effective, analysis.a_adapted)),
        t_coeffs=analysis.t_effective,
        b_coeff=b,
        sigma_coeff=eta + eta_prime,
        eta=eta,
        eta_prime=eta_prime,
    )
    bf = BlockForm(
        pm_block=PBlock(rank=M.b2 - 2, signature=M.signature, parity=M.p_parity),
        pn_block=PBlock(rank=N.b2 - 2, signature=N.signature, parity=N.p_parity),
        pair_s_sq_parities=tuple(ri % 2 for ri in cc.r_coeffs),
        nucleus_b_sq=b_sq,
    )
    # Only known perpendicular divisibilities join the gcd; gcd(0, x) = x.
    kbar_divs = [div for div in (cc.kbar_m_div, cc.kbar_n_div) if div is not None]
    return SumForms(
        canonical_class=cc,
        block_form=bf,
        form_class=_classify(bf),
        divisibility=Divisibility(math.gcd(b, cc.sigma_coeff, *cc.r_coeffs, *kbar_divs), len(kbar_divs) == 2),
        # Rim tori have square zero and pair off only against split classes,
        # whose coefficients vanish, so neither adds to K_X^2.
        k_squared=CheckLine(
            "K_X^2 == K_M^2 + K_N^2 + 8g - 8",
            cc.kbar_m_sq + cc.kbar_n_sq + b * b * b_sq + 2 * b * cc.sigma_coeff,
            M.K_squared + N.K_squared + 8 * g - 8,
        ),
        ionel_parker=(
            CheckLine("K_X.B_X == K_M.B_M + K_N.B_N + 2", k_dot_b, M.K_dot_B + N.K_dot_B + 2),
            CheckLine("K_X.Sigma_X == 2g - 2", b, 2 * g - 2),
            CheckLine("K_X.R == 0 on all rim tori", sum(map(abs, cc.s_coeffs)), 0),
        ),
    )


def _classify(bf: BlockForm) -> FormClass | str:
    """The unimodular class of a block form that :func:`sum_forms` built,
    or the text saying why it is unavailable.

    Indefinite forms are classified by rank, signature and parity (Serre,
    *A Course in Arithmetic*, Ch. V): odd ones are diagonal, even ones
    split into hyperbolic planes and copies of the rank-8 even definite form.
    """
    for block, label in ((bf.pm_block, "M"), (bf.pn_block, "N")):
        if block.parity == "unknown":
            return f"p_parity of side {label} is unknown; classification needs it"
    rank, signature = bf.rank, bf.signature
    b2_plus = (rank + signature) // 2
    even = (
        bf.pm_block.parity == "even"
        and bf.pn_block.parity == "even"
        and not any(bf.pair_s_sq_parities)
        and bf.nucleus_b_sq % 2 == 0
    )
    if not even:
        return FormClass(rank, signature, "odd", f"{b2_plus}<+1> + {rank - b2_plus}<-1>")
    decomposition = f"{min(b2_plus, rank - b2_plus)}H"
    if signature:
        decomposition += f" + {abs(signature) // 8}E8({'-1' if signature < 0 else '+1'})"
    return FormClass(rank, signature, "even", decomposition)


def embed_h2(
    analysis: SumAnalysis,
    cls: tuple[object, int, int],
    side: str,
) -> EmbeddedClass:
    """Image of a second-cohomology class of one side inside the sum.

    ``cls`` is the triple (perpendicular part or tag, pairing with the
    surface class, pairing with the dual class).  The perpendicular part
    passes through unchanged; the dual-class coefficient becomes the
    coefficient on the sewn surface, and the push-off coefficient is the
    dual pairing corrected by the dual square.  The N side lands on the
    other push-off, which differs by the gluing rim torus.
    """
    _require_scope(analysis)
    if side not in ("M", "N"):
        raise ValueError(f"side must be 'M' or 'N', got {side!r}")
    perp, c_sigma, c_b = cls
    problem = analysis.problem
    b_squared = problem.M.B_squared if side == "M" else problem.N.B_squared
    return EmbeddedClass(
        perp=perp,
        b_x=c_sigma,
        sigma=c_b - b_squared * c_sigma,
        sigma_basis="Sigma_X" if side == "M" else "Sigma_X_prime",
    )
