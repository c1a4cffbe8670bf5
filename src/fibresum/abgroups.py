"""Finitely generated abelian groups in invariant-factor normal form.

The normal form is the divisibility chain out of Smith reduction, so two
normal forms are isomorphic iff they are ``==``.  Values are immutable
and operations pure; :func:`as_ints` is the one integer rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = ["AbGroup", "normal_form", "direct_sum"]


def as_ints(values: Iterable[Any], what: str) -> tuple[int, ...]:
    """``values`` as a tuple, or ValueError naming ``what`` and the first
    bool, float, str or other non-int entry; int subclasses pass."""
    values = tuple(values)
    # One C-level scan passes the all-int case; the loop names the culprit.
    if not {int}.issuperset(map(type, values)):
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{what}: expected an integer, got {x!r}")
    return values


@dataclass(frozen=True)
class AbGroup:
    """``Z^free_rank + Z/t1 + ... + Z/tk`` with ``t1 | t2 | ... | tk``.

    The constructor does not normalize; use :func:`normal_form` to build a
    group from an arbitrary factor list.  Every group the library returns
    is a normal form, on which ``==`` is isomorphism.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion", as_ints(self.torsion, "torsion factors"))
        as_ints((self.free_rank,), "free rank")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")

    def is_normal_form(self) -> bool:
        if any(t < 2 for t in self.torsion):
            return False
        return all(b % a == 0 for a, b in zip(self.torsion, self.torsion[1:]))

    def __str__(self) -> str:
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def normal_form(free_rank: int, factors: Sequence[int]) -> AbGroup:
    """Normalize an arbitrary list of cyclic orders into a divisibility chain.

    Each factor is merged into the chain from its largest end with
    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), which keeps the chain dividing
    and needs no factorization.  Factors equal to 1 are dropped; a factor
    of 0 contributes a Z summand.
    """
    rank = free_rank
    chain: list[int] = []
    for f in as_ints(factors, "factors"):
        f = abs(f)
        if f == 0:
            rank += 1
            continue
        for i in reversed(range(len(chain))):
            chain[i], f = math.lcm(chain[i], f), math.gcd(chain[i], f)
        if f > 1:
            chain.insert(0, f)
    return AbGroup(rank, tuple(chain))


def direct_sum(G: AbGroup, H: AbGroup) -> AbGroup:
    """Normal form of ``G + H``: ranks add, torsion chains are re-merged."""
    return normal_form(G.free_rank + H.free_rank, G.torsion + H.torsion)

