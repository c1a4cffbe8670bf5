"""Custom sides: higher genus, nontrivial first homology, and torsion.

Sides are described by plain algebraic data, so anything with a
consistent Betti/characteristic bookkeeping can be fed in.  This script
builds a genus-2 sum whose surfaces carry homologically non-trivial
curves, inspects the complement of one side, and shows how torsion or
divisible surface classes trip the scope gate of the forms module.
"""

from fibresum import (
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    ManifoldSide,
    analyse,
    complement_invariants,
    embed_h2,
    sum_forms,
)


def side(name, **kw):
    base = dict(
        name=name,
        b1=0,
        h1_torsion=(),
        b2_plus=3,
        b2_minus=3,
        K_dot_B=0,
        B_squared=0,
        genus=2,
        k=1,
        embedding_free=IntMatrix.zeros(0, 4),
        embedding_torsion=(),
        p_parity="unknown",
        kbar_divisibility=None,
    )
    base.update(kw)
    b1, b2 = base["b1"], base["b2_plus"] + base["b2_minus"]
    e = 2 - 2 * b1 + b2
    sigma = base["b2_plus"] - base["b2_minus"]
    base["K_squared"] = 2 * e + 3 * sigma
    return ManifoldSide(**base)


print("A genus-2 side whose surface carries two independent curves of M:")
m_side = side(
    "M",
    b1=2,
    embedding_free=IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]]),
    K_dot_B=2,
)
n_side = side("N", b1=0)
# The constructors refuse any side or problem that breaks a rule.
problem = FibreSumProblem(M=m_side, N=n_side, gluing=GluingClass((0, 0, 3, -1)))

analysis = analyse(problem)
print(f"  kernel of the stacked embedding: d = {analysis.d}, basis {analysis.alpha_basis.to_rows()}")
print(f"  gluing vector in that basis: {analysis.a_adapted}")
betti = analysis.betti
print(f"  betti: b1 = {betti.b1}, b2 = {betti.b2}, sigma = {betti.sigma}")
print(f"  H_1(X) = {analysis.h1}, R(X) = {analysis.rim_tori}")

sf = sum_forms(analysis)
cc, check = sf.canonical_class, sf.k_squared
print(f"  K_X coefficients: b = {cc.b_coeff}, sigma = {cc.sigma_coeff}, r = {cc.r_coeffs}")
print(f"  K_X^2 = {check.lhs}, closed formula gives {check.rhs}")

print()
print("Where a class of M lands in the sum (sewn dual surface B_X, push-off Sigma_X):")
record = embed_h2(analysis, ("pbar", 1, -2), "M")
print(f"  pairing data (perp, alpha.Sigma, alpha.B) = ('pbar', 1, -2) maps to "
      f"perp + {record.b_x}*B_X + {record.sigma}*{record.sigma_basis}")

print()
print("The complement of the surface in one side:")
inv = complement_invariants(m_side)
print(f"  H_1 = {inv.h1}, rank H^2 = {inv.h2_rank}, "
      f"curves bounding in the complement: rank {inv.ker_i_rank}")

print()
print("Torsion and divisible classes gate the forms module:")
divisible = side("D", genus=2, k=3)
gated = analyse(FibreSumProblem(M=divisible, N=side("N2"), gluing=GluingClass((0,) * 4)))
for reason in gated.scope_violations:
    print(f"  - {reason}")
print("  First homology still works there:", gated.h1)
inv = complement_invariants(divisible)
print(f"  and the complement picks up the meridian torsion: H_1 = {inv.h1}")
