"""Fibre sums of elliptic surfaces.

E(n) is the simply connected elliptic surface without multiple fibres;
summing E(m) and E(n) along general fibre tori is the classical way to
build E(m+n).  Twisting the gluing along the fibre direction keeps all
the classical numerical invariants but moves the canonical class by rim
tori, which is visible in its divisibility and in the parity of the
intersection form.
"""

from fibresum import (
    FibreSumProblem,
    GluingClass,
    analyse,
    elliptic_surface,
    sum_forms,
)


def sum_of(m, n, a):
    return FibreSumProblem(
        M=elliptic_surface(m), N=elliptic_surface(n), gluing=GluingClass(a)
    )


print("The K3 surface E(2), as a catalog side:")
e2 = elliptic_surface(2)
print(f"  b2+ = {e2.b2_plus}, b2- = {e2.b2_minus}, K^2 = {e2.K_squared}, "
      f"section square = {e2.B_squared}, K.section = {e2.K_dot_B}")

print()
print("Untwisted sum E(2)#E(2): the invariants of E(4).")
analysis = analyse(sum_of(2, 2, (0, 0)))
betti = analysis.betti
print(f"  b2 = {betti.b2} (E(4) has 12*4-2 = 46), sigma = {betti.sigma}, e = {betti.e}")
print(f"  H_1 = {analysis.h1}, rim tori group = {analysis.rim_tori}")
sf = sum_forms(analysis)
cc = sf.canonical_class
print(f"  canonical class: sigma coefficient {cc.sigma_coeff}, rim coefficients {cc.r_coeffs}")
print(f"  divisibility of K_X: {sf.divisibility.value} (E(4) has K = 2*fibre)")
fc = sf.form_class
print(f"  intersection form: {fc.parity} {fc.decomposition}")

print()
print("Twisting the gluing by a = (1, 0) changes the smooth structure story:")
analysis = analyse(sum_of(2, 2, (1, 0)))
sf = sum_forms(analysis)
cc = sf.canonical_class
print(f"  split-class basis: {[c.label() for c in analysis.split_classes]}")
print(f"  rim coefficients of K_X: {cc.r_coeffs} (symmetric basis: t = {cc.t_coeffs}, "
      f"eta = {cc.eta}, eta' = {cc.eta_prime})")
print(f"  divisibility of K_X: {sf.divisibility.value} -> K_X indivisible")
fc = sf.form_class
print(f"  intersection form becomes {fc.parity}: {fc.decomposition}")
print("  The sum still has the Betti numbers of E(4) but is not spin,")
print("  so it is not even homeomorphic to E(4).")

print()
print("Divisibility of K_X for the family glued with a = (p, 0):")
for p in range(0, 7):
    sf = sum_forms(analyse(sum_of(2, 2, (p, 0))))
    check = sf.k_squared
    print(f"  p = {p}: divisibility {sf.divisibility.value}, "
          f"K_X^2 = {check.lhs} (target {check.rhs})")
print("  Even p keeps the divisibility of E(4); odd p destroys it.")
