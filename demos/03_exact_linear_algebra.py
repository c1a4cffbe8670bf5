"""The exact integer linear algebra underneath.

Everything the library reports is a rank, kernel, or cokernel over Z,
computed through a deterministic Smith reduction on arbitrary-precision
integers.  This script shows the raw layer: the decomposition itself,
saturated kernel bases, cokernel presentations, and that coefficient
growth is harmless.
"""

from fibresum import (
    AbGroup,
    IntMatrix,
    cokernel_presentation,
    direct_sum,
    kernel_and_cokernel,
    smith_normal_form,
)

print("Smith normal form of [[2, 4], [6, 8]]:")
matrix = IntMatrix.from_rows([[2, 4], [6, 8]])
snf = smith_normal_form(matrix)
print(f"  D = diag{snf.diagonal()}")
print(f"  U = {snf.U.to_rows()}, V = {snf.V.to_rows()}")
assert (snf.U @ matrix @ snf.V) == snf.D
print(f"  check: U A V = D holds, det U = {snf.U.det()}, det V = {snf.V.det()}")

print()
print("Kernels come back as saturated bases (direct summands):")
basis, _, _ = kernel_and_cokernel(IntMatrix.from_rows([[2, 4, -2], [1, 2, -1]]))
print(f"  kernel of [[2,4,-2],[1,2,-1]] has basis {basis.to_rows()}")
stacked = smith_normal_form(basis)
print(f"  saturation certificate: Smith diagonal of the basis is {stacked.diagonal()}")

print()
print("Cokernel presentations in invariant-factor normal form:")
print(f"  Z^2 / im diag(2, 3)      = {cokernel_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]))}")
print(f"  Z^2 / im [[1,1],[1,-1]]  = {cokernel_presentation(IntMatrix.from_rows([[1, 1], [1, -1]]))}")
print(f"  Z/2 + Z/4 + Z/3          = {direct_sum(AbGroup(0, (2, 4)), AbGroup(0, (3,)))}")

print()
print("Arbitrary precision is the point, not an accident:")
big = 10**40
matrix = IntMatrix.from_rows([[big, big + 1], [big - 1, big]])
snf = smith_normal_form(matrix)
print(f"  a 2x2 matrix with 40-digit entries has Smith diagonal {snf.diagonal()}")
assert (snf.U @ matrix @ snf.V) == snf.D
print("  and the transforms still verify exactly.")
