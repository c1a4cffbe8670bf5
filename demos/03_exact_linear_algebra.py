"""The exact integer linear algebra underneath.

Everything the library reports is a rank, kernel, or cokernel over Z,
computed through a deterministic Smith reduction on arbitrary-precision
integers.  This script shows the raw layer: a kernel, cokernel and torsion
lifts from one reduction, saturated kernel bases, cokernel presentations,
and that coefficient growth is harmless.
"""

from fibresum import (
    AbGroup,
    IntMatrix,
    cokernel_presentation,
    direct_sum,
    kernel_and_cokernel,
)

print("Kernel and cokernel of [[2, 4], [6, 8]]:")
matrix = IntMatrix.from_rows([[2, 4], [6, 8]])
basis, cokernel, lifts = kernel_and_cokernel(matrix)
print(f"  kernel basis {basis.to_rows()}, cokernel {cokernel}")
images = [list(matrix.mul_vector(w)) for w in lifts.to_rows()]
print(f"  torsion lifts {lifts.to_rows()} map to {images}")
assert all(x % t == 0 for image, t in zip(images, cokernel.torsion) for x in image)
print(f"  check: each image is a multiple of its factor in {list(cokernel.torsion)}")

print()
print("Kernels come back as saturated bases (direct summands):")
basis, _, _ = kernel_and_cokernel(IntMatrix.from_rows([[2, 4, -2], [1, 2, -1]]))
print(f"  kernel of [[2,4,-2],[1,2,-1]] has basis {basis.to_rows()}")
transposed = IntMatrix.from_rows([list(col) for col in zip(*basis.to_rows())])
print(f"  saturation certificate: Z^3 modulo the basis is {cokernel_presentation(transposed)}, free")

print()
print("Cokernel presentations in invariant-factor normal form:")
print(f"  Z^2 / im diag(2, 3)      = {cokernel_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]))}")
print(f"  Z^2 / im [[1,1],[1,-1]]  = {cokernel_presentation(IntMatrix.from_rows([[1, 1], [1, -1]]))}")
print(f"  Z/2 + Z/4 + Z/3          = {direct_sum(AbGroup(0, (2, 4)), AbGroup(0, (3,)))}")

print()
print("Arbitrary precision is the point, not an accident:")
big = 10**40
matrix = IntMatrix.from_rows([[big, 1], [1, big]])
group = cokernel_presentation(matrix)
print(f"  [[10^40, 1], [1, 10^40]] has cokernel {group}")
assert group.torsion == (matrix.det(),) == (big * big - 1,)
print("  of order det A = 10^80 - 1, exactly.")
