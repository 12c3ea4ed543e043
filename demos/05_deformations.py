"""Infinitesimal deformations classified by the glued total complex.

Deforming product, coproduct, and entwining map simultaneously,

    mu_t = mu + t mu',   Delta_t = Delta + t Delta',   psi_t = psi + t psi',

and keeping every structure law mod t^2, is governed by a double complex: its
glued total cohomology in degree 2 classifies the deformations up to the
equivalences id + t alpha, id + t gamma.  Cocycles are exactly the first-order
valid triples; coboundaries are exactly the trivializable ones.
"""

from entwine.complexes import cohomology
from entwine.deform import (
    DoubleComplexGrid,
    TotalComplex,
    coboundary_equivalence,
    deformation_from_cocycle,
    first_order_checks,
    random_two_cochain,
    split_degree2,
)
from entwine.errors import CocycleConditionError
from entwine.linalg import solve
from entwine.zoo import named_example

kz2 = named_example("z2")

grid = DoubleComplexGrid(kz2, 3, 3)
print("3x3 double complex cell dimensions:")
for n in range(3, -1, -1):
    print("  ", [grid.dims[(m, n)] for m in range(4)])

tc = TotalComplex(kz2, 3)
print("\nglued total complex dimensions by degree:", tc.dims)
h2 = cohomology(tc.complex, 2)
print(f"degree 2: {h2.cocycle_basis.cols} cocycles / {h2.coboundary_basis.cols} coboundaries"
      f" -> {h2.betti} deformation class(es)")

# A representative of the nontrivial class, split into its three directions.
rep = h2.class_reps.col_vector(0)
deformation = deformation_from_cocycle(kz2, rep, tc)
print("\nnontrivial deformation direction:")
print("  mu'  =", [[str(v) for v in row] for row in deformation.mu1.mat.to_fraction_rows()])
print("  psi' =", [[str(v) for v in row] for row in deformation.psi1.mat.to_fraction_rows()])
print("  all first-order laws:", first_order_checks(kz2, deformation).ok)
print("  has no bounding 1-cochain:", solve(tc.differential(1), rep) is None)

# Coboundaries are equivalent to the trivial deformation via explicit maps.
z = h2.coboundary_basis.col_vector(0)
w = solve(tc.differential(1), z)
alpha1, gamma1 = coboundary_equivalence(kz2, z, w, tc)
print("\na coboundary class trivializes via alpha' =",
      [[str(v) for v in row] for row in alpha1.mat.to_fraction_rows()])

# And a random 2-cochain is rejected the moment a first-order law breaks.
z_bad = random_two_cochain(tc, seed=0)
try:
    deformation_from_cocycle(kz2, z_bad, tc)
except CocycleConditionError as exc:
    print("\nrandom 2-cochain rejected:", exc)
print("its failing laws:", [n for n, _ in first_order_checks(kz2, split_degree2(tc, z_bad)).failures])
