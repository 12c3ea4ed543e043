"""The equivariant subcomplex, where the two cup products coincide.

A self-valued cochain f is psi-equivariant when pushing the coalgebra
variable through f with the entwining map gives the same answer on both
sides:  (f (x) C) o rho_R = psi o (C (x) f) o rho_L.  Equivariant cochains
are closed under the insertion operations and the differential, the two cup
products literally agree on them, and the resulting cohomology algebra is
graded-commutative.  For a Hopf algebra the subspace is cut out by a single
convolution equation against the translation map tau(c) = S(c_(1)) (x) c_(2).
"""

from entwine.compalg import (
    ALGEBRA,
    CompContext,
    comp_i,
    cup,
    equivariance_operator,
    equivariant_basis,
    equivariant_checks,
    sqcup,
)
from entwine.homspace import vec
from entwine.zoo import named_example

kz2 = named_example("z2")
ctx = CompContext(kz2, ALGEBRA)

dims = {n: equivariant_basis(ctx, n).cols for n in (0, 1, 2)}
print("equivariant dimensions for kZ2:", dims)
full = {n: ctx.space_dim(n) for n in (0, 1, 2)}
print("ambient cochain dimensions:   ", full)

# pi is always equivariant; products of equivariant cochains stay equivariant.
print("\npi equivariant:", (equivariance_operator(ctx, 2) @ vec(ctx.pi.map_)).is_zero())
# a basis is one matrix whose columns are vec(f) of the basis cochains f
basis = equivariant_basis(ctx, 1)
f, g = ctx.from_vec(1, basis.col_vector(0)), ctx.from_vec(1, basis.col_vector(1))
out = comp_i(ctx, f, 0, g)
print("insertion of equivariant cochains stays equivariant:",
      (equivariance_operator(ctx, 1) @ vec(out.map_)).is_zero())

# The two cup products agree on the nose (not just up to coboundary).
print("cup = sqcup on equivariant cochains:", cup(ctx, f, g) == sqcup(ctx, f, g))

# The full battery: closure, stability under d, graded commutativity of the
# subcomplex cohomology, and the translation-map criterion.
report = equivariant_checks(ctx, 2)
print(f"\n{report} ({len(report.items)} checks)")
