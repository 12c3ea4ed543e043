"""Two cup products and the weak comp algebra.

Self-valued cochains carry insertion operations f o_i g (substitute g into the
i-th slot of f, letting the entwining map carry the coalgebra variable past
the earlier slots).  Together with the distinguished 2-cochain pi = eps (x) mu
they satisfy a weakened form of the comp algebra axioms, which is enough to
produce two associative cup products and the differential itself:

    f cup g   = (pi o_0 f) o_m g        d f = (-1)^{m-1} pi <> f - f <> pi
    f sqcup g = (pi o_1 g) o_0 f

On cohomology the two products agree up to the graded sign (-1)^{mn}.
"""

from entwine.compalg import (
    ALGEBRA,
    COALGEBRA,
    CompContext,
    coboundary,
    cup,
    diamond,
    eps_tensor_id,
    graded_commutativity,
    sqcup,
    verify_weak_comp,
)
from entwine.zoo import named_example

kz2 = named_example("z2")
ctx = CompContext(kz2, ALGEBRA)

# Degree-zero cups recover the two convolutions on Hom(C, A).
f, g = ctx.basis(0)[1], ctx.basis(0)[2]
print("cup of degree-0 basis cochains (a convolution):")
print("  ", [str(v) for row in cup(ctx, f, g).map_.mat.to_fraction_rows() for v in row])
print("sqcup twists the same product through psi:")
print("  ", [str(v) for row in sqcup(ctx, f, g).map_.mat.to_fraction_rows() for v in row])

# pi itself is a coboundary, of eps (x) id; and pi <> pi = 0.
print("\npi = d(eps (x) id):", coboundary(ctx, eps_tensor_id(ctx)) == ctx.pi)
print("pi <> pi = 0:", diamond(ctx, ctx.pi, ctx.pi).is_zero)

# The axioms are checked exhaustively (multilinearity reduces every basis
# tuple to one operator identity per slot pattern).
report = verify_weak_comp(ctx, degree_cap=2)
print("\nweak comp axioms, algebra side:", "ok" if report.ok else "FAILED",
      f"({len(report.items)} identities)")

# The coalgebra side (cochains C -> A (x) C^m, pi = 1 (x) Delta) is the algebra
# side of the dual entwining (C*, A*, psi^T), read through f |-> f^T.
dual = CompContext(kz2, COALGEBRA)
print("weak comp axioms, coalgebra side:", "ok" if verify_weak_comp(dual, 2).ok else "FAILED")

# On cohomology classes the products agree up to sign; here in degree (0,0)
# the four class pairs multiply like the group algebra itself.
report = graded_commutativity(ctx, 0, 0)
print("\ngraded sign rule on classes:", report, f"({len(report.items)} class pairs)")
