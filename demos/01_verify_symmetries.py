"""Construct the symmetry basis and verify it exactly.

Every candidate vector field N is checked against both defining conditions:
the contact form must reproduce itself up to the multiplier lambda = F_phi,
and the dragged 2-form must land back inside the structural ideal.  All
arithmetic is rational, so a pass here is a proof, not an approximation.
"""

from fractions import Fraction

from bssym import (
    SolutionSpec,
    basis_isovector,
    generator_of,
    make_context,
    solution_isovector,
    verify_isovector,
)


def main():
    ctx = make_context(Fraction(1, 20), Fraction(1, 25))
    print(f"model: r = {ctx.r}, sigma2 = {ctx.sigma2}, rtilde = {ctx.rtilde}\n")

    for i in range(1, 7):
        N = basis_isovector(i, ctx)
        rep = verify_isovector(N, ctx)
        status = "ok" if rep.passed else "FAILED"
        print(f"N{i}: {status}")
        print(f"    F      = {generator_of(N)}")
        print(f"    lambda = {rep.lam}")

    # an infinite tail: every solution of the equation is itself a symmetry
    # direction; exp(r t) is the discounted bond, mode_for(1) the underlying
    u = SolutionSpec.single(1, ctx.r, 0) + SolutionSpec.mode_for(1, ctx)
    Nu = solution_isovector(u, ctx, name="N_u")
    rep = verify_isovector(Nu, ctx)
    print(f"\nN_u with g = {u.to_exppoly()}: {'ok' if rep.passed else 'FAILED'}")
    print(f"    lambda = {rep.lam} (solution directions never rescale alpha)")


if __name__ == "__main__":
    main()
