"""Apply the symmetry algebra infinitesimally to a price surface.

The action of a symmetry direction on a solution phi is the function
N~(phi) = -N^t phi_t - N^x phi_x + g + h phi, and it is again a solution.
Sampling the acted surface and measuring its interior residual shows how
close each direction stays to the solution manifold numerically.
"""

import math
from fractions import Fraction

from bssym import (
    LogClosedForm,
    OptionSpec,
    SolutionSpec,
    basis_isovector,
    infinitesimal_action,
    make_context,
    make_grid,
    residual_e2,
    sample_surface,
    solution_isovector,
)


def main():
    ctx = make_context(Fraction(1, 20), Fraction(1, 25))
    surf = LogClosedForm(OptionSpec(100.0, 1.0, "call"), ctx)
    grid = make_grid(0.0, 0.8, 321, math.log(0.5), math.log(200.0), 241)

    candidates = [(f"N{i}", basis_isovector(i, ctx)) for i in (1, 2, 4, 6)]
    candidates.append(
        ("N_u", solution_isovector(SolutionSpec.mode_for(1, ctx), ctx))
    )

    print("interior residual of the acted surface:")
    for name, N in candidates:
        acted = infinitesimal_action(N, surf)
        rep = residual_e2(sample_surface(acted, grid), ctx)
        print(f"  {name:4s} rel residual {rep.rel_max:.3e} "
              f"(interior nodes {rep.n_interior})")

    # the scaling direction acts as the identity on solutions
    N6 = basis_isovector(6, ctx)
    acted = infinitesimal_action(N6, surf)
    t, x = 0.4, math.log(105.0)
    print(f"\nN6 action equals the surface itself: "
          f"{acted.value(t, x):.12f} vs {surf.value(t, x):.12f}")


if __name__ == "__main__":
    main()
