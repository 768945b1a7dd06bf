"""Build the drift-uncertainty envelope and check it against the PDE oracle.

The family is the heat semigroup with drift lambda ranging over [-1, 1]
(the g-expectation setup). Its envelope solves du/dt = 1/2 u_xx + |u_x|,
which the monotone upwind solver integrates independently. The dyadic
iterates increase monotonically toward the envelope and stay below the
explicit upper-bound operator C(t).
"""

import numpy as np

from nisioenv import (
    GaussianDrift,
    LambdaInterval,
    PNorm,
    bump,
    compare,
    hjb_upwind,
    lp_norm,
    make_grid,
    nisio_dyadic,
    upper_bound_C,
)

grid = make_grid(-10.0, 10.0, 2049)
norm = PNorm(2.0)
family = GaussianDrift(LambdaInterval(-1.0, 1.0))
f = bump(grid, radius=1.0)
t = 0.5

print(f"domain [{grid.lower}, {grid.upper}], {grid.n_nodes} nodes, horizon t = {t}")
print(f"initial bump: ||f||_2 = {lp_norm(f, norm):.6f}\n")

result = nisio_dyadic(family, t, f, tol_rel=1e-4, n_max=10, norm=norm)

print("level   steps   increment_L2      norm_L2")
for level, norm_val, inc in result.iterates_norms:
    inc_str = "      --" if np.isnan(inc) else f"{inc:.3e}"
    print(f"{level:5d}   {2**level:5d}   {inc_str:>12s}   {norm_val:.8f}")
print(f"\nconverged: {result.converged} at level {result.levels_used}")
print(f"boundary leakage: {result.boundary_leakage:.3e}")

margin = float(np.max(result.final.samples - upper_bound_C(family, t, f, norm).samples))
passed = margin <= 1e-6 * (1.0 + f.max_abs())
print(f"upper-bound certificate: pass={passed}, worst excess over C(t)f = {margin:.3e}")

oracle = hjb_upwind(f, t, -1.0, 1.0, cfl=0.9)
comp = compare(result.final, oracle, norm)
print(f"\nagainst the upwind HJB solve: rel L2 distance = {comp.rel_err:.3e}, sup = {comp.max_err:.3e}")
