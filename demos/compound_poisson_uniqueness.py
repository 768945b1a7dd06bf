"""Uncertain-intensity compound Poisson: envelope vs. the Cauchy problem.

With intensities {0, 1} and unit jumps, the supremum generator
Bf = max(0, f(.+1) - f) is bounded and globally Lipschitz, so the initial
value problem u' = Bu has a unique solution. That solution must coincide
with the partition envelope; here both are computed independently and the
distance halves with each extra dyadic level.
"""

from nisioenv import (
    CompoundPoisson,
    JumpDistribution,
    LambdaValues,
    PNorm,
    bump,
    compare,
    make_grid,
    nisio_dyadic,
    ode_reference,
)

grid = make_grid(-10.0, 10.0, 2001)
norm = PNorm(2.0)
family = CompoundPoisson(LambdaValues((0.0, 1.0)), JumpDistribution(((1.0, 1.0),)))
f = bump(grid, radius=1.0)
t = 1.0

print("RK4 reference for u' = Bu, dt = 1e-3 ...")
oracle = ode_reference(family, f, t, dt=1e-3)

print("dyadic envelope iterates vs. the reference:")
prev = None
for level in (6, 7, 8, 9):
    res = nisio_dyadic(family, t, f, tol_rel=1e-15, n_max=level, norm=norm, n_min=level)
    rel = compare(res.final, oracle, norm).rel_err
    note = "" if prev is None else f"   (ratio {rel / prev:.3f})"
    print(f"  level {level}: rel L2 = {rel:.4e}{note}")
    prev = rel

print("\nfirst-order level error: each refinement halves the distance,")
print("so the envelope and the unique Cauchy solution agree in the limit.")
