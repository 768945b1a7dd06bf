"""Differential structure of the envelope.

Three checks on the drift-uncertainty family:
  * the difference quotients (S(h)f - f)/h converge to the closed-form
    supremum generator Bf = 1/2 f'' + sup_lambda lambda f';
  * the forward time derivative of t -> S(t)f equals the one-sided
    directional derivatives of S(t) at f in the direction Bf;
  * S(t)f - f is recovered by integrating the directional derivative.
"""

from nisioenv import (
    GaussianDrift,
    LambdaInterval,
    PNorm,
    bump,
    derivative_identity_check,
    generator_fd,
    integral_identity_check,
    make_grid,
)

grid = make_grid(-10.0, 10.0, 2049)
norm = PNorm(2.0)
family = GaussianDrift(LambdaInterval(-1.0, 1.0))

print("generator difference quotients on a wide bump (radius 3):")
f_wide = bump(grid, radius=3.0)
est = generator_fd(family, f_wide, h0=0.1, k_steps=6, tol_rel=1e-6, n_max=6, norm=norm)
print("       h      ||(S(h)f-f)/h - Bf||_2")
for h, err in zip(est.h_schedule, est.errors_vs_B):
    print(f"  {h:.6f}        {err:.4e}")
print(f"  final/initial error ratio: {est.errors_vs_B[-1] / est.errors_vs_B[0]:.3f}\n")

f = bump(grid, radius=1.0)
level = 8  # the fixed dyadic level of both identities
gaps = derivative_identity_check(family, 0.25, f, norm, level)
identity_tol = 5e-2  # the gate of the `derivative` subcommand
print(f"derivative identity at t = 0.25 (pairwise relative gaps, tol {identity_tol}):")
for name, gap in gaps.items():
    print(f"  {name:18s} {gap:.4e}")
print(f"  passed: {max(gaps.values()) <= identity_tol}\n")

deviation = integral_identity_check(family, 0.5, f, quad_nodes=33, norm=norm, level=level)
print(f"integral identity at t = 0.5 with 33 Simpson nodes:")
print(f"  ||S(t)f - f - integral of S'_+(s,f)Bf|| / ||S(t)f - f|| = {deviation:.4e}")
