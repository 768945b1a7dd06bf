"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math

import numpy as np

from nisioenv import PNorm
from nisioenv.calculus import (
    ball_samples,
    derivative_identity_check,
    directional_derivative,
    generator_fd,
    geometric_schedule,
    growth_bound_estimate,
    integral_identity_check,
    lipschitz_probe,
)
from nisioenv.envelope import Partition, apply_partition, nisio_dyadic, step_J
from nisioenv.funcspace import GridFunction, bump, lp_norm, make_grid
from nisioenv.kernels import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PureShift,
    upper_bound_C,
)
from nisioenv.reference import compare, counterexample_scan, hjb_upwind, ode_reference

NORM2 = PNorm(2.0)
GAUSS = GaussianDrift(LambdaInterval(-1.0, 1.0))
CP = CompoundPoisson(LambdaValues((0.0, 1.0)), JumpDistribution(((1.0, 1.0),)))


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_c01_envelope_vs_hjb_oracle():
    # drift-uncertain Gaussian envelope against the monotone upwind solver,
    # improving when grid and dyadic level are refined one notch
    dists = []
    for n_nodes, n_max in ((2049, 10), (4097, 11)):
        grid = make_grid(-10.0, 10.0, n_nodes)
        f = bump(grid, radius=1.0)
        res = nisio_dyadic(GAUSS, 0.5, f, 1e-4, n_max, NORM2)
        oracle = hjb_upwind(f, 0.5, -1.0, 1.0, cfl=0.9)
        dists.append(compare(res.final, oracle, NORM2).rel_err)
    ok = dists[0] <= 5e-2 and dists[1] < dists[0]
    report(1, ok, f"rel L2 vs HJB {dists[0]:.3e} <= 5e-2, refined {dists[1]:.3e} decreases")


def test_c02_envelope_vs_ode_oracle():
    # compound Poisson envelope against RK4 on the bounded supremum generator;
    # uniqueness of the Cauchy solution forces agreement, halving per level
    grid = make_grid(-10.0, 10.0, 2001)
    f = bump(grid, radius=1.0)
    oracle = ode_reference(CP, f, 1.0, 1e-3)
    d = []
    for level in (8, 9):
        res = nisio_dyadic(CP, 1.0, f, 1e-15, level, NORM2, n_min=level)
        d.append(compare(res.final, oracle, NORM2).rel_err)
    ratio = d[1] / d[0]
    ok = d[0] <= 1e-2 and 0.35 <= ratio <= 0.65
    report(2, ok, f"rel L2 vs ODE {d[0]:.3e} <= 1e-2, level-9 ratio {ratio:.3f} in [0.35, 0.65]")


def test_c03_upper_bound_norm_identities():
    grid = make_grid(-10.0, 10.0, 2049)
    f = bump(grid, radius=1.0)
    r_gauss = lp_norm(upper_bound_C(GAUSS, 0.1, f, NORM2), NORM2) / lp_norm(f, NORM2)
    r_cp = lp_norm(upper_bound_C(CP, 0.5, f, NORM2), NORM2) / lp_norm(f, NORM2)
    e_gauss = abs(r_gauss / math.exp(0.05) - 1.0)
    e_cp = abs(r_cp / math.exp(0.5) - 1.0)
    ok = e_gauss <= 1e-3 and e_cp <= 1e-3
    report(3, ok, f"norm factor rel errors: gaussian {e_gauss:.2e}, compound Poisson {e_cp:.2e} <= 1e-3")


def test_c04_refinement_monotonicity():
    # 50 random nested partition pairs on [0, 0.5]; the compound Poisson
    # one-steps compose exactly, so nesting increases iterates to roundoff
    grid = make_grid(-10.0, 10.0, 2001)
    f = bump(grid, radius=1.0)
    rng = np.random.default_rng(2024)
    worst = -math.inf
    for _ in range(50):
        k1 = int(rng.integers(1, 6))
        inner = sorted(set(float(v) for v in rng.uniform(0.01, 0.49, size=k1)))
        pi1 = Partition((0.0, *inner, 0.5))
        k2 = int(rng.integers(1, 6))
        extra = tuple(float(v) for v in rng.uniform(0.01, 0.49, size=k2))
        pi2 = Partition(tuple(sorted({*pi1.times, *extra})))
        v1 = apply_partition(CP, pi1, f)
        v2 = apply_partition(CP, pi2, f)
        worst = max(worst, float(np.max(v1.samples - v2.samples)))
    ok = worst <= 1e-9
    report(4, ok, f"worst nested-pair violation {worst:.3e} <= 1e-9 over 50 pairs")


def test_c05_approximate_semigroup_law():
    grid = make_grid(-10.0, 10.0, 2049)
    f = bump(grid, radius=1.0)
    f_norm = lp_norm(f, NORM2)
    gaps = []
    for level in (10, 11):
        whole = apply_partition(GAUSS, Partition.dyadic(0.5, level), f)
        half = apply_partition(GAUSS, Partition.dyadic(0.25, level), f)
        composed = apply_partition(GAUSS, Partition.dyadic(0.25, level), half)
        gaps.append(lp_norm(whole - composed, NORM2) / f_norm)
    shrink = 1.0 - gaps[1] / gaps[0]
    ok = gaps[0] <= 2e-3 and shrink >= 0.30
    report(5, ok, f"semigroup gap {gaps[0]:.3e} <= 2e-3 at level 10, shrink {shrink:.1%} >= 30%")


def test_c06_generator_identity():
    grid = make_grid(-10.0, 10.0, 2049)
    f = bump(grid, radius=3.0)
    est = generator_fd(GAUSS, f, 0.1, 6, 1e-6, 6, NORM2)
    decreasing = all(b < a for a, b in zip(est.errors_vs_B, est.errors_vs_B[1:]))
    ratio = est.errors_vs_B[-1] / est.errors_vs_B[0]
    ok = decreasing and ratio <= 0.10
    report(6, ok, f"errors strictly decreasing={decreasing}, final/initial {ratio:.3f} <= 0.10")


def test_c07_derivative_and_integral_identities():
    grid = make_grid(-10.0, 10.0, 2049)
    f = bump(grid, radius=1.0)
    worst_gap = max(derivative_identity_check(GAUSS, 0.25, f, NORM2, 8).values())
    deviation = integral_identity_check(GAUSS, 0.5, f, 33, NORM2, 8)
    ok = worst_gap <= 5e-2 and deviation <= 2e-2
    report(7, ok, f"identity gaps max {worst_gap:.3e} <= 5e-2, integral deviation {deviation:.3e} <= 2e-2")


def test_c08_exact_structural_properties():
    # 100 seeded random inputs per property on a desk-scale grid
    grid = make_grid(-8.0, 8.0, 257)
    schedule = geometric_schedule(0.2, 3)
    rng = np.random.default_rng(777)
    pi = Partition((0.0, 0.1, 0.25))

    def smooth():
        return ball_samples(GridFunction(grid, np.zeros(257)), 2.0, 1, NORM2, seed=int(rng.integers(1 << 30)))[0]

    worst_monotone = worst_convex = worst_homog = -math.inf
    for _ in range(100):
        f = smooth()
        g = f + abs(smooth())
        jf, jg = apply_partition(GAUSS, pi, f), apply_partition(GAUSS, pi, g)
        worst_monotone = max(worst_monotone, float(np.max(jf.samples - jg.samples)))
        alpha = float(rng.uniform(0.1, 0.9))
        mix = apply_partition(GAUSS, pi, alpha * f + (1.0 - alpha) * g)
        hull = alpha * jf + (1.0 - alpha) * jg
        worst_convex = max(worst_convex, float(np.max(mix.samples - hull.samples)))
        c = float(rng.uniform(0.2, 4.0))
        scaled = apply_partition(GAUSS, pi, c * f)
        rel = float(np.max(np.abs(scaled.samples - c * jf.samples))) / max(float(np.max(np.abs(scaled.samples))), 1e-300)
        worst_homog = max(worst_homog, rel)

    worst_quot = worst_order = -math.inf
    for _ in range(100):
        x, y = smooth(), smooth()
        probe = directional_derivative(GAUSS, 0.2, x, y, schedule, NORM2, 2)
        worst_quot = max(worst_quot, probe.monotonicity_violation)
        worst_order = max(worst_order, float(np.max(probe.minus.samples - probe.plus.samples)))

    lip = lipschitz_probe(GAUSS, 0.2, bump(grid, radius=1.0), 1.0, 100, 1e-4, 2, NORM2, seed=99)

    ok = (
        worst_monotone <= 0.0
        and worst_convex <= 1e-10
        and worst_homog <= 1e-10
        and worst_quot <= 1e-9
        and worst_order <= 1e-9
        and lip.lemma_ok
    )
    report(
        8,
        ok,
        f"monotone {worst_monotone:.1e} <= 0, convex {worst_convex:.1e} <= 1e-10, "
        f"homogeneous {worst_homog:.1e} <= 1e-10, quotient-monotone {worst_quot:.1e} <= 1e-9, "
        f"minus<=plus {worst_order:.1e} <= 1e-9, recentered bound within 1e-9 {lip.lemma_ok}",
    )


def test_c09_counterexample_divergence():
    # spreading-pole blow-up for the uncertain shift family: four decades of
    # eps with consecutive norm ratios >= 1.5 (theoretical rate 10^(1/4))
    grid = make_grid(-3.0, 3.0, 2400001)
    table = counterexample_scan(grid, 2.0, 0.5, [1e-2, 1e-3, 1e-4, 1e-5])
    ratios = [b / a for (_, a), (_, b) in zip(table, table[1:])]
    fam = PureShift(LambdaInterval(-1.0, 1.0))
    control = bump(grid, radius=0.5)
    ctrl_norms = [lp_norm(step_J(fam, 0.5, control), NORM2) for _ in table]
    ctrl_spread = (max(ctrl_norms) - min(ctrl_norms)) / min(ctrl_norms)
    ok = all(r >= 1.5 for r in ratios) and ctrl_spread <= 0.05
    report(9, ok, f"ratios {['%.3f' % r for r in ratios]} all >= 1.5, control spread {ctrl_spread:.2%} <= 5%")


def test_c10_growth_bounds():
    grid = make_grid(-10.0, 10.0, 1025)
    fs = [bump(grid, radius=1.0), bump(grid, radius=2.0), bump(grid, radius=4.0)]
    _, om_gauss = growth_bound_estimate(GAUSS, [0.125, 0.25, 0.375, 0.5], fs, 1e-4, 7, NORM2)
    _, om_cp = growth_bound_estimate(CP, [0.25, 0.5, 0.75, 1.0], fs, 1e-4, 7, NORM2)
    ok = om_gauss <= 0.55 and om_cp <= 1.05
    report(10, ok, f"fitted omega: gaussian {om_gauss:.3f} <= 0.55, compound Poisson {om_cp:.3f} <= 1.05")
