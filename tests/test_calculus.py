import math

import numpy as np
import pytest

from nisioenv import UsageError
from nisioenv.calculus import (
    _S,
    ball_samples,
    derivative_identity_check,
    directional_derivative,
    generator_fd,
    geometric_schedule,
    growth_bound_estimate,
    integral_identity_check,
    lipschitz_probe,
)
from nisioenv.envelope import EnvelopeParams, nisio_dyadic, step_J
from nisioenv.funcspace import GridFunction, bump, gaussian_profile, lp_norm, make_grid
from nisioenv.kernels import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PureShift,
    sup_generator,
)
from nisioenv.reference import compare

CP_INTERVAL = CompoundPoisson(LambdaInterval(0.0, 1.0), JumpDistribution(((1.0, 1.0),)))


def params_for(norm, n_max=6, tol_rel=1e-5):
    return EnvelopeParams(norm=norm, tol_rel=tol_rel, n_max=n_max)


def bump_second_derivative(grid, radius=1.0):
    """Analytic second derivative of the standard bump profile."""
    u = grid.nodes() / radius
    out = np.zeros(grid.n_nodes)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    f = np.exp(1.0 - 1.0 / (1.0 - ui**2))
    g = -2.0 * ui / (1.0 - ui**2) ** 2
    gp = (-2.0 - 6.0 * ui**2) / (1.0 - ui**2) ** 3
    out[inside] = f * (g * g + gp) / radius**2
    return GridFunction(grid, out)


class TestGeometricSchedule:
    def test_halving(self):
        s = geometric_schedule(0.1, 3)
        assert s == [0.1, 0.05, 0.025, 0.0125]
        with pytest.raises(UsageError):
            geometric_schedule(-1.0, 2)


class TestGeneratorFd:
    def test_constant_data_gives_zero(self, norm2, gauss_family):
        g = make_grid(-8.0, 8.0, 401)
        const = GridFunction(g, 2.0 * np.ones(401))
        est = generator_fd(gauss_family, const, 0.01, 2, params_for(norm2, n_max=3))
        assert all(err < 1e-8 for err in est.errors_vs_B)

    def test_singleton_heat_quotient_approaches_half_laplacian(self, norm2):
        # independent oracle: the analytic 1/2 f'' of the bump profile
        g = make_grid(-10.0, 10.0, 2001)
        f = bump(g, radius=2.0)
        fam = GaussianDrift(LambdaValues((0.0,)))
        est = generator_fd(fam, f, 0.02, 4, params_for(norm2, n_max=5))
        target = 0.5 * bump_second_derivative(g, radius=2.0)
        sl = g.interior_slice(0.05)
        errs = [
            math.sqrt(float(np.sum((q.samples[sl] - target.samples[sl]) ** 2) * g.dx))
            for q in est.quotients
        ]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.3 * errs[0]

    def test_interval_drift_errors_decrease(self, norm2, gauss_family):
        g = make_grid(-10.0, 10.0, 1001)
        f = bump(g, radius=2.0)
        est = generator_fd(gauss_family, f, 0.05, 4, params_for(norm2, n_max=5))
        assert all(b < a for a, b in zip(est.errors_vs_B, est.errors_vs_B[1:]))


class TestSharedTrajectories:
    # the runs share one trajectory over the horizons; each result has the bits of runs of its own

    @pytest.mark.parametrize("fam", [GaussianDrift(LambdaInterval(-1.0, 1.0)), CP_INTERVAL,
                                     PureShift(LambdaInterval(-1.0, 1.0))], ids=["gauss", "cp-interval", "shift"])
    def test_generator_matches_runs_of_its_own(self, norm2, fam, step_J_calls):
        g = make_grid(-8.0, 8.0, 257)
        f = bump(g, radius=1.0)
        params = params_for(norm2, n_max=4, tol_rel=1e-4)
        est = generator_fd(fam, f, 0.1, 4, params)
        shared = len(step_J_calls)
        target = sup_generator(fam, f)
        for h, q, err in zip(est.h_schedule, est.quotients, est.errors_vs_B, strict=True):
            own = (nisio_dyadic(fam, h, f, params.tol_rel, params.n_max, norm2, n_min=2).final - f) / h
            assert np.array_equal(q.samples, own.samples)
            assert err == compare(own, target, norm2).abs_err
        assert shared < len(step_J_calls) - shared

    def test_growth_fit_matches_unshared_loop(self, norm2, gauss_family, step_J_calls):
        g = make_grid(-8.0, 8.0, 257)
        fs = [bump(g, radius=1.0), gaussian_profile(g, sigma=0.8)]
        params, t_grid = params_for(norm2, n_max=4, tol_rel=1e-4), [0.125, 0.25, 0.5]
        fit = growth_bound_estimate(gauss_family, t_grid, fs, params)
        shared = len(step_J_calls)
        log_ratios = []
        for t in t_grid:
            ratio = 0.0
            for f in fs:
                ratio = max(ratio, lp_norm(_S(gauss_family, t, f, params), norm2) / lp_norm(f, norm2))
            log_ratios.append(math.log(ratio))
        omega, log_m = np.polyfit(np.asarray(t_grid), np.asarray(log_ratios), 1)
        assert fit == (float(math.exp(log_m)), float(omega))
        assert shared < len(step_J_calls) - shared


class TestDirectionalDerivative:
    def test_time_zero_identity(self, norm2, gauss_family, grid_small, make_smooth):
        rng = np.random.default_rng(5)
        x, y = make_smooth(grid_small, rng), make_smooth(grid_small, rng)
        probe = directional_derivative(gauss_family, 0.0, x, y, geometric_schedule(0.1, 2), params_for(norm2))
        assert np.array_equal(probe.plus.samples, y.samples)
        assert np.array_equal(probe.minus.samples, y.samples)
        assert probe.gap == 0.0

    def test_both_sides_share_one_base(self, norm2, gauss_family, bump_small, step_J_calls):
        # S(t)x once, then one chain per h and side: (2k + 1) level-L chains
        x = bump_small
        directional_derivative(gauss_family, 0.25, x, x, geometric_schedule(0.1, 2), params_for(norm2, n_max=3))
        assert len(step_J_calls) == (2 * 3 + 1) * 2**3

    def test_linear_member_derivative_is_semigroup_applied(self, norm2):
        # for a linear (singleton) family the Gateaux derivative at any x
        # is S(t) applied to the direction
        g = make_grid(-8.0, 8.0, 801)
        fam = GaussianDrift(LambdaValues((0.5,)))
        params = params_for(norm2, n_max=4)
        rng = np.random.default_rng(7)
        x = bump(g, radius=1.0)
        y = GridFunction(g, np.convolve(rng.standard_normal(801), np.ones(9) / 9.0, mode="same"))
        probe = directional_derivative(fam, 0.3, x, y, geometric_schedule(0.1, 3), params)
        direct = _S(fam, 0.3, y, params, level=params.n_max)
        rel = lp_norm(probe.plus - direct, norm2) / max(lp_norm(direct, norm2), 1e-300)
        assert rel < 1e-9
        assert probe.gap / max(lp_norm(direct, norm2), 1e-300) < 1e-9

    def test_zero_base_quotients_h_independent(self, norm2, gauss_family):
        # positive homogeneity: (S(t)(h y) - S(t)0)/h does not depend on h
        g = make_grid(-8.0, 8.0, 401)
        zero = GridFunction(g, np.zeros(401))
        y = bump(g, radius=1.0)
        probe = directional_derivative(
            gauss_family, 0.25, zero, y, geometric_schedule(0.2, 3), params_for(norm2, n_max=4)
        )
        ref = probe.quotients_plus[0]
        for q in probe.quotients_plus[1:]:
            rel = lp_norm(q - ref, norm2) / max(lp_norm(ref, norm2), 1e-300)
            assert rel < 1e-10


class TestDerivativeIdentity:
    def test_time_zero_matches_generator(self, norm2, gauss_family):
        g = make_grid(-10.0, 10.0, 1001)
        f = bump(g, radius=2.0)
        report = derivative_identity_check(gauss_family, 0.0, f, params_for(norm2, n_max=6))
        assert report.passed

    def test_singleton_heat_family(self, norm2):
        # linear commutation: all three quantities equal S(t) (1/2 f'')
        g = make_grid(-10.0, 10.0, 1001)
        f = bump(g, radius=2.0)
        fam = GaussianDrift(LambdaValues((0.0,)))
        params = params_for(norm2, n_max=6)
        report = derivative_identity_check(fam, 0.25, f, params)
        assert report.passed
        probe = directional_derivative(fam, 0.25, f, sup_generator(fam, f), geometric_schedule(), params)
        evolved = _S(fam, 0.25, 0.5 * bump_second_derivative(g, radius=2.0), params, level=6)
        rel = lp_norm(probe.plus - evolved, norm2) / lp_norm(evolved, norm2)
        assert rel < 5e-2

    def test_interval_drift_passes_and_shrinks(self, norm2, gauss_family):
        # gaps shrink when the quotient step, the grid and the dyadic level
        # are all refined together
        reports = []
        for n_nodes, n_max, halvings in ((1025, 6, 4), (2049, 8, 6)):
            g = make_grid(-10.0, 10.0, n_nodes)
            f = bump(g, radius=1.0)
            reports.append(
                derivative_identity_check(
                    gauss_family, 0.25, f, params_for(norm2, n_max=n_max),
                    h_schedule=geometric_schedule(0.1, halvings),
                )
            )
        coarse, fine = reports
        assert coarse.passed and fine.passed
        assert max(fine.gaps().values()) < max(coarse.gaps().values())

    @pytest.mark.parametrize("family", ["gauss", "cp"])
    def test_gaps_equal_full_schedule_probe(self, norm2, gauss_family, bump_small, family):
        # reference: the forward quotient beside a probe over the whole
        # default schedule, of which only the smallest-h quotients count
        fam = gauss_family if family == "gauss" else CP_INTERVAL
        f, t, params = bump_small, 0.25, params_for(norm2, n_max=4)
        schedule = geometric_schedule()
        h = schedule[-1]
        forward = (_S(fam, t + h, f, params, level=4) - _S(fam, t, f, params, level=4)) / h
        probe = directional_derivative(fam, t, f, sup_generator(fam, f), schedule, params)
        scale = max(lp_norm(forward, norm2), lp_norm(probe.plus, norm2), lp_norm(probe.minus, norm2), 1e-14)
        expected = [
            compare(a, b, norm2).abs_err / scale
            for a, b in ((forward, probe.plus), (forward, probe.minus), (probe.plus, probe.minus))
        ]
        report = derivative_identity_check(fam, t, f, params)
        assert list(report.gaps().values()) == expected
        assert report.h == h

    def test_rejects_increasing_schedule(self, norm2, gauss_family, bump_small):
        with pytest.raises(UsageError):
            derivative_identity_check(gauss_family, 0.25, bump_small, params_for(norm2, n_max=2),
                                      h_schedule=[0.01, 0.02])


class TestIntegralIdentity:
    @pytest.mark.parametrize("family", ["gauss", "cp"])
    @pytest.mark.parametrize("quad_nodes, level", [(5, 3), (7, 3), (9, 1)])
    def test_equals_prefixes_of_one_mesh(self, norm2, gauss_family, bump_small, family, quad_nodes, level):
        # reference: each Simpson node j marched afresh from f by j*m steps of
        # exactly t/M, M = m*(quad_nodes - 1) and
        # m = ceil(2^(level+1)/(quad_nodes - 1))
        fam = gauss_family if family == "gauss" else CP_INTERVAL
        f, t, h_dir = bump_small, 0.5, geometric_schedule()[-1]
        m = math.ceil(2 ** (level + 1) / (quad_nodes - 1))
        steps = m * (quad_nodes - 1)

        def march(g, count):
            for _ in range(count):
                g = step_J(fam, t / steps, g)
            return g

        weights = np.ones(quad_nodes)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights = weights * (t / (quad_nodes - 1)) / 3.0
        direction = sup_generator(fam, f)
        acc = weights[0] * direction.samples
        for j in range(1, quad_nodes):
            quotient = (march(f + h_dir * direction, j * m) - march(f, j * m)) / h_dir
            acc = acc + weights[j] * quotient.samples
        lhs = march(f, steps) - f
        expected = lp_norm(lhs - GridFunction(f.grid, acc), norm2) / lp_norm(lhs, norm2)
        assert integral_identity_check(fam, t, f, quad_nodes, params_for(norm2, n_max=level)) == expected

    def test_one_step_size(self, norm2, gauss_family, bump_small, step_J_calls):
        # M = 18 steps of exactly t/18 on each path; the times t*k/18 would give 6 distinct gaps at t = 0.1
        integral_identity_check(gauss_family, 0.1, bump_small, 7, params_for(norm2, n_max=3))
        assert len(step_J_calls) == 2 * 18 and set(step_J_calls) == {0.1 / 18}

    def test_zero_data_deviation_zero(self, norm2, gauss_family, grid_small):
        zero = GridFunction(grid_small, np.zeros(grid_small.n_nodes))
        dev = integral_identity_check(gauss_family, 0.5, zero, 5, params_for(norm2, n_max=3))
        assert dev == 0.0

    def test_time_zero_deviation_zero(self, norm2, gauss_family, bump_small):
        assert integral_identity_check(gauss_family, 0.0, bump_small, 5, params_for(norm2, n_max=3)) == 0.0

    def test_singleton_heat(self, norm2):
        g = make_grid(-10.0, 10.0, 1001)
        f = bump(g, radius=2.0)
        fam = GaussianDrift(LambdaValues((0.0,)))
        dev = integral_identity_check(fam, 0.5, f, 33, params_for(norm2, n_max=6))
        assert dev <= 2e-2

    def test_rejects_even_node_count(self, norm2, gauss_family, grid_small, bump_small):
        with pytest.raises(UsageError):
            integral_identity_check(gauss_family, 0.5, bump_small, 8, params_for(norm2))


class TestLipschitzProbe:
    def test_singleton_heat_is_contraction(self, norm2):
        g = make_grid(-8.0, 8.0, 513)
        fam = GaussianDrift(LambdaValues((0.0,)))
        f0 = bump(g, radius=1.0)
        probe = lipschitz_probe(fam, 0.25, f0, 1.0, 12, params_for(norm2, n_max=3), seed=0)
        assert probe.L <= 1.0 + 1e-6
        assert probe.lemma_ok

    def test_stable_across_seeds(self, norm2, gauss_family):
        g = make_grid(-8.0, 8.0, 513)
        f0 = bump(g, radius=1.0)
        params = params_for(norm2, n_max=3)
        l0 = lipschitz_probe(gauss_family, 0.5, f0, 1.0, 16, params, seed=0).L
        l1 = lipschitz_probe(gauss_family, 0.5, f0, 1.0, 16, params, seed=1).L
        assert math.isfinite(l0) and l0 > 0
        assert abs(l1 - l0) / l0 <= 0.2

    def test_tiny_radius_guard(self, norm2, gauss_family):
        g = make_grid(-4.0, 4.0, 129)
        f0 = bump(g, radius=1.0)
        probe = lipschitz_probe(gauss_family, 0.1, f0, 1e-30, 3, params_for(norm2, n_max=2), seed=0)
        assert probe.L == 0.0

    def test_global_lipschitz_bound_sublinear(self, norm2, gauss_family):
        # sublinear and bounded implies Lipschitz with constant 2 ||S||_1
        g = make_grid(-8.0, 8.0, 513)
        params = params_for(norm2, n_max=3)
        zero = GridFunction(g, np.zeros(513))
        unit_ball = ball_samples(zero, 1.0, 10, norm2, seed=3)
        b1 = max(lp_norm(_S(gauss_family, 0.25, u, params), norm2) for u in unit_ball)
        probe = lipschitz_probe(gauss_family, 0.25, bump(g, radius=1.0), 1.0, 10, params, seed=4)
        assert probe.L <= 2.0 * b1 + 1e-6


class TestGrowthBound:
    def test_singleton_heat_contraction(self, norm2):
        # the L^2 operator norm of the heat semigroup is 1, approached by wide
        # profiles; narrow samples only see the contraction from below
        g = make_grid(-10.0, 10.0, 1001)
        fam = GaussianDrift(LambdaValues((0.0,)))
        fs = [gaussian_profile(g, sigma=3.0), gaussian_profile(g, sigma=5.0), bump(g, radius=4.0)]
        M, omega = growth_bound_estimate(fam, [0.125, 0.25, 0.5], fs, params_for(norm2, n_max=5))
        assert abs(omega) <= 0.05
        assert 0.9 <= M <= 1.1

    def test_compound_poisson_bound(self, norm2, cp_family):
        g = make_grid(-10.0, 10.0, 1001)
        fs = [bump(g, radius=1.0), bump(g, radius=2.0)]
        _, omega = growth_bound_estimate(cp_family, [0.25, 0.5, 1.0], fs, params_for(norm2, n_max=6))
        assert omega <= 1.05

    def test_gaussian_drift_bound(self, norm2, gauss_family):
        g = make_grid(-10.0, 10.0, 1001)
        fs = [bump(g, radius=1.0), gaussian_profile(g, sigma=0.8)]
        _, omega = growth_bound_estimate(gauss_family, [0.125, 0.25, 0.5], fs, params_for(norm2, n_max=6))
        assert omega <= 0.55


class TestStructuralRegressions:
    def test_closedness_regression(self, norm2, gauss_family):
        # quotient at fixed h of converging bump dilations converges to the
        # quotient of the limit, uniformly over the sequence
        g = make_grid(-10.0, 10.0, 1001)
        params = params_for(norm2, n_max=4)
        h = 0.05
        f_lim = bump(g, radius=2.0)
        q_lim = (_S(gauss_family, h, f_lim, params, level=4) - f_lim) / h
        gaps, dists = [], []
        for n in (4, 8, 16, 32):
            f_n = bump(g, radius=2.0 + 1.0 / n)
            q_n = (_S(gauss_family, h, f_n, params, level=4) - f_n) / h
            dists.append(lp_norm(f_n - f_lim, norm2))
            gaps.append(lp_norm(q_n - q_lim, norm2))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        ratios = [gap / dist for gap, dist in zip(gaps, dists)]
        assert max(ratios) <= 3.0 * ratios[0]

    def test_time_continuity(self, norm2, gauss_family):
        # || S(t + delta)f - S(t)f || decreases with delta
        g = make_grid(-10.0, 10.0, 1001)
        f = bump(g, radius=1.0)
        params = params_for(norm2, n_max=6)
        base = _S(gauss_family, 0.25, f, params, level=6)
        diffs = [
            lp_norm(_S(gauss_family, 0.25 + d, f, params, level=6) - base, norm2)
            for d in (0.08, 0.04, 0.02, 0.01)
        ]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
