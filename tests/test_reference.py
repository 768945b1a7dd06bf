import math
import tracemalloc

import numpy as np
import pytest

from conftest import _interp_shift_arr
from nisioenv import ConfigurationError, PNorm, UsageError
from nisioenv.cli import monotone_stepper_violation
from nisioenv.envelope import nisio_dyadic, step_J
from nisioenv.funcspace import GridFunction, bump, gaussian_profile, lp_norm, make_grid
from nisioenv.kernels import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PureShift,
    apply_member,
    sup_generator,
    upper_bound_C,
)
from nisioenv.reference import (
    compare,
    counterexample_scan,
    hjb_step,
    hjb_upwind,
    ode_reference,
    pole_initial_condition,
    scan_epsilons,
)

NAN = float("nan")
_CP = CompoundPoisson(LambdaValues((0.0, 1.0)), JumpDistribution(((0.1, 1.0),)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: hjb_upwind(f, NAN, 1.0), id="hjb-t"),
    pytest.param(lambda f: hjb_upwind(f, 0.5, NAN), id="hjb-lambda_bar"),
    pytest.param(lambda f: ode_reference(_CP, f, NAN, 0.01), id="ode-t"),
    pytest.param(lambda f: ode_reference(_CP, f, 0.5, NAN), id="ode-dt"),
    pytest.param(lambda f: upper_bound_C(GaussianDrift(LambdaInterval(-1.0, 1.0)), NAN, f, PNorm(2.0)),
                 id="upper_bound_C-h"),
    pytest.param(lambda f: nisio_dyadic(_CP, 0.5, f, NAN, 3, PNorm(2.0)), id="nisio-tol_rel"),
    pytest.param(lambda f: nisio_dyadic(_CP, NAN, f, 1e-3, 3, PNorm(2.0)), id="nisio-t"),
])
def test_nan_argument_is_usage_error(call):
    # a NaN fails every comparison, so each check must be `not x > 0` or
    # `not x >= 0`: not a ConfigurationError naming config keys, a ValueError
    # from int(nan), or a silent run to n_max
    with pytest.raises(UsageError, match="nan"):
        call(bump(make_grid(-2.0, 2.0, 41), radius=1.0))


@pytest.mark.parametrize("call", [
    pytest.param(lambda f: hjb_upwind(f, 0.5, 1e308), id="hjb-zero-step"),  # lam / dx = inf on dx = 0.1
    pytest.param(lambda f: hjb_upwind(f, 1e308, 1.0), id="hjb-t"),  # t / dt = 1.2e310
    pytest.param(lambda f: ode_reference(_CP, f, 0.5, 1e-320), id="ode-dt"),
])
def test_infinite_step_count_is_usage_error(call):
    # not an OverflowError from int(inf)
    with pytest.raises(UsageError, match="step count"):
        call(bump(make_grid(-2.0, 2.0, 41), radius=1.0))


class TestHjbUpwind:
    def test_zero_drift_matches_heat_closed_form(self, norm2):
        # lam = 0 reduces to the heat equation; N(0, s0) widens to N(0, s0+t)
        g = make_grid(-10.0, 10.0, 2001)
        s0, t = 0.5, 0.5
        f = gaussian_profile(g, sigma=math.sqrt(s0))
        sol = hjb_upwind(f, t, 0.0)
        exact = GridFunction(g, math.sqrt(s0 / (s0 + t)) * np.exp(-g.nodes() ** 2 / (2.0 * (s0 + t))))
        assert compare(sol, exact, norm2).rel_err < 1e-3

    def test_mutated_downwind_sign_breaks_monotonicity(self):
        # mutation check: advecting from the wrong side puts a negative weight
        # on a neighbor node, which the monotonicity probe must catch
        def broken_step(u, dt, dx):
            out = np.zeros_like(u)
            diff = u[2:] - 2.0 * u[1:-1] + u[:-2]
            out[1:-1] = u[1:-1] + dt * (0.5 * diff / (dx * dx) + 20.0 * (u[1:-1] - u[2:]) / dx)
            return out

        g = make_grid(-8.0, 8.0, 257)
        rng = np.random.default_rng(31)
        viol = monotone_stepper_violation(broken_step, g, rng, pairs=10, dt=0.4 * g.dx**2, steps=30)
        assert viol > 1e-12

    @pytest.mark.parametrize("lambda_bar", [0.0, 0.7, 1.0, 1.3])
    def test_step_bit_identical_to_formula(self, lambda_bar):
        # the in-place step against the scheme written out with temporaries
        rng = np.random.default_rng(8)
        u = rng.standard_normal(301)
        dt, dx = 1e-4, 2.0 / 75.0
        upw = np.maximum.reduce([u[2:] - u[1:-1], u[:-2] - u[1:-1], np.zeros(299)])
        expected = np.zeros(301)
        expected[1:-1] = u[1:-1] + dt * (0.5 * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx) + lambda_bar * upw / dx)
        assert np.array_equal(hjb_step(u, dt, dx, lambda_bar), expected)

    @pytest.mark.parametrize("lambda_bar", [0.0, 0.7, 1.0, 1.3])
    def test_steps_bit_identical_to_hjb_step_loop(self, lambda_bar):
        # hjb_upwind reuses its buffers; each step must equal hjb_step's
        g = make_grid(-4.0, 4.0, 301)  # dx = 2/75, not a power of two
        rng = np.random.default_rng(7)
        for f in (bump(g, radius=1.0), GridFunction(g, rng.standard_normal(301))):
            t = 0.01
            dt_max = 0.9 / (1.0 / g.dx**2 + lambda_bar / g.dx)
            steps = math.ceil(t / dt_max)
            u = f.samples
            for _ in range(steps):
                u = hjb_step(u, t / steps, g.dx, lambda_bar)
            assert np.array_equal(hjb_upwind(f, t, lambda_bar).samples, u)

    def test_parameter_validation(self):
        g = make_grid(-1.0, 1.0, 101)
        f = bump(g, radius=0.3)
        with pytest.raises(UsageError):
            hjb_upwind(f, 0.1, 1.0, cfl=0.0)
        with pytest.raises(UsageError):
            hjb_upwind(f, 0.1, 1.0, cfl=1.5)
        with pytest.raises(UsageError):
            hjb_upwind(f, -0.1, 1.0)


class TestOdeReference:
    def test_zero_intensity_is_identity(self):
        g = make_grid(-4.0, 4.0, 401)
        fam = CompoundPoisson(LambdaValues((0.0,)), JumpDistribution(((1.0, 1.0),)))
        f = bump(g, radius=1.0)
        out = ode_reference(fam, f, 1.0, 1e-2)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-14

    def test_singleton_matches_poisson_series(self, norm2):
        # linear case: the exact solution is the member semigroup itself
        g = make_grid(-10.0, 10.0, 2001)
        fam = CompoundPoisson(LambdaValues((1.0,)), JumpDistribution(((1.0, 1.0),)))
        f = bump(g, radius=1.0)
        out = ode_reference(fam, f, 1.0, 1e-3)
        series = apply_member(fam, 1.0, 1.0, f)
        assert lp_norm(out - series, norm2) < 1e-8

    def test_fourth_order_step_halving(self, norm2):
        g = make_grid(-10.0, 10.0, 1001)
        fam = CompoundPoisson(LambdaValues((1.0,)), JumpDistribution(((1.0, 1.0),)))
        f = bump(g, radius=1.0)
        exact = apply_member(fam, 1.0, 1.0, f)
        e_dt = lp_norm(ode_reference(fam, f, 1.0, 0.05) - exact, norm2)
        e_half = lp_norm(ode_reference(fam, f, 1.0, 0.025) - exact, norm2)
        assert 12.0 <= e_dt / e_half <= 20.0

    @pytest.mark.parametrize("lambda_set", [LambdaValues((0.0, 0.5, 1.0)), LambdaInterval(0.2, 1.5)])
    def test_bit_identical_to_rk4_on_grid_functions(self, lambda_set):
        # the stages run on arrays; each must equal sup_generator's samples
        g = make_grid(-6.0, 6.0, 601)
        fam = CompoundPoisson(lambda_set, JumpDistribution(((-0.7, 0.3), (1.0, 0.7))))
        f = bump(g, radius=1.0)
        t, steps = 0.5, 20
        dt = t / steps
        u = f
        for _ in range(steps):
            k1 = sup_generator(fam, u)
            k2 = sup_generator(fam, u + 0.5 * dt * k1)
            k3 = sup_generator(fam, u + 0.5 * dt * k2)
            k4 = sup_generator(fam, u + dt * k3)
            u = GridFunction(g, u.samples + (dt / 6.0) * (k1.samples + 2.0 * k2.samples + 2.0 * k3.samples + k4.samples))
        assert np.array_equal(ode_reference(fam, f, t, dt).samples, u.samples)

    @pytest.mark.parametrize("atoms", [
        ((0.2, 1.0),),  # one whole-node offset on dx = 0.1
        ((-0.37, 1.0),),
        ((0.2, 0.45), (-0.73, 0.55)),
        ((0.3, 0.25), (-1.15, 0.35), (0.055, 0.4)),
        ((0.0, 1.0),),  # on 201 nodes: 0 nodes, exactly -+n nodes, half a node inside +n, beyond
        ((-20.1, 0.3), (0.0, 0.3), (20.05, 0.2), (31.0, 0.2)),
        ((20.1, 0.5), (-22.22, 0.25), (0.1, 0.25)),
    ])
    @pytest.mark.parametrize("lambda_set", [LambdaValues((0.0, 0.6, 1.4)), LambdaInterval(0.3, 1.2)])
    def test_bit_identical_to_rk4_written_out(self, atoms, lambda_set):
        # the RK4 loop with every stage a fresh array, on data with +-0 and
        # +-1e-320, against the oracle's preallocated stages
        g = make_grid(-10.0, 10.0, 201)
        fam = CompoundPoisson(lambda_set, JumpDistribution(atoms))
        rng = np.random.default_rng(len(atoms))
        u = rng.choice([0.0, -0.0, 1e-320, -1e-320, -1.0, 0.5], size=201)
        f = GridFunction(g, np.where(rng.random(201) < 0.1, rng.standard_normal(201), u))

        def rhs(arr):
            mixed = np.zeros(201)
            for y, w in fam.mu.atoms:
                mixed += w * _interp_shift_arr(arr, y, g.dx)
            b = mixed - arr
            if isinstance(lambda_set, LambdaInterval):
                return np.maximum(lambda_set.lo * b, lambda_set.hi * b)
            return np.maximum.reduce([v * b for v in lambda_set.values])

        t, steps = 0.3, 30
        dt = t / steps
        u = f.samples
        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = ode_reference(fam, f, t, 0.01).samples
        assert np.array_equal(got, u) and np.array_equal(np.signbit(got), np.signbit(u))
        assert not got.flags.writeable and not np.shares_memory(got, f.samples)

    @pytest.mark.parametrize("lambda_set", [LambdaValues((0.0, 1.0)), LambdaInterval(0.0, 1.0)])
    def test_alternating_float_max_stage_raises(self, lambda_set):
        # mu * f - f is -2 f at the float range: the first stage overflows
        g = make_grid(-5.0, 5.0, 101)
        big = np.finfo(float).max
        f = GridFunction(g, np.where(np.arange(101) % 2 == 0, big, -big))
        fam = CompoundPoisson(lambda_set, JumpDistribution(((0.1, 1.0),)))
        with pytest.raises(UsageError, match="an RK4 stage of ode_reference is not finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            ode_reference(fam, f, 0.1, 0.01)

    def test_overflowing_stage_raises(self):
        # adjacent nodes of opposite sign near the float range: the jump to
        # the neighbour overflows the generator in the first stage
        g = make_grid(-1.0, 1.0, 201)
        vals = np.zeros(201)
        vals[100], vals[101] = 1.5e308, -1.5e308
        fam = CompoundPoisson(LambdaValues((1.0,)), JumpDistribution(((0.01, 1.0),)))
        with pytest.raises(UsageError), np.errstate(over="ignore"):
            ode_reference(fam, GridFunction(g, vals), 0.1, 0.01)

    def test_rejects_non_compound_poisson(self, gauss_family):
        g = make_grid(-1.0, 1.0, 101)
        with pytest.raises(UsageError):
            ode_reference(gauss_family, bump(g, radius=0.3), 0.5, 1e-2)


class TestCounterexampleScan:
    def test_norm_ratios_exceed_rate(self):
        g = make_grid(-3.0, 3.0, 240001)
        table = counterexample_scan(g, 2.0, 0.5, [1e-2, 1e-3, 1e-4])
        ratios = [b / a for (_, a), (_, b) in zip(table, table[1:])]
        assert all(r >= 1.5 for r in ratios)
        assert all(b > a for (_, a), (_, b) in zip(table, table[1:]))

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_scan_holds_under_three_grid_arrays(self, p):
        # each step reads its pole, each norm its step result, and nothing
        # outlives its use: the traced peak stays under three grid-long
        # float arrays (about four at p = 1.5 and three at p = 2 when the
        # filter, lp_norm and the scan worked on the whole grid)
        g = make_grid(-3.0, 3.0, 240001)
        eps = [1e-2, 1e-3, 1e-4]
        counterexample_scan(g, p, 0.5, eps)  # imports scipy and fills the plan cache
        tracemalloc.start()
        try:
            counterexample_scan(g, p, 0.5, eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * g.n_nodes

    def test_bounded_control_stays_bounded(self, norm2):
        # shifts of a bounded profile keep a bounded supremum
        g = make_grid(-3.0, 3.0, 24001)
        fam = PureShift(LambdaInterval(-1.0, 1.0))
        f = bump(g, radius=0.5)
        out = step_J(fam, 0.5, f)
        measure = 2.0 * (0.5 + 0.5)
        assert lp_norm(out, norm2) <= f.max_abs() * measure ** 0.5

    def test_zero_shift_singleton_keeps_norm(self, norm2):
        g = make_grid(-3.0, 3.0, 24001)
        f_eps = pole_initial_condition(g, 2.0, 0.01)
        fam = PureShift(LambdaValues((0.0,)))
        out = step_J(fam, 0.5, f_eps)
        assert np.array_equal(out.samples, f_eps.samples)
        assert lp_norm(out, norm2) == lp_norm(f_eps, norm2)

    @pytest.mark.parametrize("lower, upper, n_nodes", [
        (-3.0, 3.0, 24001), (-0.7, 2.3, 3001), (-1.0, 1.0, 801), (1.5, 3.0, 101), (-5.0, -0.999, 4003),
        (1.0 - 1e-15, 1.0 + 1e-15, 201)])  # nodes too dense for their floats around x = 1
    @pytest.mark.parametrize("p", [1.25, 2.0])
    def test_pole_matches_where_formula(self, lower, upper, n_nodes, p):
        # the capped pole computed on the whole grid with np.where, against
        # the pole that raises only the nodes eps <= |x| <= 1 to a power
        g = make_grid(lower, upper, n_nodes)
        a, x = 1.0 / (2.0 * p), g.nodes()
        node = float(np.min(np.abs(x[np.abs(x) > 0.05]), initial=0.3))
        for eps in (node, node + g.dx / 3.0, 0.01, 2.0):  # on a node, off it, and wider than [-1, 1]
            absx = np.abs(x)
            want = np.where(absx >= eps, np.where(absx > 0, absx, eps) ** (-a), eps ** (-a))
            want = np.where(absx <= 1.0, want, 0.0)
            got = pole_initial_condition(g, p, eps).samples
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), eps

    def test_under_resolved_epsilon_names_required_grid(self):
        g = make_grid(-3.0, 3.0, 1001)
        with pytest.raises(ConfigurationError, match="nodes"):
            counterexample_scan(g, 2.0, 0.5, [1e-4])

    def test_epsilons_must_decrease(self):
        g = make_grid(-3.0, 3.0, 24001)
        with pytest.raises(UsageError):
            counterexample_scan(g, 2.0, 0.5, [1e-3, 1e-2])

    def test_time_domain(self):
        g = make_grid(-3.0, 3.0, 24001)
        with pytest.raises(UsageError):
            counterexample_scan(g, 2.0, 1.5, [1e-2])

    def test_default_ladder(self):
        # decades from 0.1 by repeated division by 10, down to eps >= 4 dx;
        # 601 nodes resolve only 0.1, and the second decade names the grid
        assert scan_epsilons(make_grid(-3.0, 3.0, 2401), 0.5) == [0.1, 0.01]
        assert scan_epsilons(make_grid(-3.0, 3.0, 240001), 0.5) == [0.1, 0.01, 0.001, 1e-4]
        with pytest.raises(ConfigurationError, match="2401 nodes"):
            scan_epsilons(make_grid(-3.0, 3.0, 601), 0.5)


class TestCompare:
    def test_identical(self, norm2, bump_small):
        out = compare(bump_small, bump_small, norm2)
        assert out.abs_err == 0.0 and out.rel_err == 0.0 and out.max_err == 0.0

    def test_constant_offset(self, norm2):
        g = make_grid(0.0, 1.0, 101)
        f = GridFunction(g, np.ones(101))
        h = GridFunction(g, np.ones(101) + 0.5)
        margin = 0.05
        out = compare(f, h, norm2, boundary_margin=margin)
        k = math.floor(margin * g.n_nodes)
        window_measure = (g.n_nodes - 2 * k) * g.dx
        assert out.abs_err == pytest.approx(0.5 * window_measure**0.5, rel=1e-12)
        assert out.max_err == pytest.approx(0.5, rel=1e-15)

    def test_relative_error_guard(self, norm2):
        g = make_grid(0.0, 1.0, 101)
        zero = GridFunction(g, np.zeros(101))
        tiny = GridFunction(g, 1e-20 * np.ones(101))
        out = compare(zero, tiny, norm2)
        assert math.isfinite(out.rel_err)
