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
    _rk4_steps,
    _upwind_steps,
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
    pytest.param(lambda f: hjb_upwind(f, NAN, -1.0, 1.0), id="hjb-t"),
    pytest.param(lambda f: hjb_upwind(f, 0.5, -1.0, NAN), id="hjb-lambda_bar"),
    pytest.param(lambda f: hjb_step(f.samples, 1e-3, f.grid.dx, NAN, 1.0), id="hjb_step-lo"),
    pytest.param(lambda f: hjb_step(f.samples, 1e-3, f.grid.dx, NAN), id="hjb_step-single"),
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
    pytest.param(lambda f: hjb_step(f.samples, 1e-3, f.grid.dx, 1.0, -1.0), id="hjb_step"),
    pytest.param(lambda f: hjb_upwind(f, 0.5, 1.0, -1.0), id="hjb_upwind"),
])
def test_inverted_drift_set_is_usage_error(call):
    # [1, -1] is no drift set: not read as [-1, 1], nor as its ends' own drifts
    with pytest.raises(UsageError, match=r"lo <= hi, got \[1.0, -1.0\]"):
        call(bump(make_grid(-2.0, 2.0, 41), radius=1.0))


# each oracle call beside the call of its step function, which states the rule the call breaks: a count that
# is not finite, then a cfl or dt out of range at t = 0.5 and at t = 0 (the rule is checked before t = 0 returns)
STEP_RULES = [
    pytest.param(lambda f: hjb_upwind(f, 0.5, -1e308, 1e308), lambda: _upwind_steps(0.5, 0.1, 1e308, 0.9),
                 id="hjb-zero-step"),  # lam / dx = inf on dx = 0.1
    pytest.param(lambda f: hjb_upwind(f, 1e308, -1.0, 1.0), lambda: _upwind_steps(1e308, 0.1, 1.0, 0.9),
                 id="hjb-t"),  # t / dt = 1.2e310
    pytest.param(lambda f: ode_reference(_CP, f, 0.5, 1e-320), lambda: _rk4_steps(0.5, 1e-320), id="ode-dt"),
    *[pytest.param(lambda f, t=t, cfl=cfl: hjb_upwind(f, t, -1.0, 1.0, cfl=cfl),
                   lambda t=t, cfl=cfl: _upwind_steps(t, 0.1, 1.0, cfl), id=f"hjb-cfl{cfl:g}-t{t:g}")
      for cfl in (0.0, 1.5) for t in (0.5, 0.0)],
    *[pytest.param(lambda f, t=t, dt=dt: ode_reference(_CP, f, t, dt), lambda t=t, dt=dt: _rk4_steps(t, dt),
                   id=f"ode-dt{dt:g}-t{t:g}")
      for dt in (0.0, NAN) for t in (0.5, 0.0)],
]


@pytest.mark.parametrize("call, rule", STEP_RULES)
def test_infinite_step_count_is_usage_error(call, rule):
    # the oracle raises its step function's UsageError: not an OverflowError from int(inf), and not a check of
    # its own
    with pytest.raises(UsageError) as stated:
        rule()
    with pytest.raises(UsageError) as raised:
        call(bump(make_grid(-2.0, 2.0, 41), radius=1.0))
    assert str(raised.value) == str(stated.value)


# drift sets [lo, hi]: symmetric ones by their lambda_bar, then one that reads only D+u, one only D-u and two
# that hold 0 with ends of unequal weights
HULLS = [(-lam, lam) for lam in (0.0, 0.7, 1.0, 1.3)] + [(0.2, 0.9), (-1.3, -0.4), (-0.4, 1.1), (-1.2, 0.3)]
HULL_IDS = [str(hi) if lo == -hi else f"{lo},{hi}" for lo, hi in HULLS]


class TestHjbUpwind:
    def test_zero_drift_matches_heat_closed_form(self, norm2):
        # lam = 0 reduces to the heat equation; N(0, s0) widens to N(0, s0+t)
        g = make_grid(-10.0, 10.0, 2001)
        s0, t = 0.5, 0.5
        f = gaussian_profile(g, sigma=math.sqrt(s0))
        sol = hjb_upwind(f, t, 0.0, 0.0)
        exact = GridFunction(g, math.sqrt(s0 / (s0 + t)) * np.exp(-g.nodes() ** 2 / (2.0 * (s0 + t))))
        assert compare(sol, exact, norm2).rel_err < 1e-3

    def test_float_max_data_runs_scaled(self):
        # a spike at the float maximum: the difference sum u[i+1] - u[i] + u[i-1] - u[i] is -2 max, past the
        # floats; the scheme runs on f / 2^1023 and scales back, exactly, so it gives the bits of the run at height 2
        g = make_grid(-1.0, 1.0, 201)
        vals = np.zeros(201)
        vals[100] = np.finfo(float).max
        got = hjb_upwind(GridFunction(g, vals), 0.01, -1.0, 1.0).samples
        assert np.isfinite(got).all() and got.max() <= vals[100]
        assert np.array_equal(got, np.ldexp(hjb_upwind(GridFunction(g, np.ldexp(vals, -1023)), 0.01, -1.0,
                                                       1.0).samples, 1023))

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

    @pytest.mark.parametrize("lo, hi", HULLS, ids=HULL_IDS)
    def test_step_bit_identical_to_formula(self, lo, hi):
        # the in-place step against its coefficient form written out with
        # temporaries: the weight |c| dt / dx of each end c on the difference
        # it is upwind of, and 0 in the max when [lo, hi] holds it
        rng = np.random.default_rng(8)
        u = rng.standard_normal(301)
        dt, dx = 1e-4, 2.0 / 75.0
        a, b = u[2:] - u[1:-1], u[:-2] - u[1:-1]
        ends = [abs(c) * dt / dx * (a if c >= 0.0 else b) for c in (hi, lo)]
        floor = 0.0 if lo <= 0.0 <= hi else -np.inf
        expected = np.zeros(301)
        expected[1:-1] = u[1:-1] + (0.5 * dt / (dx * dx) * (a + b) + np.maximum(np.maximum(*ends), floor))
        assert np.array_equal(hjb_step(u, dt, dx, lo, hi), expected)

    def test_symmetric_step_bytes_fuzz(self):
        # a symmetric set scales the max of a and b once, where the written-out
        # step scales both ends; 3 000 random steps over radii 0-3, spacings,
        # cfl factors and data of +-0, +-1e-320, +-1e300 and normals must give
        # the same bytes, signs of zeros included
        rng = np.random.default_rng(20)
        values = np.array([0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300])
        for _ in range(3000):
            n = int(rng.integers(3, 40))
            u = np.where(rng.random(n) < 0.7, rng.choice(values, n), rng.standard_normal(n))
            lam, dx = float(rng.integers(0, 4)) * rng.choice([1.0, rng.random()]), 10.0 ** rng.uniform(-3.0, 0.0)
            dt = rng.uniform(0.01, 1.0) / (1.0 / (dx * dx) + lam / dx)
            a, b = u[2:] - u[1:-1], u[:-2] - u[1:-1]
            c = lam * dt / dx
            expected = np.zeros(n)
            expected[1:-1] = u[1:-1] + (0.5 * dt / (dx * dx) * (a + b) + np.maximum(np.maximum(c * a, c * b), 0.0))
            assert hjb_step(u, dt, dx, -lam, lam).tobytes() == expected.tobytes(), (u, lam, dx, dt)

    @pytest.mark.parametrize("lambda_bar", [0.0, 0.7, 1.0, 1.3])
    def test_step_near_textbook_formula(self, lambda_bar):
        # the coefficient form is the textbook step of a symmetric set in
        # exact arithmetic; in floats the two differ by a few roundings, on
        # data of six decades of scale and on signed zeros and subnormals
        rng = np.random.default_rng(9)
        dt, dx = 1e-4, 2.0 / 75.0
        data = [10.0**k * rng.standard_normal(301) for k in range(-3, 3)]
        data.append(rng.choice([0.0, -0.0, 1e-320, -1e-320], 301))
        for u in data:
            upw = np.maximum.reduce([u[2:] - u[1:-1], u[:-2] - u[1:-1], np.zeros(299)])
            textbook = np.zeros(301)
            textbook[1:-1] = u[1:-1] + dt * (0.5 * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
                                             + lambda_bar * upw / dx)
            gap = np.max(np.abs(hjb_step(u, dt, dx, -lambda_bar, lambda_bar) - textbook))
            assert gap <= 4.0 * np.spacing(np.max(np.abs(u))), (gap, np.max(np.abs(u)))

    @pytest.mark.parametrize("c", [0.5, -0.5])
    def test_single_drift_converges_to_shifted_heat(self, c):
        # u_t = u_xx / 2 + c u_x is solved by (G_t * f)(x + c t); the upwind
        # difference is first order in dx, so halving dx about halves the error
        s, t = 0.5, 0.5
        errs = []
        for n in (161, 321):
            g = make_grid(-8.0, 8.0, n)
            x = g.nodes()
            sol = hjb_upwind(GridFunction(g, np.exp(-x**2 / (2.0 * s))), t, c, c)
            exact = math.sqrt(s / (s + t)) * np.exp(-((x + c * t) ** 2) / (2.0 * (s + t)))
            errs.append(np.max(np.abs(sol.samples - exact)))
        assert errs[0] < 2e-2 and errs[0] / errs[1] >= 1.6, errs

    @pytest.mark.parametrize("lo, hi", HULLS + [(0.8, 0.8), (-0.6, -0.6)],
                             ids=HULL_IDS + ["single-0.8", "single--0.6"])
    def test_steps_bit_identical_to_hjb_step_loop(self, lo, hi):
        # hjb_upwind makes its stencil and buffers once and steps from f0 into
        # two zeroed buffers whose ends it never writes; each step must equal
        # hjb_step's, which zeroes each output's ends. The data: nonzero ends,
        # which only the first step reads, and +-0 and +-1e-320; the step
        # counts: that of t = 0.01 and 1 to 6, odd and even
        g = make_grid(-4.0, 4.0, 301)  # dx = 2/75, not a power of two
        rng = np.random.default_rng(7)
        normal = rng.standard_normal(301)
        tiny = rng.choice([0.0, -0.0, 1e-320, -1e-320, -1.0, 0.5], size=301)
        tiny[0], tiny[1], tiny[-2], tiny[-1] = -1.0, -0.0, 1e-320, 0.5
        dt_max = 0.9 / (1.0 / g.dx**2 + max(abs(lo), abs(hi)) / g.dx)
        for f in (bump(g, radius=1.0), GridFunction(g, normal), GridFunction(g, tiny)):
            for t in [0.01] + [k * dt_max * (1.0 - 1e-9) for k in range(1, 7)]:
                steps = math.ceil(t / dt_max)
                u = f.samples
                for _ in range(steps):
                    u = hjb_step(u, t / steps, g.dx, lo, hi)
                got = hjb_upwind(f, t, lo, hi).samples
                assert np.array_equal(got, u) and np.array_equal(np.signbit(got), np.signbit(u)), (t, steps)

    def test_parameter_validation(self):
        g = make_grid(-1.0, 1.0, 101)
        f = bump(g, radius=0.3)
        with pytest.raises(UsageError):
            hjb_upwind(f, -0.1, 1.0, 1.0)
        with pytest.raises(UsageError, match="lo <= hi"):
            hjb_upwind(f, 0.1, 1.0, -1.0)


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
        e = math.frexp(f.max_abs())[1] - 1  # the oracle runs on f / 2^e, of a largest sample in [1, 2)
        u = np.ldexp(f.samples, -e)
        for _ in range(steps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * dt * k1)
            k3 = rhs(u + 0.5 * dt * k2)
            k4 = rhs(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = np.ldexp(u, e)
        got = ode_reference(fam, f, t, 0.01).samples
        assert np.array_equal(got, u) and np.array_equal(np.signbit(got), np.signbit(u))
        assert not got.flags.writeable and not np.shares_memory(got, f.samples)

    @pytest.mark.parametrize("lambda_set", [LambdaValues((0.0, 1.0)), LambdaInterval(0.0, 1.0)])
    def test_float_max_data_runs_scaled(self, lambda_set):
        # mu * f - f is -2 f, past the floats for samples of either sign at the float maximum; the oracle runs on
        # f / 2^1023 and scales back, exactly, and so gives the bits of the run on data of height 2
        g = make_grid(-5.0, 5.0, 101)
        big = np.finfo(float).max
        f = GridFunction(g, np.where(np.arange(101) % 2 == 0, big, -big))
        fam = CompoundPoisson(lambda_set, JumpDistribution(((0.1, 1.0),)))
        got = ode_reference(fam, f, 0.1, 0.01).samples
        assert np.isfinite(got).all()
        assert np.array_equal(got, np.ldexp(ode_reference(fam, GridFunction(g, np.ldexp(f.samples, -1023)), 0.1,
                                                          0.01).samples, 1023))

    def test_overflowing_stage_raises(self):
        # an intensity of 1e300: the second stage, 1e300 times the first's 5e297, overflows
        g = make_grid(-1.0, 1.0, 201)
        fam = CompoundPoisson(LambdaValues((0.0, 1e300)), JumpDistribution(((0.01, 1.0),)))
        with pytest.raises(UsageError, match="an RK4 stage of ode_reference is not finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            ode_reference(fam, bump(g, radius=0.5), 0.1, 0.01)

    def test_rejects_non_compound_poisson(self, gauss_family):
        g = make_grid(-1.0, 1.0, 101)
        with pytest.raises(UsageError):
            ode_reference(gauss_family, bump(g, radius=0.3), 0.5, 1e-2)


def _where_pole(x: np.ndarray, p: float, eps: float) -> np.ndarray:
    """The capped pole on the nodes x, written out over all of them."""
    a, absx = 1.0 / (2.0 * p), np.abs(x)
    want = np.where(absx >= eps, np.where(absx > 0, absx, eps) ** (-a), eps ** (-a))
    return np.where(absx <= 1.0, want, 0.0)


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
        # window maximum, lp_norm and the scan worked on the whole grid)
        g = make_grid(-3.0, 3.0, 240001)
        eps = [1e-2, 1e-3, 1e-4]
        counterexample_scan(g, p, 0.5, eps)  # fills the plan cache
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

    def test_pole_holds_under_two_grid_arrays(self):
        # the zeroed grid and the nodes of [-1, 1], a third of it here: no
        # mask, gathered copy or whole-grid |x| (2.42 grid arrays with them)
        g = make_grid(-3.0, 3.0, 240001)
        tracemalloc.start()
        try:
            pole_initial_condition(g, 1.5, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * g.n_nodes

    @pytest.mark.parametrize("p, eps", [
        (0.0, 0.01), (-1.0, 0.01), (0.5, 0.01), (math.inf, 0.01), (NAN, 0.01),
        (2.0, 0.0), (2.0, -0.01), (2.0, math.inf), (2.0, NAN)])
    def test_pole_rejects_bad_arguments(self, p, eps):
        # not a ZeroDivisionError (eps = 0, p = 0), a complex power (eps < 0),
        # a pole that grows away from 0 (p < 0) or all zeros (eps = inf)
        with pytest.raises(UsageError, match="finite p >= 1 and a finite eps > 0"):
            pole_initial_condition(make_grid(-3.0, 3.0, 601), p, eps)

    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
    def test_scan_matches_written_out_scan(self, p):
        # the table, float bits included, of the np.where pole, its step and
        # its norm, at epsilons off a node and on one
        g = make_grid(-3.0, 3.0, 240001)
        x = g.nodes()
        epsilons = [float(x[120400]) + g.dx / 3.0, float(x[120040]), float(x[120008]) - g.dx / 3.0]
        fam, norm = PureShift(LambdaInterval(-1.0, 1.0)), PNorm(p)
        want = [(eps, lp_norm(step_J(fam, 0.5, GridFunction(g, _where_pole(x, p, eps))), norm)) for eps in epsilons]
        assert counterexample_scan(g, p, 0.5, epsilons) == want

    @pytest.mark.parametrize("lower, upper, n_nodes", [
        (-3.0, 3.0, 24001), (-0.7, 2.3, 3001), (-1.0, 1.0, 801), (1.5, 3.0, 101), (-5.0, -0.999, 4003),
        (1.0 - 1e-15, 1.0 + 1e-15, 201)])  # nodes too dense for their floats around x = 1
    @pytest.mark.parametrize("p", [1.25, 2.0])
    def test_pole_matches_where_formula(self, lower, upper, n_nodes, p):
        # the capped pole computed on the whole grid with np.where, against
        # the pole that raises only the nodes eps <= |x| <= 1 to a power
        g = make_grid(lower, upper, n_nodes)
        x = g.nodes()
        node = float(np.min(np.abs(x[np.abs(x) > 0.05]), initial=0.3))
        for eps in (node, node + g.dx / 3.0, 0.01, 2.0):  # on a node, off it, and wider than [-1, 1]
            want = _where_pole(x, p, eps)
            got = pole_initial_condition(g, p, eps).samples
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), eps

    def test_under_resolved_epsilon_names_required_grid(self):
        g = make_grid(-3.0, 3.0, 1001)
        with pytest.raises(ConfigurationError, match="nodes"):
            counterexample_scan(g, 2.0, 0.5, [1e-3, 1e-4])

    def test_epsilons_must_decrease(self):
        g = make_grid(-3.0, 3.0, 24001)
        with pytest.raises(UsageError):
            counterexample_scan(g, 2.0, 0.5, [1e-3, 1e-2])

    def test_one_epsilon_has_no_ratio(self):
        # the growth gate reads the ratios of consecutive norms: one row has none
        with pytest.raises(UsageError, match="at least two epsilons"):
            counterexample_scan(make_grid(-3.0, 3.0, 24001), 2.0, 0.5, [1e-2])

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
        out = compare(f, h, norm2)
        k = math.floor(out.margin * g.n_nodes)
        window_measure = (g.n_nodes - 2 * k) * g.dx
        assert out.abs_err == pytest.approx(0.5 * window_measure**0.5, rel=1e-12)
        assert out.max_err == pytest.approx(0.5, rel=1e-15)

    def test_relative_error_guard(self, norm2):
        # a reference that vanishes over the window: rel_err is 0 against a b that vanishes too, else inf
        g = make_grid(0.0, 1.0, 101)
        zero = GridFunction(g, np.zeros(101))
        tiny = GridFunction(g, 1e-20 * np.ones(101))
        assert compare(zero, tiny, norm2).rel_err == math.inf
        assert compare(zero, zero, norm2).rel_err == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 19.5, 1e300])
    @pytest.mark.parametrize("k", [-1000, -70, 0, 300, 1023])
    def test_relative_error_at_every_height(self, p, k):
        # a zero oracle reads rel_err 1 and an oracle 0.9 a reads 0.1 at every height, also where a's terms
        # |x|^p dx, unscaled, would underflow (k = -70 at p = 19.5, k = -1000 at p = 2, any k < 0 at p = 1e300)
        # or overflow (k = 300 at p = 19.5, k = 1023 at p = 2); an oracle 2^-40 a reads a rel_err of 1 - 2^-40
        g = make_grid(-8.0, 8.0, 513)
        a = GridFunction(g, np.ldexp(bump(g, radius=1.0).samples, k))
        zero, norm = GridFunction(g, np.zeros(513)), PNorm(p)
        assert compare(a, zero, norm).rel_err == 1.0
        assert compare(a, 0.9 * a, norm).rel_err == pytest.approx(0.1, rel=1e-14)
        assert compare(a, GridFunction(g, np.ldexp(a.samples, -40)), norm).rel_err == pytest.approx(1.0 - 2.0**-40)

    @pytest.mark.parametrize("p, height", [(1e300, 1.0), (2.0, 1e-170), (2.0, 1e300)])
    def test_reference_past_the_old_term_range_is_accurate(self, p, height):
        # the unscaled terms of a reference of these heights underflow (p = 1e300 below 1, 1e-170 at p = 2) or
        # overflow (1e300 at p = 2): each read rel_err 0.0 or NaN against an oracle 0.9 a, and was then refused.
        # Its norms are now accurate: abs_err is height times that at height 1
        g = make_grid(-8.0, 8.0, 513)
        one, a = bump(g, radius=1.0), bump(g, radius=1.0, height=height)
        out, base = compare(a, 0.9 * a, PNorm(p)), compare(one, 0.9 * one, PNorm(p))
        assert out.rel_err == pytest.approx(0.1, rel=1e-14)
        assert out.abs_err == pytest.approx(height * base.abs_err, rel=1e-14)
        assert out.max_err == pytest.approx(0.1 * height, rel=1e-14)

    @pytest.mark.parametrize("offset", [1e-4, 1e-17])
    def test_error_read_at_a_high_p(self, offset):
        # at p = 19.5 the unscaled terms of 2^-52 max|a| underflow; the error of an oracle a + offset (below a's
        # rounding at 1e-17, where it is offset only where a is small) reads as the ratio of the norms written out
        # on the samples divided by their max
        g = make_grid(-10.0, 10.0, 2049)
        a = bump(g, radius=1.0, height=0.7)
        b = GridFunction(g, a.samples + offset)
        out = compare(a, b, PNorm(19.5))
        sl = g.interior_slice(0.05)

        def written_out(x):
            top = np.max(np.abs(x))
            return top * math.fsum((np.abs(x) / top) ** 19.5 * g.dx) ** (1.0 / 19.5)

        assert out.max_err == pytest.approx(offset, rel=1e-6)
        assert out.rel_err == pytest.approx(written_out((a.samples - b.samples)[sl]) / written_out(a.samples[sl]),
                                            rel=1e-13)
