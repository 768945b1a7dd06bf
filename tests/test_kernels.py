import decimal
import math
import tracemalloc

import numpy as np
import pytest

from conftest import _blocked_written_out, _heat_written_out, _interp_shift_arr
from nisioenv import ConfigurationError, PNorm, UsageError, kernels
from nisioenv.envelope import step_J
from nisioenv.funcspace import GridFunction, bump, gaussian_profile, lp_norm, make_grid, ramp
from nisioenv.kernels import (
    HEAT_KERNEL_WIDTH,
    SERIES_TOL,
    _CALL_WORK,
    _HEAT_BAND_HELD_BYTES,
    _HEAT_BLOCK,
    _HEAT_BLOCK_ROWS,
    _MAX_HEAT_WEIGHTS,
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PureShift,
    _first_difference,
    _heat_plan,
    _heat_weights,
    _jump_mixer,
    _jump_stencil,
    _poisson_weights,
    _second_difference,
    apply_member,
    heat_convolve,
    sup_generator,
    upper_bound_C,
    upper_bound_norm_factor,
)


# zeros of either sign, subnormals whose products underflow to zeros of
# either sign, and +-1
SIGNED_ZERO_VALUES = [0.0, -0.0, 1e-320, -1e-320, 1.0, -1.0]

_CP_800 = CompoundPoisson(LambdaValues((800.0,)), JumpDistribution(((0.1, 1.0),)))


def delta_one():
    return JumpDistribution(((1.0, 1.0),))


class TestDomainTypes:
    def test_jump_distribution_validation(self):
        with pytest.raises(ConfigurationError):
            JumpDistribution(())
        with pytest.raises(ConfigurationError):
            JumpDistribution(((1.0, 0.6), (2.0, 0.3)))
        with pytest.raises(ConfigurationError):
            JumpDistribution(((1.0, -0.5), (2.0, 1.5)))
        mu = JumpDistribution(((-1.0, 0.25), (2.0, 0.75)))

    @pytest.mark.parametrize("atoms", [((1.0, math.nan),), ((math.nan, 1.0),), ((math.inf, 1.0),)])
    def test_jump_distribution_rejects_non_finite(self, atoms):
        with pytest.raises(ConfigurationError):
            JumpDistribution(atoms)

    def test_lambda_sets(self):
        iv = LambdaInterval(-2.0, 1.0)
        assert iv.sup_abs == 2.0 and iv.inf == -2.0
        assert iv.contains(0.3) and not iv.contains(1.5)
        fv = LambdaValues((3.0, -1.0, 0.0))
        assert fv.values == (-1.0, 0.0, 3.0)
        assert fv.sup_abs == 3.0 and fv.inf == -1.0
        assert fv.contains(3.0) and not fv.contains(0.5)
        with pytest.raises(ConfigurationError):
            LambdaInterval(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            LambdaValues(())

    def test_compound_poisson_nonnegative_intensity(self):
        with pytest.raises(ConfigurationError):
            CompoundPoisson(LambdaValues((-0.5, 1.0)), delta_one())


class TestHeatConvolve:
    def test_mass_and_constants(self):
        g = make_grid(-8.0, 8.0, 801)
        const = GridFunction(g, np.ones(801))
        out = heat_convolve(const, 0.3)
        sl = g.interior_slice(0.25)
        assert np.max(np.abs(out.samples[sl] - 1.0)) < 1e-12

    def test_matches_analytic_gaussian_widening(self):
        # heat of N(0, s0) is N(0, s0 + t), in closed form
        g = make_grid(-10.0, 10.0, 2001)
        s0 = 0.5
        f = gaussian_profile(g, sigma=math.sqrt(s0))
        for t in (0.2, 0.01, 2e-5):
            out = heat_convolve(f, t)
            exact = math.sqrt(s0 / (s0 + t)) * np.exp(-g.nodes() ** 2 / (2.0 * (s0 + t)))
            assert np.max(np.abs(out.samples - exact)) < 2e-5, t

    def test_identity_at_zero(self):
        g = make_grid(-1.0, 1.0, 101)
        f = GridFunction(g, np.random.default_rng(0).standard_normal(101))
        assert np.array_equal(heat_convolve(f, 0.0).samples, f.samples)

    @pytest.mark.parametrize("extra", [-40, -1, 0, 1, 40])
    def test_plan_bytes_around_the_grid_width(self, extra):
        # kernels narrower than, as wide as and wider than the grid give the
        # bits of their written-out blocked product, signs of zeros included,
        # at 65 and 129 weights
        dx = 0.25
        for t, m in ((1.0, 65), (4.0, 129)):
            w = _heat_weights(t, dx)
            n = len(w) + extra
            rng = np.random.default_rng(len(w) + extra)
            arr = rng.choice(SIGNED_ZERO_VALUES, size=n)
            got, want = _heat_plan(t, dx, n).run(arr), _heat_written_out(arr, t, dx)
            assert len(w) == m and got.shape == (n,)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), t

    @pytest.mark.parametrize("level", range(11))
    def test_blocked_product_within_rounding_of_convolve(self, level):
        # the shipped Gaussian grid's kernels at dyadic levels 0-10 (1 161 down
        # to 39 weights, each a blocked product; np.convolve is the independent
        # reference): each output is the dot product of the weights with its
        # window either way, each within gamma_m (|w| * |a|) of the exact sum.
        # The two must stay within that bound of each other (the worst case is
        # twice it; this data reaches 0.07 of it), plus half the smallest
        # subnormal per product on each side, which the +-1e-320 samples reach.
        # A window of +0 samples gives +0, as lp_norm and the window spans read
        # +0 tails
        t, dx = 0.5 / 2**level, 20.0 / 2048
        w = _heat_weights(t, dx)
        m, half = len(w), len(w) // 2
        gamma = m * 2.0**-53 / (1.0 - m * 2.0**-53)
        for n in sorted({max(2, m + extra) for extra in (-40, -1, 0, 1, 40)}):
            arr = np.random.default_rng(n).choice(SIGNED_ZERO_VALUES, size=n)
            arr[: n // 2] = 0.0
            got, want = _heat_plan(t, dx, n).run(arr), np.convolve(arr, w)[half : half + n]
            reach = np.convolve(np.abs(arr), w)[half : half + n]
            assert np.all(np.abs(got - want) <= gamma * reach + m * 2.0**-1074), n
            zero = np.convolve(((arr != 0.0) | np.signbit(arr)).astype(float), np.ones(m))[half : half + n] == 0.0
            assert zero[: max(0, n // 2 - half)].all(), n  # the windows inside the +0 half; 20 of them at n = m + 40
            assert not got[zero].any() and not np.signbit(got[zero]).any(), n

    @pytest.mark.parametrize("n", [2, 33, 96, 2049, 3 * _HEAT_BLOCK_ROWS * _HEAT_BLOCK + 5])
    def test_both_sides_of_the_held_band_budget(self, n, monkeypatch):
        # the widest band a plan holds (225 weights, 8 blocks, 64 KiB) and the
        # narrowest it builds in each call (227 weights, 9 blocks) give the bits
        # of the written-out blocked product, signs of zeros included, on two
        # nodes, on n not a multiple of the block, on kernels wider than the
        # grid, and over several GEMMs of rows; each plan prices the
        # multiply-adds it makes, and the per-call band its copy. Held under a
        # larger budget, the 227-weight band (the loop's last) prices no copy
        # and gives the per-call bits
        dx = 0.01
        for m, c in ((225, 8), (227, 9)):
            half = m // 2
            t = ((half - 0.5) * dx / HEAT_KERNEL_WIDTH) ** 2  # a reach of half - 0.5 offsets, rounded up
            w, plan = _heat_weights(t, dx), _heat_plan(t, dx, n)
            arr = np.random.default_rng(n + m).choice(SIGNED_ZERO_VALUES, size=n)
            got, want = plan.run(arr), _blocked_written_out(arr, w)
            work = c * _HEAT_BLOCK**2 * math.ceil(n / _HEAT_BLOCK) + (c + 1) * (n + _CALL_WORK)
            held = c * _HEAT_BLOCK**2 * 8 <= _HEAT_BAND_HELD_BYTES
            assert len(w) == m and held == (m == 225)
            assert plan.work == (work if held else work + c * _HEAT_BLOCK**2 + 3 * _CALL_WORK), m
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), m
        monkeypatch.setattr(kernels, "_HEAT_BAND_HELD_BYTES", c * _HEAT_BLOCK**2 * 8)
        held_plan = _heat_plan(t, dx, n)
        assert held_plan.work == work
        assert held_plan.run(arr).tobytes() == got.tobytes()

    def test_widest_kernel_plan_holds_no_band(self):
        # the plan of the widest kernel the cap admits (65 537 weights, a
        # 16 MiB band of 2 049 blocks) is built without its band: building it
        # traces at most a few copies of its 512 KiB of weights
        dx = 0.01
        t = ((_MAX_HEAT_WEIGHTS // 2) * dx / HEAT_KERNEL_WIDTH) ** 2
        tracemalloc.start()
        try:
            plan = _heat_plan(t, dx, 2049)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights = 8 * _MAX_HEAT_WEIGHTS
        assert plan.work > 2049 * _MAX_HEAT_WEIGHTS
        assert held < 2 * weights and peak < 6 * weights, (held, peak)

    def test_kernel_past_the_cap_is_usage_error(self):
        # the widest kernel the cap admits is built; one offset more per side,
        # a variance of 1e12 (1.6e9 weights) and an infinite one raise first
        f = bump(make_grid(-10.0, 10.0, 2049), radius=1.0)
        half = _MAX_HEAT_WEIGHTS // 2
        assert len(_heat_weights((half * f.grid.dx / HEAT_KERNEL_WIDTH) ** 2, f.grid.dx)) == _MAX_HEAT_WEIGHTS
        with pytest.raises(UsageError, match="heat kernel"):
            _heat_weights(((half + 1) * f.grid.dx / HEAT_KERNEL_WIDTH) ** 2, f.grid.dx)
        for t in (1e12, math.inf):
            with pytest.raises(UsageError, match=f"at most {_MAX_HEAT_WEIGHTS} "):
                heat_convolve(f, t)

    def test_kernel_wider_than_grid(self):
        # 8 sqrt(t) / dx = 256 offsets per side on 257 nodes: the kernel is
        # about twice as wide as the grid; the result is the zero extension
        g = make_grid(-4.0, 4.0, 257)
        f = bump(g, center=0.5, radius=1.5)
        t = 1.0
        out = heat_convolve(f, t)
        assert out.samples.shape == (257,)
        half = math.ceil(8.0 * math.sqrt(t) / g.dx)
        w = np.exp(-((np.arange(-half, half + 1) * g.dx) ** 2) / (2.0 * t))
        w /= w.sum()
        padded = np.concatenate([np.zeros(half), f.samples, np.zeros(half)])
        expected = np.array([padded[i : i + 2 * half + 1] @ w for i in range(257)])
        assert np.allclose(out.samples, expected, rtol=0.0, atol=1e-15)


class TestFixedWeights:
    """The jump stencil changes no byte; the Poisson series has its tail."""

    # fractional, snapped (1.0 is 100.00000000000001 nodes of 0.01), negative,
    # zero, and far beyond the grid on either side; then, on 2 001 nodes, a
    # lone jump of 0 nodes, jumps of exactly +-n nodes (+-20.01), half a node
    # inside them, one node inside them, and whole-node and fractional jumps
    # beyond them
    @pytest.mark.parametrize("atoms", [
        ((0.37, 1.0),),
        ((1.0, 1.0),),
        ((-0.7, 0.3), (1.0, 0.7)),
        ((0.0, 0.25), (-0.013, 0.75)),
        ((1e12, 0.5), (-1e12, 0.5)),
        ((1e12, 0.2), (0.0123, 0.3), (-1e12, 0.5)),
        ((0.0, 1.0),),
        ((20.01, 0.3), (-20.01, 0.3), (0.0, 0.4)),
        ((20.005, 0.5), (-20.005, 0.5)),
        ((-20.0, 0.25), (20.0, 0.25), (25.0, 0.25), (-31.337, 0.25)),
    ])
    def test_jump_mix_matches_sum_of_shifts(self, atoms):
        # on normal data, and on +-0 and +-1e-320 data, where the sum starting
        # from +0 decides the sign of a zero; the same mixer twice, as the
        # member rows and the RK4 stages reuse it
        g = make_grid(-10.0, 10.0, 2001)
        rng = np.random.default_rng(5)
        mu = JumpDistribution(atoms)
        src, mix = _jump_mixer(_jump_stencil(mu, g.dx, 2001), 2001)
        for u in (rng.standard_normal(2001), rng.choice([0.0, -0.0, 1e-320, -1e-320, 1.0], size=2001)):
            expected = np.zeros(2001)
            for y, w in mu.atoms:
                expected += w * _interp_shift_arr(u, y, g.dx)
            src.samples[:] = u
            got = mix(np.empty(2001))
            assert np.array_equal(got, expected) and np.array_equal(np.signbit(got), np.signbit(expected))
            assert np.array_equal(src.samples, u)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda f: _poisson_weights(740.0), id="weights-740"),  # subnormal first weight
        pytest.param(lambda f: _poisson_weights(746.0), id="weights-746"),  # first weight 0
        pytest.param(lambda f: _poisson_weights(800.0), id="weights-800"),
        pytest.param(lambda f: apply_member(_CP_800, 800.0, 1.0, f), id="apply_member"),
        pytest.param(lambda f: upper_bound_C(_CP_800, 1.0, f, PNorm(2.0)), id="upper_bound_C"),
        pytest.param(lambda f: step_J(_CP_800, 1.0, f), id="step_J"),
    ])
    def test_poisson_rate_beyond_float_range_is_usage_error(self, call):
        # the series starts from e^-rate, not a normal float past a rate of
        # about 708.4: not NaN weights, nor weights short of their tail
        with pytest.raises(UsageError, match="Poisson rate .* is too large"):
            call(bump(make_grid(-2.0, 2.0, 41), radius=1.0))

    def test_poisson_rate_below_the_bound(self):
        # e^-708 is normal: the weights are the Poisson law's, written out in
        # logarithms, on as many terms as its tail needs
        w = _poisson_weights(708.0)
        k = np.arange(len(w))
        exact = np.exp(-708.0 + k * math.log(708.0) - np.array([math.lgamma(j + 1.0) for j in k]))
        assert np.max(np.abs(w - exact)) < 1e-12 and 1.0 - np.sum(exact) < 2e-12

    @pytest.mark.parametrize("rate", [700.0, 708.0])
    def test_poisson_tail_within_its_bound(self, rate):
        # the Poisson law written out in logarithms, in 40-digit decimals: in
        # floats its exponent k ln(rate) - rate - ln k!, whose terms reach
        # 6 000, rounds each weight by about 1e-12, as much as the whole tail
        k_terms = len(_poisson_weights(rate))
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            r, log_fact, kept = decimal.Decimal(rate), decimal.Decimal(0), decimal.Decimal(0)
            for k in range(k_terms):
                log_fact += decimal.Decimal(max(k, 1)).ln()
                kept += (k * r.ln() - r - log_fact).exp()
        assert 0 < 1 - kept <= SERIES_TOL + 3 * k_terms * 2.0**-53


class TestApplyMember:
    def test_time_zero_exact(self, grid_small, bump_small, gauss_family):
        out = apply_member(gauss_family, 0.5, 0.0, bump_small)
        assert np.array_equal(out.samples, bump_small.samples)

    def test_gaussian_constant_interior(self, gauss_family):
        g = make_grid(-8.0, 8.0, 801)
        const = GridFunction(g, 2.5 * np.ones(801))
        out = apply_member(gauss_family, 0.7, 0.25, const)
        sl = g.interior_slice(0.3)
        assert np.max(np.abs(out.samples[sl] - 2.5)) < 1e-10

    def test_gaussian_ramp_mean_shift(self, gauss_family):
        # E[x + W_t + lam t] = x + lam t; boundary rows excluded
        g = make_grid(-10.0, 10.0, 801)
        f = ramp(g)
        out = apply_member(gauss_family, 1.0, 0.25, f)
        x = g.nodes()
        interior = np.abs(x) <= 5.0
        assert np.max(np.abs(out.samples[interior] - (x + 0.25)[interior])) < 1e-11

    def test_compound_poisson_series_oracle(self):
        # independent oracle: evaluate the Poisson series directly with pure
        # index shifts (jump +1 is exactly 100 nodes on this grid)
        g = make_grid(-8.0, 8.0, 1601)
        f = bump(g, radius=1.0)
        lam, t = 1.0, math.log(2.0)
        fam = CompoundPoisson(LambdaValues((lam,)), delta_one())
        out = apply_member(fam, lam, t, f)

        rate = lam * t
        shift_nodes = round(1.0 / g.dx)
        expected = np.zeros(g.n_nodes)
        total = 0.0
        for n in range(31):
            w = math.exp(-rate) * rate**n / math.factorial(n)
            shifted = np.zeros(g.n_nodes)
            if n * shift_nodes < g.n_nodes:
                shifted[: g.n_nodes - n * shift_nodes] = f.samples[n * shift_nodes :]
            expected += w * shifted
            total += w
        # apply_member renormalizes the truncated weights; mirror that
        expected /= total
        assert np.max(np.abs(out.samples - expected)) < 1e-12

    def test_pure_shift(self):
        g = make_grid(-4.0, 4.0, 801)
        fam = PureShift(LambdaInterval(-1.0, 1.0))
        f = bump(g, radius=1.0)
        out = apply_member(fam, 0.5, 0.4, f)
        expected = np.interp(g.nodes() + 0.2, g.nodes(), f.samples, left=0.0, right=0.0)
        assert np.max(np.abs(out.samples - expected)) < 1e-12

    def test_preconditions(self, grid_small, bump_small, gauss_family):
        with pytest.raises(UsageError):
            apply_member(gauss_family, 0.5, -0.1, bump_small)
        with pytest.raises(UsageError):
            apply_member(gauss_family, 1.5, 0.1, bump_small)

    def test_nan_time_is_a_usage_error(self, grid_small, bump_small, gauss_family, cp_family):
        for fam in (gauss_family, cp_family):
            with pytest.raises(UsageError, match="time"):
                apply_member(fam, 0.5, math.nan, bump_small)
        with pytest.raises(UsageError, match="heat time"):
            heat_convolve(bump_small, math.nan)


class TestGenerators:
    def test_constant_vanishes(self, gauss_family, cp_family, member_generator):
        g = make_grid(-4.0, 4.0, 401)
        const = GridFunction(g, 3.0 * np.ones(401))
        for fam, lam in ((gauss_family, 0.5), (cp_family, 1.0)):
            out = member_generator(fam, lam, const)
            sl = g.interior_slice(0.2)
            assert np.max(np.abs(out.samples[sl])) < 1e-11

    def test_gaussian_sin_second_order(self, member_generator):
        # A f = 1/2 f'' + lam f' = -1/2 sin + 2 cos, second order in dx
        fam = GaussianDrift(LambdaValues((2.0,)))
        errs = []
        for n in (201, 401):
            g = make_grid(-3.0, 3.0, n)
            f = GridFunction(g, np.sin(g.nodes()))
            out = member_generator(fam, 2.0, f)
            exact = -0.5 * np.sin(g.nodes()) + 2.0 * np.cos(g.nodes())
            sl = g.interior_slice(0.05)
            errs.append(np.max(np.abs(out.samples[sl] - exact[sl])))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_compound_poisson_single_atom(self, member_generator):
        g = make_grid(-8.0, 8.0, 1601)
        fam = CompoundPoisson(LambdaValues((2.0,)), delta_one())
        f = bump(g, radius=1.5)
        out = member_generator(fam, 2.0, f)
        shift_nodes = round(1.0 / g.dx)
        expected = np.zeros(g.n_nodes)
        expected[: g.n_nodes - shift_nodes] = f.samples[shift_nodes:]
        expected = 2.0 * (expected - f.samples)
        assert np.max(np.abs(out.samples - expected)) < 1e-12

    def test_sup_at_critical_point(self):
        # where f' = 0 the supremum over [-1, 1] contributes nothing
        g = make_grid(-4.0, 4.0, 801)
        fam = GaussianDrift(LambdaInterval(-1.0, 1.0))
        f = gaussian_profile(g, sigma=1.0)
        out = sup_generator(fam, f)
        center = g.n_nodes // 2
        d2 = _second_difference(f.samples, g.dx)[center]
        d1 = _first_difference(f.samples, g.dx)[center]
        assert abs(d1) < 1e-12
        assert out.samples[center] == pytest.approx(0.5 * d2, rel=1e-12)

    def test_sup_brute_force_lambda_scan(self, member_generator):
        # the closed-form endpoint supremum against a 1001-point lambda scan
        g = make_grid(-3.0, 3.0, 601)
        fam = GaussianDrift(LambdaInterval(-1.0, 1.0))
        f = GridFunction(g, np.sin(g.nodes()))
        closed = sup_generator(fam, f)
        lams = np.linspace(-1.0, 1.0, 1001)
        brute = np.maximum.reduce([member_generator(fam, lam, f).samples for lam in lams])
        assert np.max(np.abs(closed.samples - brute)) < 1e-12
        sl = g.interior_slice(0.05)
        exact = -0.5 * np.sin(g.nodes()) + np.abs(np.cos(g.nodes()))
        assert np.max(np.abs(closed.samples[sl] - exact[sl])) < 1e-3

    MU = JumpDistribution(((0.75, 0.5), (-0.5, 0.3), (1.25, 0.2)))
    FINITE = (
        GaussianDrift(LambdaValues((-1.5, -0.4, 0.3, 1.1))),
        GaussianDrift(LambdaValues((-2.0, -1.0, -0.25))),
        PureShift(LambdaValues((-1.5, -0.4, 0.3, 1.1))),
        PureShift(LambdaValues((-2.0, -1.0, -0.25))),
        CompoundPoisson(LambdaValues((0.0, 0.5, 1.3, 2.0)), MU),
    )
    INTERVALS = (
        GaussianDrift(LambdaInterval(-1.5, 0.75)),
        GaussianDrift(LambdaInterval(-2.0, -0.5)),
        PureShift(LambdaInterval(-1.5, 0.75)),
        PureShift(LambdaInterval(0.25, 1.0)),
        CompoundPoisson(LambdaInterval(0.5, 2.0), MU),
    )

    @staticmethod
    def _rough(g, seed):
        # exact zeros, negative zeros and ties, where a max can pick a side
        arr = np.round(np.random.default_rng(seed).standard_normal(g.n_nodes), 1)
        arr[::7] = -0.0
        return GridFunction(g, arr)

    @pytest.mark.parametrize("fam", FINITE, ids=lambda f: type(f).__name__)
    def test_finite_set_is_max_over_members(self, fam, member_generator):
        g = make_grid(-4.0, 4.0, 401)
        for f in (bump(g, radius=1.5), self._rough(g, 1)):
            members = [member_generator(fam, v, f).samples for v in fam.lambda_set.values]
            assert np.array_equal(sup_generator(fam, f).samples, np.maximum.reduce(members))

    @pytest.mark.parametrize("fam", INTERVALS, ids=lambda f: type(f).__name__)
    def test_interval_is_max_over_endpoint_members(self, fam, member_generator):
        g = make_grid(-4.0, 4.0, 401)
        lset = fam.lambda_set
        for f in (bump(g, radius=1.5), self._rough(g, 2)):
            ends = np.maximum(member_generator(fam, lset.lo, f).samples, member_generator(fam, lset.hi, f).samples)
            assert np.array_equal(sup_generator(fam, f).samples, ends)

    def test_cp_two_candidate_sup(self, cp_family):
        g = make_grid(-8.0, 8.0, 1601)
        f = bump(g, radius=1.5)
        out = sup_generator(cp_family, f)
        shift_nodes = round(1.0 / g.dx)
        shifted = np.zeros(g.n_nodes)
        shifted[: g.n_nodes - shift_nodes] = f.samples[shift_nodes:]
        expected = np.maximum(0.0, shifted - f.samples)
        assert np.max(np.abs(out.samples - expected)) < 1e-12


class TestUpperBound:
    def test_gaussian_norm_identity(self, norm2):
        g = make_grid(-10.0, 10.0, 2049)
        f = bump(g, radius=1.0)
        fam = GaussianDrift(LambdaInterval(-1.0, 1.0))
        ratio = lp_norm(upper_bound_C(fam, 0.1, f, norm2), norm2) / lp_norm(f, norm2)
        assert ratio == pytest.approx(math.exp(0.05), rel=1e-6)
        assert upper_bound_norm_factor(fam, 0.1, norm2) == pytest.approx(math.exp(0.05), rel=1e-15)

    def test_compound_poisson_norm_identity(self, norm2, cp_family):
        g = make_grid(-10.0, 10.0, 2049)
        f = bump(g, radius=1.0)
        ratio = lp_norm(upper_bound_C(cp_family, 0.5, f, norm2), norm2) / lp_norm(f, norm2)
        assert ratio == pytest.approx(math.exp(0.5), rel=1e-6)

    def test_gaussian_constant(self, norm2):
        g = make_grid(-8.0, 8.0, 801)
        fam = GaussianDrift(LambdaInterval(-1.0, 1.0))
        const = GridFunction(g, 2.0 * np.ones(801))
        out = upper_bound_C(fam, 0.1, const, norm2)
        sl = g.interior_slice(0.3)
        expected = 2.0 * math.exp((norm2.q - 1.0) * 0.1 / 2.0)
        assert np.max(np.abs(out.samples[sl] - expected)) < 1e-10

    def test_pure_shift_has_no_bound(self, norm2, grid_small, bump_small):
        fam = PureShift(LambdaInterval(-1.0, 1.0))
        with pytest.raises(UsageError, match="no envelope bound"):
            upper_bound_C(fam, 0.1, bump_small, norm2)

    def test_gaussian_p1_rejected(self, grid_small, bump_small, gauss_family):
        with pytest.raises(UsageError):
            upper_bound_C(gauss_family, 0.1, bump_small, PNorm(1.0))

    def test_cp_p1_works(self, grid_small, bump_small, cp_family):
        out = upper_bound_C(cp_family, 0.1, bump_small, PNorm(1.0))
        assert np.all(np.isfinite(out.samples))

    @staticmethod
    def _two_formulas(fam, h, f, norm):
        # the per-family closed forms, written out separately
        lam_bar = fam.lambda_set.sup_abs
        p = norm.p
        if isinstance(fam, GaussianDrift):
            factor = math.exp((norm.q - 1.0) * h * lam_bar**2 / 2.0) if lam_bar > 0.0 else 1.0
            smoothed = _heat_plan(h, f.grid.dx, f.grid.n_nodes).run(np.abs(f.samples) ** p)
            return factor * np.maximum(smoothed, 0.0) ** (1.0 / p)
        moved = apply_member(fam, lam_bar, h, GridFunction(f.grid, np.abs(f.samples) ** p))
        return math.exp((lam_bar - fam.lambda_set.inf) * h) * np.maximum(moved.samples, 0.0) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("lset", [LambdaInterval(-1.0, 0.5), LambdaValues((-0.3, 0.8, 1.2)), LambdaValues((0.0,))])
    def test_gaussian_matches_closed_form(self, p, lset, make_smooth):
        g = make_grid(-8.0, 8.0, 801)
        fam = GaussianDrift(lset)
        f = make_smooth(g, np.random.default_rng(3))
        for h in (0.05, 0.3):
            assert np.array_equal(upper_bound_C(fam, h, f, PNorm(p)).samples, self._two_formulas(fam, h, f, PNorm(p)))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("lset", [LambdaInterval(0.25, 1.5), LambdaValues((0.0, 0.7, 2.0))])
    def test_compound_poisson_matches_closed_form(self, p, lset, make_smooth):
        g = make_grid(-8.0, 8.0, 801)
        fam = CompoundPoisson(lset, JumpDistribution(((0.6, 0.7), (-1.1, 0.3))))
        f = make_smooth(g, np.random.default_rng(4))
        for h in (0.05, 0.3):
            assert np.array_equal(upper_bound_C(fam, h, f, PNorm(p)).samples, self._two_formulas(fam, h, f, PNorm(p)))
