import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _interp_shift_arr
from nisioenv import ConfigurationError, PNorm, UsageError
from nisioenv.funcspace import (
    GridFunction,
    bump,
    interp_shift,
    lp_norm,
    make_grid,
    pointwise_max,
    ramp,
    read_csv,
    write_csv,
)


class TestMakeGrid:
    def test_dx(self):
        g = make_grid(-10.0, 10.0, 2001)
        assert g.dx == pytest.approx(0.01, rel=1e-15)
        assert g.n_nodes == 2001

    def test_two_nodes(self):
        g = make_grid(0.0, 1.0, 2)
        assert np.array_equal(g.nodes(), [0.0, 1.0])
        assert g.dx == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            make_grid(0.0, 1.0, 1)
        with pytest.raises(ConfigurationError):
            make_grid(1.0, 1.0, 10)
        with pytest.raises(ConfigurationError):
            make_grid(2.0, 1.0, 10)
        # dx^2 must be a normal float: 2.5e-601 underflows, 1.5e595 overflows, and so does dx = inf on a
        # width past the float range
        for lower, upper, n_nodes, words in ((0.0, 1e-300, 5, "underflows"), (-8.0, 1e300, 257, "overflows"),
                                             (-1e308, 1e308, 5, "overflows")):
            with pytest.raises(ConfigurationError, match=f"dx\\^2 {words}"):
                make_grid(lower, upper, n_nodes)
        assert make_grid(-1e154, 1e154, 3).dx == 1e154  # dx^2 = 1e308 is normal


class TestLpNorm:
    def test_constant_one(self):
        # rectangle rule: 101 nodes * 0.01 spacing = measure 1.01
        g = make_grid(0.0, 1.0, 101)
        f = GridFunction(g, np.ones(101))
        assert lp_norm(f, PNorm(2.0)) == pytest.approx(math.sqrt(1.01), rel=1e-14)

    def test_zero(self):
        g = make_grid(0.0, 1.0, 11)
        assert lp_norm(GridFunction(g, np.zeros(11)), PNorm(2.0)) == 0.0

    def test_strict_left_to_right_order(self):
        # 1e-16 is below half an ulp of 1.0, so each left-to-right addition
        # rounds back to 1.0; pairwise and compensated sums do not
        terms = [1.0] + [1e-16] * 10
        g = make_grid(0.0, 10.0, 11)
        assert g.dx == 1.0
        got = lp_norm(GridFunction(g, np.array(terms)), PNorm(1.0))
        assert got == functools.reduce(operator.add, terms, 0.0) == 1.0
        assert got != math.fsum(terms)
        assert got != float(np.sum(np.array(terms)))

    @staticmethod
    def _written_out(x, dx, p):
        """Every sample's term, on the whole grid, of the samples divided by s and summed left to right, times s:
        s = 2^e with max|x| / 2^e in [1/2, 1) at p in {1, 2}, and s = max|x| at other p."""
        top = float(np.max(np.abs(x)))
        if not top:
            return 0.0
        s = 2.0 ** math.frexp(top)[1] if p in (1.0, 2.0) else top
        y = np.abs(x) / s
        terms = y * dx if p == 1.0 else y * y * dx if p == 2.0 else y**p * dx
        total = float(np.cumsum(terms)[-1])
        return s * (total if p == 1.0 else math.sqrt(total) if p == 2.0 else total ** (1.0 / p))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_zero_tails_skipped_with_the_same_bits(self, p):
        # leading and trailing runs of +0 and -0, subnormals inside and at the
        # ends, all zeros, and both ends nonzero (no span scan)
        n, rng = 257, np.random.default_rng(5)
        values = np.array([0.0, -0.0, 1e-320, -1e-320, 5e-324, 1e-160, -0.75, 2.5])
        g = make_grid(-1.0, 1.0, n)
        cases = [np.zeros(n), np.full(n, -0.0), rng.standard_normal(n)]
        for a, b in ((0, n), (0, 40), (200, n), (100, 101), (30, 220)):
            for fill in (0.0, -0.0):
                for _ in range(4):
                    x = np.full(n, fill)
                    x[a:b] = rng.choice(values, size=b - a)
                    cases.append(x)
        for x in cases:
            got = lp_norm(GridFunction(g, x), PNorm(p))
            want = self._written_out(x, g.dx, p)
            assert got.hex() == want.hex(), (x[x != 0], p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 19.5, 1e300])
    def test_accurate_at_every_height(self, p):
        # the terms of the scaled samples neither overflow nor underflow: the norm is exactly homogeneous under
        # 2^k while the samples stay normal (the bump's smallest is about 2^-22), accurate at heights whose squares
        # leave the floats, and at p = 1e300 it is max|f|, the limit p -> inf
        g = make_grid(-8.0, 8.0, 513)
        f, norm = bump(g, radius=1.0), PNorm(p)
        base = lp_norm(f, norm)
        for k in (-1000, -565, -40, 7, 300, 511, 1000):
            assert lp_norm(GridFunction(g, np.ldexp(f.samples, k)), norm) == math.ldexp(base, k), k
        for height in (1e-170, 1e300):
            assert lp_norm(bump(g, radius=1.0, height=height), norm) == pytest.approx(height * base, rel=1e-14)
        if p == 1e300:
            assert base == 1.0 == f.max_abs()

    def test_only_a_norm_past_the_floats_is_inf(self):
        # 1e308 on 513 nodes 1/32 apart, a measure of 16.03: its L^1 norm is 1.6e309 and its L^2 norm 4.0e308, past
        # the floats, while its L^8 norm is 1.41e308
        g = make_grid(-8.0, 8.0, 513)
        f = GridFunction(g, np.full(513, 1e308))
        assert [lp_norm(f, PNorm(p)) for p in (1.0, 2.0, 8.0)] == [math.inf, math.inf,
                                                                   pytest.approx(1e308 * 16.03125**0.125, rel=1e-14)]

    def test_ramp_l1_converges_to_half(self):
        # rectangle rule for int_0^1 x dx is exactly N/(2(N-1))
        vals = []
        for n in (11, 101, 1001):
            g = make_grid(0.0, 1.0, n)
            vals.append(lp_norm(ramp(g), PNorm(1.0)))
            assert vals[-1] == pytest.approx(n / (2.0 * (n - 1)), rel=1e-13)
        assert abs(vals[-1] - 0.5) < abs(vals[0] - 0.5)

    @given(
        alpha=st.floats(min_value=1e-3, max_value=100.0),
        sign=st.sampled_from([-1.0, 1.0]),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, alpha, sign, p):
        g = make_grid(-2.0, 2.0, 101)
        rng = np.random.default_rng(7)
        f = GridFunction(g, rng.standard_normal(101))
        norm = PNorm(p)
        lhs = lp_norm(sign * alpha * f, norm)
        rhs = alpha * lp_norm(f, norm)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestInterpShift:
    def test_constant_interior(self):
        g = make_grid(-4.0, 4.0, 81)
        f = GridFunction(g, 3.0 * np.ones(81))
        shifted = interp_shift(f, 0.37)
        # zero extension only affects the upwind edge
        assert np.all(shifted.samples[:-5] == pytest.approx(3.0, abs=1e-15))

    def test_exact_node_shift_is_reindex(self):
        g = make_grid(-4.0, 4.0, 81)
        rng = np.random.default_rng(0)
        f = GridFunction(g, rng.standard_normal(81))
        shifted = interp_shift(f, 3 * g.dx)
        assert np.array_equal(shifted.samples[:-3], f.samples[3:])
        assert np.all(shifted.samples[-3:] == 0.0)

    def test_ramp_shift_exact(self):
        # linear interpolation reproduces affine data exactly
        g = make_grid(0.0, 1.0, 11)
        f = ramp(g)
        shifted = interp_shift(f, 0.05)
        expected = g.nodes() + 0.05
        assert shifted.samples[:-1] == pytest.approx(expected[:-1], rel=1e-14)

    def test_out_of_range_absorbed(self):
        g = make_grid(0.0, 1.0, 11)
        f = GridFunction(g, np.ones(11))
        assert np.all(interp_shift(f, 5.0).samples == 0.0)

    # on 81 nodes of dx = 0.1: 0 nodes, whole and fractional shifts, exactly
    # +-n nodes (+-8.1), half a node inside them, and beyond them
    @pytest.mark.parametrize("delta", [0.0, 0.3, -0.37, 8.1, -8.1, 8.05, -8.05, 9.0, -12.34, 1e12])
    def test_matches_written_out_bits(self, delta):
        g = make_grid(-4.0, 4.0, 81)
        rng = np.random.default_rng(8)
        u = np.where(rng.random(81) < 0.3, rng.standard_normal(81),
                     rng.choice([0.0, -0.0, 1e-320, -1e-320], size=81))
        f = GridFunction(g, u)
        got, want = interp_shift(f, delta).samples, _interp_shift_arr(u, delta, g.dx)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.shares_memory(got, f.samples)

    @given(delta=st.floats(min_value=-3.0, max_value=3.0), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, delta, seed):
        g = make_grid(-4.0, 4.0, 101)
        rng = np.random.default_rng(seed)
        f = GridFunction(g, rng.standard_normal(101))
        h = f + GridFunction(g, np.abs(rng.standard_normal(101)))
        assert np.max(interp_shift(f, delta).samples - interp_shift(h, delta).samples) <= 0.0

    @given(
        delta=st.floats(min_value=-3.0, max_value=3.0),
        a=st.floats(min_value=-5.0, max_value=5.0),
        b=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_within_4_ulps(self, delta, a, b):
        g = make_grid(-4.0, 4.0, 101)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.standard_normal(101))
        h = GridFunction(g, rng.standard_normal(101))
        combo = interp_shift(a * f + b * h, delta).samples
        split = (a * interp_shift(f, delta) + b * interp_shift(h, delta)).samples
        # ulps of the intermediate magnitude: cancellation inside a stencil can
        # make the result arbitrarily small relative to the roundoff carriers
        scale = (abs(a) * interp_shift(abs(f), delta) + abs(b) * interp_shift(abs(h), delta)).samples
        assert np.all(np.abs(combo - split) <= 4.0 * np.spacing(scale + 1e-300))


class TestPointwiseMax:
    def test_idempotent(self, grid_small, bump_small):
        out = pointwise_max([bump_small, bump_small])
        assert np.array_equal(out.samples, bump_small.samples)

    def test_upper_bound(self, grid_small, make_smooth):
        rng = np.random.default_rng(5)
        f, g = make_smooth(grid_small, rng), make_smooth(grid_small, rng)
        m = pointwise_max([f, g])
        assert np.max(f.samples - m.samples) <= 0.0 and np.max(g.samples - m.samples) <= 0.0

    def test_elementwise_example(self):
        g = make_grid(0.0, 2.0, 3)
        fs = [GridFunction(g, v) for v in ([0, 1, 2], [2, 0, 1], [1, 2, 0])]
        assert np.array_equal(pointwise_max(fs).samples, [2.0, 2.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            pointwise_max([])


class TestPNorm:
    def test_conjugate(self):
        n = PNorm(2.0)
        assert n.q == 2.0
        n = PNorm(1.0)
        assert math.isinf(n.q)
        n = PNorm(3.0)
        assert abs(1.0 / n.p + 1.0 / n.q - 1.0) <= 1e-15

    def test_rejects_bad(self):
        with pytest.raises(ConfigurationError):
            PNorm(0.5)


class TestCsv:
    def test_round_trip(self, tmp_path, grid_small, bump_small):
        path = tmp_path / "f.csv"
        write_csv(bump_small, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,value"
        back = read_csv(path)
        assert back.grid == bump_small.grid
        assert np.array_equal(back.samples, bump_small.samples)

    def test_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n0,1\n0.5,1\n2,1\n")
        with pytest.raises(ConfigurationError):
            read_csv(path)


class TestGridFunction:
    def test_rejects_nonfinite(self, grid_small):
        vals = np.zeros(grid_small.n_nodes)
        vals[3] = np.inf
        with pytest.raises(UsageError):
            GridFunction(grid_small, vals)

    def test_rejects_wrong_length(self, grid_small):
        with pytest.raises(UsageError):
            GridFunction(grid_small, np.zeros(7))

    def test_immutable(self, bump_small):
        with pytest.raises(ValueError):
            bump_small.samples[0] = 1.0

    @pytest.mark.parametrize("lower, upper, n, center, radius", [
        (-4.0, 4.0, 801, 0.3, 1.1),       # inside the grid
        (-4.0, 4.0, 801, -9.0, 2.0),      # centre and support left of the grid
        (-4.0, 4.0, 801, 5.0, 1.5),       # centre off the grid, support reaching in
        (-4.0, 4.0, 801, 0.0, 50.0),      # radius wider than the grid
        (-4.0, 4.0, 801, -3.0, 1.0),      # support ending at the lower edge
        (-4.0, 4.0, 801, 3.5, 0.5),       # support ending at the upper edge
        (-1.0, 1.0, 2, 0.0, 0.5),         # two nodes, none inside
        (1.0, 1.0 + 1e-15, 101, 1.0 + 4.5e-16, 1e-16),  # nodes too dense for their floats
    ])
    def test_bump_on_its_support_matches_whole_grid(self, lower, upper, n, center, radius):
        # evaluated only on the nodes of [c - r, c + r], against every node
        g = make_grid(lower, upper, n)
        u = (g.nodes() - center) / radius
        want = np.zeros(n)
        inside = np.abs(u) < 1.0
        with np.errstate(over="ignore", under="ignore"):
            want[inside] = 2.0 * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        got = bump(g, center=center, radius=radius, height=2.0).samples
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert not got.flags.writeable

    def test_bump_nan_center_is_zero(self):
        g = make_grid(-1.0, 1.0, 11)
        assert np.array_equal(bump(g, center=math.nan).samples, np.zeros(11))

    def test_bump_support(self, grid_small):
        f = bump(grid_small, center=1.0, radius=2.0, height=3.0)
        x = grid_small.nodes()
        assert np.all(f.samples[np.abs(x - 1.0) >= 2.0] == 0.0)
        assert f.max_abs() == pytest.approx(3.0, rel=1e-12)
