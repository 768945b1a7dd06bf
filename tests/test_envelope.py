import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import _heat_written_out, _interp_shift_arr, _shift_int
from nisioenv import PNorm, UsageError, envelope
from nisioenv.envelope import (
    _FILTER_CUTOVER,
    _chain,
    Partition,
    _step_plan,
    _window_plan,
    apply_partition,
    nisio_dyadic,
    step_J,
)
from nisioenv.funcspace import (
    _SNAP_TOL,
    GridFunction,
    bump,
    interp_shift,
    lp_norm,
    make_grid,
)
from nisioenv.kernels import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PureShift,
    _poisson_weights,
    apply_member,
    heat_convolve,
    upper_bound_C,
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(UsageError):
            Partition((0.5, 1.0))
        with pytest.raises(UsageError):
            Partition((0.0, 0.4, 0.4))
        pi = Partition((0.0, 0.1, 0.5))
        assert pi.gaps() == pytest.approx([0.1, 0.4])

    def test_dyadic(self):
        pi = Partition.dyadic(0.5, 2)
        assert pi.times == (0.0, 0.125, 0.25, 0.375, 0.5)


def _window_sup_arr(u, lo, hi, dx):
    return _window_plan((lo, hi), True, dx, u.shape[0]).run(u)


def _window_int_max(u, ml, mh):
    """The window supremum with whole-node ends on dx = 1: both ends snap to
    the integer offsets, so it is the integer max alone."""
    return _window_plan((ml, mh), True, 1.0, u.shape[0]).run(u)


class TestWindowSup:
    def test_filter_path_matches_reduce_path(self):
        # on 9 001 nodes each window keeps more than _FILTER_CUTOVER offsets
        # after clamping to [-n, n], so the max runs the block maximum: around
        # offset 0, from it, up to it, and off it on either side
        n = 9001
        u = np.random.default_rng(9).standard_normal(n)
        for ml, mh in ((-2100, 2100), (0, 4200), (-4200, 0), (100, 4300), (-8000, -3800)):
            assert min(mh, n) - max(ml, -n) + 1 > _FILTER_CUTOVER
            # brute force: out[i] is the max of the zero-padded run from i + ml
            left = max(-ml, 0)
            padded = np.concatenate([np.zeros(left), u, np.zeros(max(mh, 0))])
            brute = sliding_window_view(padded, mh - ml + 1)[left + ml : left + ml + n].max(axis=1)
            assert np.array_equal(_window_int_max(u, ml, mh), brute), (ml, mh)

    def test_exact_interpolant_supremum(self):
        # brute force over a dense offset sample never exceeds the window sup,
        # and matches it when the sample contains the nodes and endpoints
        rng = np.random.default_rng(4)
        u = rng.standard_normal(200)
        dx = 0.01
        lo, hi = -0.033, 0.051
        out = _window_sup_arr(u, lo, hi, dx)
        deltas = np.concatenate([np.linspace(lo, hi, 2001), np.arange(-3, 6) * dx])
        deltas = deltas[(deltas >= lo - 1e-12) & (deltas <= hi + 1e-12)]
        brute = np.maximum.reduce([np.asarray(_shifted(u, d, dx)) for d in deltas])
        assert np.max(np.abs(out - brute)) < 1e-12
        assert np.min(out - brute) >= -1e-12


def _int_max_written_out(u, ml, mh):
    """The max over the integer offsets ml..mh: a stacked reduce of
    `_shift_int` per offset up to 48 offsets, a fold in increasing offset
    order over a zero-padded copy beyond, np.maximum in place, so the later
    offset wins a tie. The 48 is fixed, not `envelope._FILTER_CUTOVER`, so
    each window path meets both references."""
    if mh - ml + 1 <= 48:
        return np.maximum.reduce([_shift_int(u, m) for m in range(ml, mh + 1)])
    n, pad = u.shape[0], max(abs(ml), abs(mh))
    padded = np.concatenate([np.zeros(pad), u, np.zeros(pad)])
    out = padded[pad + ml : pad + ml + n].copy()
    for m in range(ml + 1, mh + 1):
        np.maximum(out, padded[pad + m : pad + m + n], out=out)
    return out


def _window_sup_written_out(u, lo, hi, dx):
    """The window supremum with every candidate a fresh array: both endpoints
    by `_interp_shift_arr`, the integer offsets by `_int_max_written_out`,
    one stacked reduce."""
    ml = math.ceil(lo / dx - _SNAP_TOL)
    mh = math.floor(hi / dx + _SNAP_TOL)
    candidates = [_interp_shift_arr(u, lo, dx), _interp_shift_arr(u, hi, dx)]
    if ml <= mh:
        candidates.append(_int_max_written_out(u, ml, mh))
    return np.maximum.reduce(candidates)


class TestWindowSupBytes:
    # the sign of a zero is part of the bytes: ties between +0 and -0 must
    # resolve as in the written-out reduce
    VALUES = np.array([0.0, -0.0, 1e-320, -1e-320, -1.0, -2.5, 0.5, 1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 60, 200, 513])
    def test_matches_written_out_reduce(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            u = rng.choice(self.VALUES, size=n)
            if rng.random() < 0.5:
                u = np.where(rng.random(n) < 0.5, u, rng.standard_normal(n))
            dx = float(rng.choice([0.01, 0.1, 1.0 / 3.0]))
            # windows up to 1500 nodes: wider than the grid, on both sides of
            # the window cutover, and often off offset 0
            span = float(rng.choice([2, 10, 60, 300, 1500])) * dx
            ends = rng.uniform(-span, span, size=2)
            snap = rng.random(2) < 0.4  # endpoints on a node
            lo, hi = sorted(np.where(snap, np.round(ends / dx) * dx, ends).tolist())
            if rng.random() < 0.2:  # a window between two nodes
                lo = hi - rng.uniform(0.0, dx)
            want, got = _window_sup_written_out(u, lo, hi, dx), _window_sup_arr(u, lo, hi, dx)
            assert np.array_equal(got, want), (lo / dx, hi / dx)
            # with a single node the written-out reduce is numpy's 1-D
            # reduction, whose +0/-0 tie order no grid reaches (make_grid
            # needs two nodes); from two nodes on it folds row by row
            if n > 1:
                assert np.array_equal(np.signbit(got), np.signbit(want)), (lo / dx, hi / dx)

    @pytest.mark.parametrize("n", [2, 5, 201])
    def test_points_alone_match_written_out_reduce(self, n):
        # a window that is not connected reads its points alone: on a node,
        # off it, repeated, beyond the grid, and with the node offsets between
        # them left out; the bits of the stacked reduce of the shifts
        rng = np.random.default_rng(n + 1)
        dx = 0.1
        for _ in range(200):
            u = rng.choice(self.VALUES, size=n)
            k = int(rng.integers(1, 9))
            points = rng.uniform(-1.5 * n * dx, 1.5 * n * dx, size=k)
            points = np.where(rng.random(k) < 0.4, np.round(points / dx) * dx, points)
            points = sorted(np.concatenate([points, points[:1]]).tolist())
            want = np.maximum.reduce([_interp_shift_arr(u, p, dx) for p in points])
            got = _window_plan(points, False, dx, n).run(u)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), points
            assert not np.shares_memory(got, u)

    @pytest.mark.parametrize("n", [2, 5, 201])
    def test_single_offset_windows(self, n):
        # windows whose integer offsets are the one offset m (a sub-cell
        # window), whose shift is maxed in place into the ends' max or copied:
        # m = 0 and +-1, m beyond +-n (clamped), ends off the nodes, one or
        # both ends on node m, and ends a hair inside m -+ 1
        rng = np.random.default_rng(n)
        dx = 0.1
        for m in (0, 1, -1, n + 3, -n - 3):
            for lo_frac, hi_frac in ((-0.3, 0.4), (0.0, 0.4), (-0.3, 0.0), (0.0, 0.0), (-0.999, 0.999)):
                lo, hi = (m + lo_frac) * dx, (m + hi_frac) * dx
                assert math.ceil(lo / dx - _SNAP_TOL) == math.floor(hi / dx + _SNAP_TOL) == m, (m, lo, hi)
                for _ in range(20):
                    u = rng.choice(self.VALUES, size=n)
                    want, got = _window_sup_written_out(u, lo, hi, dx), _window_sup_arr(u, lo, hi, dx)
                    assert np.array_equal(got, want), (m, lo_frac, hi_frac)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (m, lo_frac, hi_frac)
                    assert not np.shares_memory(got, u)

    @pytest.mark.parametrize("n", [2049, 4100])
    @pytest.mark.parametrize("count", [4095, 4096, 4097])
    def test_both_sides_of_the_filter_cutover(self, n, count):
        # the doubling fold up to 4096 offsets and the block maximum beyond
        # give the bits of the written-out fold, on windows off offset 0,
        # around it and wider than the grid
        rng = np.random.default_rng(count + n)
        for ml in (-count // 2, 1 - count, -3, 5, -n - 7, n - count + 2):
            u = rng.choice(self.VALUES, size=n)
            want, got = _int_max_written_out(u, ml, ml + count - 1), _window_int_max(u, ml, ml + count - 1)
            assert np.array_equal(got, want), ml
            assert np.array_equal(np.signbit(got), np.signbit(want)), ml

    # windows past the cutover on 9 001 nodes: around offset 0, off it on
    # either side (as for drifts in [0.25, 1]), and wider than the grid
    FILTER_WINDOWS = ((-2100, 2100), (-4500, 100), (1000, 5200), (100, 4300), (-8000, -3800), (-9500, 9500))

    @staticmethod
    def _supports(n, rng):
        """Samples whose nonzero bits lie on one span: inside, touching
        either edge, the whole grid, a lone -0, -0 tails, all +0."""
        out = []
        for a, b in ((3000, 4000), (0, 700), (n - 700, n), (0, n), (4500, 4501), (0, 1), (n - 1, n)):
            u = np.zeros(n)
            u[a:b] = np.random.default_rng(a + b).choice(TestWindowSupBytes.VALUES, size=b - a)
            # the first output whose window meets the span reads only its
            # -0, the last one only its 1e-320
            u[a], u[b - 1] = -0.0, 1e-320
            out.append(u)
        tails = np.full(n, -0.0)
        tails[4000:4100] = rng.choice(TestWindowSupBytes.VALUES, size=100)
        lone = np.zeros(n)
        lone[4321] = -0.0
        return out + [tails, lone, np.zeros(n)]

    def test_cropped_filter_matches_uncropped_and_brute_force(self):
        # the block maximum runs only where a window meets the span of
        # nonzero bits; against the written-out fold over every output
        # (values and sign bits) and a brute-force max over each zero-padded
        # window (values)
        n, rng = 9001, np.random.default_rng(12)
        for u in self._supports(n, rng):
            for ml, mh in self.FILTER_WINDOWS:
                wl, wh = max(ml, -n), min(mh, n)
                count = wh - wl + 1
                assert count > _FILTER_CUTOVER
                whole = _int_max_written_out(u, ml, mh)
                padded = np.concatenate([np.zeros(n), u, np.zeros(n)])
                brute = sliding_window_view(padded, count)[n + wl : 2 * n + wl].max(axis=1)
                got = _window_int_max(u, ml, mh)
                assert np.array_equal(got, whole) and np.array_equal(np.signbit(got), np.signbit(whole)), (ml, mh)
                assert np.array_equal(got, brute), (ml, mh)

    def test_block_maximum_matches_the_fold(self, monkeypatch):
        # 300 windows past the cutover, against the doubling fold run on them
        # (values and sign bits): +-0 only, +-0 with negatives, normals, and
        # supports that touch a grid end; windows around offset 0, off it on
        # either side, and up to 2n + 1 offsets, past the grid's clamp
        rng = np.random.default_rng(29)
        for case in range(300):
            n = int(rng.integers(4200, 7000))
            kind = case % 4
            if kind == 0:
                u = rng.choice([0.0, -0.0], size=n)
            elif kind == 1:
                u = rng.choice([0.0, -0.0, -1e-320, -1.0, -2.5], size=n)
            elif kind == 2:
                u = rng.standard_normal(n)
            else:
                u, a = np.zeros(n), int(rng.integers(1, n))
                support = slice(0, a) if rng.random() < 0.5 else slice(n - a, n)
                u[support] = rng.choice(self.VALUES, size=a)
            count = int(rng.integers(_FILTER_CUTOVER + 1, 2 * n + 2))
            side = case % 3  # around offset 0, right of it, left of it
            if side == 0:
                ml = -int(rng.integers(0, count))
            else:
                ml = int(rng.integers(1, n - _FILTER_CUTOVER))
                ml = ml if side == 1 else -ml - count + 1
            mh = ml + count - 1
            assert min(mh, n) - max(ml, -n) + 1 > _FILTER_CUTOVER, (n, ml, mh)
            got = _window_int_max(u, ml, mh)
            with monkeypatch.context() as patched:
                patched.setattr(envelope, "_FILTER_CUTOVER", 2 * n + 1)
                want = _window_int_max(u, ml, mh)
            assert np.array_equal(got, want), (case, n, ml, mh)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (case, n, ml, mh)

    def test_shift_beyond_the_grid_pads_at_most_n(self):
        # a drift of 1e12 nodes reads only zeros; no 1e12-node padding is built
        u = np.arange(1.0, 6.0)
        assert np.array_equal(_window_sup_arr(u, 1e10, 2e10, 0.01), np.zeros(5))
        assert np.array_equal(_window_sup_arr(u, -1e10, 1e10, 0.01), np.full(5, 5.0))


def _shifted(u, delta, dx):
    return _interp_shift_arr(u, float(delta), dx)


class TestStepJ:
    def test_constant_fixed_interior(self):
        g = make_grid(-8.0, 8.0, 801)
        const = GridFunction(g, 1.5 * np.ones(801))
        fam = GaussianDrift(LambdaInterval(-1.0, 1.0))
        out = step_J(fam, 0.1, const)
        sl = g.interior_slice(0.3)
        assert np.max(np.abs(out.samples[sl] - 1.5)) < 1e-10

    def test_interval_sup_matches_brute_force_scan(self):
        # grid and h chosen so every node offset lies on the 2001-point
        # lambda lattice; the window sup then equals the brute-force scan
        g = make_grid(-10.0, 10.0, 2001)
        f = bump(g, radius=1.0)
        h = 0.1
        fam = GaussianDrift(LambdaInterval(-1.0, 1.0))
        out = step_J(fam, h, f)
        smoothed = heat_convolve(f, h)
        lams = np.linspace(-1.0, 1.0, 2001)
        brute = np.maximum.reduce([interp_shift(smoothed, lam * h).samples for lam in lams])
        assert np.max(np.abs(out.samples - brute)) < 1e-12

    def test_pure_shift_interval(self):
        g = make_grid(-4.0, 4.0, 801)
        f = bump(g, radius=0.5)
        fam = PureShift(LambdaInterval(-1.0, 1.0))
        out = step_J(fam, 0.3, f)
        # supremum over shifts spreads the bump plateau; max is preserved
        assert out.max_abs() == pytest.approx(f.max_abs(), rel=1e-12)
        assert np.max(f.samples - out.samples) <= 1e-12

    def test_h_nonpositive_rejected(self, gauss_family, bump_small):
        with pytest.raises(UsageError):
            step_J(gauss_family, 0.0, bump_small)


def _cp_member_one_by_one(fam, lam, h, f):
    """One Poisson series for one member, its jump powers rebuilt from f."""
    weights = _poisson_weights(lam * h)
    acc = weights[0] * f.samples
    cur = f.samples
    for w in weights[1:]:
        cur = _mix_written_out(cur, fam.mu, f.grid.dx)
        acc = acc + w * cur
    return acc


class TestSharedMembers:
    """step_J shares each family's linear part across the sampled members;
    the result must equal the members applied one by one, bit for bit."""

    mu = JumpDistribution(((-0.7, 0.3), (1.0, 0.7)))

    @pytest.mark.parametrize("h", [1.0, 0.37])
    def test_cp_interval(self, h):
        g = make_grid(-10.0, 10.0, 2001)
        f = bump(g, radius=1.0)
        fam = CompoundPoisson(LambdaInterval(0.0, 1.0), self.mu)
        expected = np.maximum(_cp_member_one_by_one(fam, 0.0, h, f), _cp_member_one_by_one(fam, 1.0, h, f))
        assert np.array_equal(step_J(fam, h, f).samples, expected)

    @pytest.mark.parametrize("h", [1.0, 0.37])
    def test_cp_list_several_positive_intensities(self, h):
        g = make_grid(-10.0, 10.0, 2001)
        f = bump(g, radius=1.0)
        fam = CompoundPoisson(LambdaValues((0.0, 0.5, 1.3, 2.0)), self.mu)
        expected = np.maximum.reduce([_cp_member_one_by_one(fam, lam, h, f) for lam in fam.lambda_set.values])
        assert np.array_equal(step_J(fam, h, f).samples, expected)

    # h = 1e-5 is below 2.25 dx^2, so the heat step takes the random-walk branch
    @pytest.mark.parametrize("h", [0.3, 1e-5])
    def test_gaussian_list(self, h):
        g = make_grid(-8.0, 8.0, 801)
        f = bump(g, radius=1.0)
        fam = GaussianDrift(LambdaValues((-0.8, 0.25, 1.1)))
        expected = np.maximum.reduce(
            [interp_shift(heat_convolve(f, h), lam * h).samples for lam in fam.lambda_set.values])
        assert np.array_equal(step_J(fam, h, f).samples, expected)


def test_translate_list_step_holds_no_member_rows():
    # one step of 50 drifts on 20 001 nodes holds a few grid-long arrays
    # (about 6 n doubles), never a row per member (50 n)
    g = make_grid(-10.0, 10.0, 20001)
    f = bump(g, radius=1.0)
    fam = GaussianDrift(LambdaValues(tuple(np.linspace(-1.0, 1.0, 50))))
    _step_plan(fam, 0.01, g.dx, g.n_nodes)  # the heat weights and point splits, built before the measurement
    tracemalloc.start()
    try:
        step_J(fam, 0.01, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * g.n_nodes, peak / (8 * g.n_nodes)


def _mix_written_out(arr, mu, dx):
    """One convolution with mu: w_j times each interpolated shift, added to
    zeros atom by atom."""
    out = np.zeros(arr.shape[0])
    for y, w in mu.atoms:
        out += w * _interp_shift_arr(arr, y, dx)
    return out


def _member_written_out(fam, lam, h, f):
    """One member at time h, its Poisson series summed term by term with
    every jump power a fresh array."""
    dx = f.grid.dx
    if isinstance(fam, CompoundPoisson):
        weights = _poisson_weights(lam * h)
        acc, cur = weights[0] * f.samples, f.samples
        for w in weights[1:]:
            cur = _mix_written_out(cur, fam.mu, dx)
            acc = acc + w * cur
        return acc
    base = _heat_written_out(f.samples, h, dx) if isinstance(fam, GaussianDrift) else f.samples
    return _interp_shift_arr(base, lam * h, dx)


def _step_written_out(fam, h, f):
    """The one-step supremum with no plan: every member or window candidate
    a fresh array, one stacked max, and a copying GridFunction."""
    lset = fam.lambda_set
    if isinstance(lset, LambdaInterval) and not isinstance(fam, CompoundPoisson):
        base = _heat_written_out(f.samples, h, f.grid.dx) if isinstance(fam, GaussianDrift) else f.samples
        return GridFunction(f.grid, _window_sup_written_out(base, lset.lo * h, lset.hi * h, f.grid.dx))
    lams = lset.values if isinstance(lset, LambdaValues) else (lset.lo, lset.hi)  # a CP interval: its two ends
    return GridFunction(f.grid, np.maximum.reduce([_member_written_out(fam, lam, h, f) for lam in lams]))


def _plan_arrays(obj, seen=None):
    """Every ndarray a step plan holds, through closures, tuples and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _plan_arrays(item, seen)]
    cells = getattr(obj, "__closure__", None) or ()
    return [a for cell in cells for a in _plan_arrays(cell.cell_contents, seen)]


_MU2 = JumpDistribution(((-0.73, 0.4), (0.2, 0.6)))  # a fractional and a whole-node offset on dx = 0.1
_MU3 = JumpDistribution(((0.3, 0.25), (-1.15, 0.35), (0.055, 0.4)))
# jumps of 0 nodes, of exactly +n nodes (20.1 on 201 nodes of dx = 0.1), half
# a node inside -n, beyond -n, and whole-node and fractional ones
_MU_FAR = JumpDistribution(((0.0, 0.2), (20.1, 0.2), (-20.05, 0.2), (-25.0, 0.2), (0.37, 0.1), (-0.2, 0.1)))
PLAN_FAMILIES = {
    "gauss-interval": GaussianDrift(LambdaInterval(-0.7, 1.1)),
    "gauss-list": GaussianDrift(LambdaValues((-0.8, 0.25, 1.1))),
    "shift-interval": PureShift(LambdaInterval(-1.0, 0.6)),
    "cp-interval": CompoundPoisson(LambdaInterval(0.0, 1.3), _MU2),
    "cp-list": CompoundPoisson(LambdaValues((0.0, 0.5, 2.0)), _MU3),
    # at h = 0.5, 0.25, ... on dx = 0.1: drifts of 0 nodes, exactly -+n
    # nodes and half a node inside them at h = 0.5, and beyond them
    "shift-list-far": PureShift(LambdaValues((-40.2, -40.1, 0.0, 0.6, 40.1, 40.2, 97.3))),
    "gauss-list-far": GaussianDrift(LambdaValues((-61.0, -40.2, 0.0, 40.1))),
    "shift-interval-far": PureShift(LambdaInterval(-55.0, 40.2)),
    "gauss-interval-far": GaussianDrift(LambdaInterval(-40.1, 77.7)),
    "cp-list-far": CompoundPoisson(LambdaValues((0.5, 2.0)), _MU_FAR),
}


def _signed_zero_data(g, seed, normal=0.5):
    """Samples of +-0, +-1e-320 and other small values, a share `normal`
    of them replaced by normal values; tiny values keep signed zeros in the
    results, so sign bits show."""
    rng = np.random.default_rng(seed)
    u = rng.choice(TestWindowSupBytes.VALUES, size=g.n_nodes)
    return GridFunction(g, np.where(rng.random(g.n_nodes) < normal, rng.standard_normal(g.n_nodes), u))


class TestStepPlans:
    """step_J runs a cached plan per (family, h, dx, n) and wraps its result
    without a copy; the bits must be those of the written-out step."""

    @pytest.mark.parametrize("name", PLAN_FAMILIES)
    def test_apply_partition_matches_written_out_steps(self, name):
        # dx = 0.1: the Gaussian heat step is a sampled kernel up to level 4
        # and random-walk steps at levels 5 and 6
        fam = PLAN_FAMILIES[name]
        g = make_grid(-10.0, 10.0, 201)
        for f in (_signed_zero_data(g, 3), _signed_zero_data(g, 4, normal=0.02)):
            for level in range(7):
                want = f
                for h in reversed(Partition.dyadic(0.5, level).gaps()):
                    want = _step_written_out(fam, h, want)
                got = apply_partition(fam, Partition.dyadic(0.5, level), f).samples
                assert np.array_equal(got, want.samples), level
                assert np.array_equal(np.signbit(got), np.signbit(want.samples)), level

    def test_plan_cache_keeps_keys_apart(self):
        # equal dx on different node counts, and families that differ only in
        # mu or only in the lambda set, each get a plan of their own
        g1, g2 = make_grid(-10.0, 10.0, 201), make_grid(-5.0, 5.0, 101)
        assert g1.dx == g2.dx
        fams = [CompoundPoisson(LambdaInterval(0.0, 1.3), _MU2), CompoundPoisson(LambdaInterval(0.0, 1.3), _MU3),
                GaussianDrift(LambdaInterval(-0.7, 1.1)), GaussianDrift(LambdaInterval(-0.7, 0.4)),
                GaussianDrift(LambdaValues((-0.7, 1.1)))]
        _step_plan.cache_clear()
        for _ in range(2):  # the second round reads every plan from the cache
            for fam, g in itertools.product(fams, (g1, g2)):
                f = _signed_zero_data(g, g.n_nodes)
                got, want = step_J(fam, 0.125, f).samples, _step_written_out(fam, 0.125, f).samples
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (fam, g)
        info = _step_plan.cache_info()
        assert info.currsize == len(fams) * 2 and info.hits == len(fams) * 2

    @pytest.mark.parametrize("name", PLAN_FAMILIES)
    def test_results_are_fresh_and_read_only(self, name):
        fam = PLAN_FAMILIES[name]
        g = make_grid(-10.0, 10.0, 201)
        f = bump(g, radius=1.0)
        a = step_J(fam, 0.25, f)
        b = step_J(fam, 0.25, a)
        c = step_J(fam, 0.25, f)
        held = _plan_arrays(_step_plan(fam, 0.25, g.dx, g.n_nodes))
        for x in (a, b, c):
            assert not x.samples.flags.writeable
            assert not any(np.shares_memory(x.samples, arr) for arr in held)
        for x, y in itertools.combinations((f, a, b, c), 2):
            assert not np.shares_memory(x.samples, y.samples)

    @pytest.mark.parametrize("name", PLAN_FAMILIES)
    def test_chain_matches_step_J_loop(self, name):
        # a chain runs one plan on raw arrays: the bits of a loop of step_J,
        # in a fresh read-only result
        fam = PLAN_FAMILIES[name]
        g = make_grid(-10.0, 10.0, 201)
        for m in (1, 2, 5):
            f = _signed_zero_data(g, 8, normal=0.1)
            want = f
            for _ in range(m):
                want = step_J(fam, 0.125, want)
            got = _chain(fam, 0.125, m, f).samples
            assert np.array_equal(got, want.samples) and np.array_equal(np.signbit(got), np.signbit(want.samples))
            assert not got.flags.writeable and not np.shares_memory(got, f.samples)

    def test_pure_shift_chains_equal_one_step_on_both_window_paths(self):
        # T_L = T_0 while lambda_bar h >= dx: a chain of 2^L shift steps of
        # 0.5 / 2^L, each window on whole nodes of dx = 2^-13, has the bits
        # of one step of 0.5. Levels 0-1 take the block maximum, 2-7 the fold
        g = make_grid(-3.0, 3.0, 49153)
        assert g.dx == 2.0**-13
        fam = PureShift(LambdaInterval(-1.0, 1.0))
        f = bump(g, radius=1.0)
        want = step_J(fam, 0.5, f).samples
        for level in range(8):
            h = 0.5 / (1 << level)
            assert (round(2 * h / g.dx) + 1 > _FILTER_CUTOVER) == (level <= 1)
            got = _chain(fam, h, 1 << level, f).samples
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), level

    def test_chain_checks_every_step_and_frees_its_start(self, monkeypatch, gauss_family):
        # the start is freed by the chain's first step, and a step that is not
        # finite raises at once, as step_J's result would
        g = make_grid(-10.0, 10.0, 201)
        real, starts, seen = envelope._step_plan, [], []

        def spying(fam, h, dx, n):
            plan = real(fam, h, dx, n)

            def run(arr):
                seen.append(starts[-1]() is not None)
                return np.full(n, np.inf) if len(seen) == 4 else plan.run(arr)

            return plan._replace(run=run)

        def start():
            f = bump(g, radius=1.0)
            starts.append(weakref.ref(f.samples))
            return f

        monkeypatch.setattr(envelope, "_step_plan", spying)
        _chain(gauss_family, 0.125, 3, start())
        assert seen == [True, False, False]
        with pytest.raises(UsageError, match="samples must all be finite"):
            _chain(gauss_family, 0.125, 5, start())
        assert len(seen) == 4

    @pytest.mark.parametrize("name", ["cp-interval", "cp-list", "cp-list-far"])
    def test_compound_poisson_plan_carries_no_state(self, name):
        # the jump powers alternate between two paddings made per call: inputs
        # A, B, A give A's bits twice, those of the written-out step
        fam = PLAN_FAMILIES[name]
        g = make_grid(-10.0, 10.0, 201)
        run = _step_plan(fam, 0.5, g.dx, g.n_nodes).run
        a, b = _signed_zero_data(g, 9), _signed_zero_data(g, 10, normal=0.02)
        first, other, again = run(a.samples), run(b.samples), run(a.samples)
        for got, want in ((first, _step_written_out(fam, 0.5, a).samples), (again, first),
                          (other, _step_written_out(fam, 0.5, b).samples)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_member_raises(self, sign):
        # the Poisson series of a constant at the float range overflows in
        # the member row of lam = 0.34 (not in those of 0.3 or 1); the
        # one-step supremum must not hide it
        g = make_grid(-5.0, 5.0, 101)
        f = GridFunction(g, np.full(101, sign * np.finfo(float).max))
        fam = CompoundPoisson(LambdaInterval(0.34, 1.0), JumpDistribution(((1.0, 1.0),)))
        with pytest.raises(UsageError, match="member samples must all be finite"), np.errstate(over="ignore"):
            step_J(fam, 1.0, f)


class TestApplyPartition:
    def test_single_gap_is_step(self, gauss_family):
        g = make_grid(-8.0, 8.0, 401)
        f = bump(g, radius=1.0)
        pi = Partition((0.0, 0.3))
        assert np.array_equal(apply_partition(gauss_family, pi, f).samples, step_J(gauss_family, 0.3, f).samples)

    def test_refinement_monotone_gaussian_scheme_tolerance(self, gauss_family):
        # the Gaussian one-steps resample between sub-steps, so nesting holds
        # only up to the piecewise-linear commutator, which is O(dx^2 u'')
        g = make_grid(-10.0, 10.0, 2001)
        f = bump(g, radius=1.0)
        v1 = apply_partition(gauss_family, Partition((0.0, 0.5)), f)
        v2 = apply_partition(gauss_family, Partition((0.0, 0.25, 0.5)), f)
        assert np.max(v1.samples - v2.samples) <= 1e-4

    def test_four_equal_steps_bit_exact(self, gauss_family):
        g = make_grid(-8.0, 8.0, 401)
        f = bump(g, radius=1.0)
        composed = f
        for _ in range(4):
            composed = step_J(gauss_family, 0.125, composed)
        via_partition = apply_partition(gauss_family, Partition.dyadic(0.5, 2), f)
        assert np.array_equal(via_partition.samples, composed.samples)


class TestNisioDyadic:
    def test_singleton_converges_at_level_one(self, norm2):
        # drift chosen so each sub-step shift is an exact node multiple
        g = make_grid(-8.0, 8.0, 1601)
        f = bump(g, radius=1.0)
        fam = GaussianDrift(LambdaValues((0.5,)))
        res = nisio_dyadic(fam, 0.4, f, 1e-4, 6, norm2)
        assert res.converged and res.levels_used == 1
        direct = apply_member(fam, 0.5, 0.4, f)
        assert lp_norm(res.final - direct, norm2) <= 1e-10

    @pytest.mark.parametrize("p, height, words", [(1e300, 1.0, "underflows"), (2.0, 1e-170, "underflows"),
                                                  (2.0, 1e300, "overflows")])
    def test_data_past_the_float_range_rejected(self, gauss_family, p, height, words):
        # data whose L^p terms underflow converged at level 1 on an increment of 0.0; f = 0 stays valid
        g = make_grid(-8.0, 8.0, 513)
        with pytest.raises(UsageError, match=words):
            nisio_dyadic(gauss_family, 0.5, bump(g, radius=1.0, height=height), 1e-4, 10, PNorm(p))
        zero = GridFunction(g, np.zeros(g.n_nodes))
        res = nisio_dyadic(gauss_family, 0.5, zero, 1e-4, 10, PNorm(p))
        assert res.converged and not res.final.samples.any()

    def test_iterates_monotone_compound_poisson(self, cp_family, norm2):
        g = make_grid(-10.0, 10.0, 2001)
        f = bump(g, radius=1.0)
        res = nisio_dyadic(cp_family, 1.0, f, 1e-12, 6, norm2)
        assert all(d >= -1e-9 for d in res.min_increments)

    def test_diagnostics_shape(self, gauss_family, norm2):
        g = make_grid(-8.0, 8.0, 401)
        f = bump(g, radius=1.0)
        res = nisio_dyadic(gauss_family, 0.5, f, 1e-3, 5, norm2)
        assert res.iterates_norms[0][0] == 0 and math.isnan(res.iterates_norms[0][2])
        assert len(res.increments()) == len(res.iterates_norms) - 1
        assert res.levels_used == res.iterates_norms[-1][0]
        if res.converged:
            assert res.increments()[-1] <= 1e-3 * lp_norm(f, norm2)
        rows = res.convergence_rows(0.5)
        assert rows[0][1] == 1 and rows[-1][1] == 2 ** res.levels_used
        assert res.boundary_leakage < 1e-12

    def test_monotone_in_initial_data(self, gauss_family, norm2, grid_small, make_smooth):
        rng = np.random.default_rng(17)
        f = make_smooth(grid_small, rng)
        g = f + abs(make_smooth(grid_small, rng))
        rf = nisio_dyadic(gauss_family, 0.3, f, 1e-3, 4, norm2)
        rg = nisio_dyadic(gauss_family, 0.3, g, 1e-3, 4, norm2)
        assert np.max(rf.final.samples - rg.final.samples) <= 0.0

    def test_nonconvergence_reported(self, gauss_family, norm2):
        g = make_grid(-8.0, 8.0, 401)
        f = bump(g, radius=1.0)
        res = nisio_dyadic(gauss_family, 0.5, f, 1e-14, 3, norm2)
        assert not res.converged and res.levels_used == 3

    def test_one_exact_step_size_per_level(self, gauss_family, norm2, step_J_calls):
        # at t = 0.1 the times t k / 2^L of a dyadic partition round apart by ulps; a level's steps do not
        f = bump(make_grid(-8.0, 8.0, 401), radius=1.0)
        nisio_dyadic(gauss_family, 0.1, f, 1e-300, 4, norm2)
        assert step_J_calls == [0.1 / 2**level for level in range(5) for _ in range(2**level)]
        assert len(set(Partition.dyadic(0.1, 4).gaps())) > 1

    @pytest.mark.parametrize("level", range(5))
    def test_exact_partition_times_give_the_same_bits(self, gauss_family, norm2, level):
        # at t = 0.5 every time t k / 2^L is exact, so the partition's gaps are the level's step
        f = bump(make_grid(-8.0, 8.0, 401), radius=1.0)
        res = nisio_dyadic(gauss_family, 0.5, f, 1e-300, level, norm2)
        assert res.levels_used == level
        assert np.array_equal(res.final.samples, apply_partition(gauss_family, Partition.dyadic(0.5, level), f).samples)

    def test_chains_share_the_half_horizon(self, gauss_family, norm2, step_J_calls):
        # level L at 0.1 starts from level L - 1 at 0.05; each run leaves only its own levels below n_max
        f = bump(make_grid(-8.0, 8.0, 401), radius=1.0)
        chains: dict = {}
        nisio_dyadic(gauss_family, 0.05, f, 1e-300, 3, norm2, chains=chains)
        assert sorted(chains) == sorted((0.05 / 2**level, 2**level) for level in range(3))
        del step_J_calls[:]
        res = nisio_dyadic(gauss_family, 0.1, f, 1e-300, 3, norm2, chains=chains)
        assert step_J_calls == [0.1, 0.05, 0.025, 0.025, 0.0125, 0.0125, 0.0125, 0.0125]
        assert sorted(chains) == sorted((0.1 / 2**level, 2**level) for level in range(3))
        own = nisio_dyadic(gauss_family, 0.1, f, 1e-300, 3, norm2)
        assert np.array_equal(res.final.samples, own.final.samples)
        assert res.iterates_norms == own.iterates_norms and res.min_increments == own.min_increments

    def test_random_partitions_never_exceed_final(self, cp_family, norm2):
        # the Gaussian drift case is verify's envelope.random_partition_no_exceedance
        g = make_grid(-10.0, 10.0, 1001)
        f = bump(g, radius=1.0)
        rng = np.random.default_rng(23)
        res = nisio_dyadic(cp_family, 0.5, f, 1e-4, 7, norm2)
        slack = 1e-4 * lp_norm(f, norm2)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            times = sorted(set(float(v) for v in rng.uniform(0.004, 0.496, size=k)))
            pi = Partition((0.0, *times, 0.5))
            val = apply_partition(cp_family, pi, f)
            assert np.max(val.samples - res.final.samples) <= slack


class TestCompoundPoissonInterval:
    """A compound Poisson interval steps over its two ends: its member
    generators are affine in lam, so the interval and its ends have one
    supremum generator, hence one envelope."""

    mu = JumpDistribution(((0.37, 0.6), (-0.8, 0.4)))

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.2, 3.0), (0.5, 0.5)])
    def test_same_bits_as_its_endpoint_list(self, norm2, lo, hi):
        interval = CompoundPoisson(LambdaInterval(lo, hi), self.mu)
        ends = CompoundPoisson(LambdaValues((lo, hi)), self.mu)
        f = _signed_zero_data(make_grid(-10.0, 10.0, 201), 5)
        for h in (1.0, 0.37):
            a, b = step_J(interval, h, f).samples, step_J(ends, h, f).samples
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), h
        f = bump(make_grid(-10.0, 10.0, 401), radius=1.0)
        ra, rb = (nisio_dyadic(fam, 0.5, f, 1e-300, 5, norm2) for fam in (interval, ends))
        assert np.array_equal(ra.final.samples, rb.final.samples)
        assert ra.iterates_norms == rb.iterates_norms and ra.min_increments == rb.min_increments

    def test_converges_with_the_sampled_chain(self, norm2):
        # 11 intensities of [0.2, 3], its ends and 9 evenly spaced between,
        # have the interval's supremum generator too: the gap between the two
        # level-L iterates falls faster than first order (10.9x from level 4
        # to 6 here); at least 8x over two levels is required
        mu = JumpDistribution(((1.0, 1.0),))
        ends = CompoundPoisson(LambdaInterval(0.2, 3.0), mu)
        sampled = CompoundPoisson(LambdaValues(tuple(float(v) for v in np.linspace(0.2, 3.0, 11))), mu)
        f = bump(make_grid(-8.0, 8.0, 257), radius=1.0)
        gaps = []
        for level in (4, 6):
            u, h = f, 1.0 / 2**level
            for _ in range(2**level):
                u = step_J(sampled, h, u)
            gaps.append(lp_norm(nisio_dyadic(ends, 1.0, f, 1e-300, level, norm2).final - u, norm2))
        assert 0.0 < 8.0 * gaps[1] <= gaps[0], gaps


def _certificate_margin(fam, t, f, n_max, norm):
    """The worst nodewise excess of the final dyadic iterate over C(t)f, as `envelope` certifies it."""
    final = nisio_dyadic(fam, t, f, 1e-4, n_max, norm).final
    return float(np.max(final.samples - upper_bound_C(fam, t, f, norm).samples))


class TestUpperBoundCertificate:
    def test_zero_function(self, gauss_family, norm2, grid_small):
        zero = GridFunction(grid_small, np.zeros(grid_small.n_nodes))
        assert _certificate_margin(gauss_family, 0.5, zero, 3, norm2) <= 0.0

    def test_gaussian_bump_passes(self, gauss_family, norm2):
        f = bump(make_grid(-10.0, 10.0, 1001), radius=1.0)
        assert _certificate_margin(gauss_family, 0.5, f, 7, norm2) <= 1e-6 * (1.0 + f.max_abs())

    def test_compound_poisson_passes(self, cp_family, norm2):
        f = bump(make_grid(-10.0, 10.0, 2001), radius=1.0)
        assert _certificate_margin(cp_family, 1.0, f, 7, norm2) <= 1e-6 * (1.0 + f.max_abs())
