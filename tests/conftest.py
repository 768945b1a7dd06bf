import dataclasses
import math

import numpy as np
import pytest

from nisioenv import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PNorm,
    bump,
    envelope,
    kernels,
    make_grid,
)
from nisioenv.calculus import _random_smooth
from nisioenv.funcspace import _SNAP_TOL
from nisioenv.kernels import sup_generator


@pytest.fixture
def norm2():
    return PNorm(2.0)


@pytest.fixture
def grid_small():
    return make_grid(-8.0, 8.0, 401)


@pytest.fixture
def grid_fine():
    return make_grid(-10.0, 10.0, 2001)


@pytest.fixture
def gauss_family():
    return GaussianDrift(LambdaInterval(-1.0, 1.0))


@pytest.fixture
def cp_family():
    return CompoundPoisson(LambdaValues((0.0, 1.0)), JumpDistribution(((1.0, 1.0),)))


@pytest.fixture
def bump_small(grid_small):
    return bump(grid_small, radius=1.0)


@pytest.fixture
def make_smooth():
    return _random_smooth


@pytest.fixture
def member_generator():
    """Generator of the one member lam: the supremum generator of that singleton family."""
    return lambda fam, lam, f: sup_generator(dataclasses.replace(fam, lambda_set=LambdaValues((lam,))), f)


@pytest.fixture
def step_J_calls(monkeypatch):
    """List that gains the step size of each one-step supremum: every run of a plan that `envelope._step_plan`
    returns, whether `step_J` runs it (the blow-up scan, `apply_partition`) or a chain, which looks its plan up
    once and runs it every step. Plans that the pre-flight only prices are never run, so never counted."""
    calls = []
    real = envelope._step_plan

    def counted(fam, h, dx, n):
        plan = real(fam, h, dx, n)

        def run(arr):
            calls.append(h)
            return plan.run(arr)

        return plan._replace(run=run)

    monkeypatch.setattr(envelope, "_step_plan", counted)
    return calls


# Zero-extended shifts written out, the references for the package's one
# shift primitive: each is a fresh array, with nothing clamped or padded.


def _shift_int(arr, k):
    """out[i] = arr[i + k], zero where i + k falls outside the array."""
    n = arr.shape[0]
    out = np.zeros(n)
    if 0 <= k < n:
        out[: n - k] = arr[k:]
    elif 0 < -k < n:
        out[-k:] = arr[: n + k]
    return out


def _interp_shift_arr(arr, delta, dx):
    """x -> f(x + delta) by linear interpolation between the two node
    shifts around delta / dx, zero outside the grid; a fraction within
    _SNAP_TOL of an integer snaps to it."""
    s = delta / dx
    k = math.floor(s)
    frac = s - k
    if frac > 1.0 - _SNAP_TOL:
        k, frac = k + 1, 0.0
    if frac < _SNAP_TOL:
        return _shift_int(arr, k)
    return (1.0 - frac) * _shift_int(arr, k) + frac * _shift_int(arr, k + 1)


# The heat step written out: the blocked product with its band matrix built
# column by column.


def _blocked_written_out(arr, w):
    """The centred samples of the full convolution of arr with w as the
    blocked product: the samples after m // 2 zeros, cut into rows of B,
    row b of the output the sum over j of rows b + j times block j of the
    band matrix, one matmul per block on up to _HEAT_BLOCK_ROWS rows at a
    time, added in order of j."""
    n, m, b, most = arr.shape[0], len(w), kernels._HEAT_BLOCK, kernels._HEAT_BLOCK_ROWS
    c, blocks = math.ceil((b + m - 1) / b), math.ceil(n / b)
    band = np.zeros((c * b, b))
    for r in range(b):
        band[r : r + m, r] = w[::-1]
    rows = np.concatenate([np.zeros(m // 2), arr, np.zeros((blocks + c - 1) * b - m // 2 - n)]).reshape(-1, b)
    pieces = []
    for lo in range(0, blocks, most):
        k = min(most, blocks - lo)
        piece = rows[lo : lo + k] @ band[:b]
        for j in range(1, c):
            piece += rows[lo + j : lo + j + k] @ band[j * b : (j + 1) * b]
        pieces.append(piece)
    return np.concatenate(pieces).reshape(-1)[:n]


def _heat_written_out(arr, t, dx):
    """The heat step: the sampled kernel as the blocked product, or
    three-point random-walk steps below 2.25 dx^2."""
    dx2 = dx * dx
    if t >= 2.25 * dx2:
        return _blocked_written_out(arr, kernels._heat_weights(t, dx))
    k = max(1, math.ceil(t / dx2))
    a = 0.5 * (t / k) / dx2
    out = arr
    for _ in range(k):
        out = (1.0 - 2.0 * a) * out + a * (_shift_int(out, 1) + _shift_int(out, -1))
    return out
