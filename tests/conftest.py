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
