import dataclasses

import pytest

from nisioenv import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PNorm,
    bump,
    calculus,
    envelope,
    make_grid,
)
from nisioenv.calculus import _random_smooth
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
    """List that gains one entry per one-step supremum, at every name binding step_J."""
    calls = []
    real = envelope.step_J

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(envelope, "step_J", counted)
    monkeypatch.setattr(calculus, "step_J", counted)
    return calls
