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
from nisioenv.funcspace import GridFunction
from nisioenv.kernels import _heat_convolve_arr


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


def smooth_sample(grid, rng, scale=1.0):
    """Grid-resolved random function: white noise mollified by one dx^2 heat step."""
    arr = _heat_convolve_arr(rng.standard_normal(grid.n_nodes), grid.dx**2, grid.dx)
    return GridFunction(grid, scale * arr)


@pytest.fixture
def make_smooth():
    return smooth_sample


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
