"""Independent oracles and the negative result.

* A monotone explicit upwind solver for du/dt = 1/2 u_xx + lam_bar |u_x|,
  the PDE satisfied by the drift-uncertain Gaussian envelope.
* A classical RK4 integrator for du/dt = Bu with the bounded compound
  Poisson supremum generator (the Picard-Lindeloef regime).
* The blow-up scan for the uncertain shift family, whose one-step supremum
  leaves L^p for a spreading-pole initial condition.
* Windowed comparison metrics shared by the tests and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .envelope import step_J
from .errors import ConfigurationError, UsageError
from .funcspace import Grid, GridFunction, PNorm, _node_span, lp_norm
from .kernels import CompoundPoisson, KernelFamily, LambdaInterval, PureShift, _jump_mixer, _jump_stencil

__all__ = [
    "hjb_upwind",
    "hjb_step",
    "ode_reference",
    "counterexample_scan",
    "scan_epsilons",
    "pole_initial_condition",
    "compare",
    "ComparisonResult",
]


def _upwind_steps(t: float, dx: float, lambda_bar: float, cfl: float) -> float:
    """Steps `hjb_upwind` takes to reach t > 0: the step obeys dt <= cfl * min(dx^2, dx/lam_bar); it is
    cfl / (1/dx^2 + lam_bar/dx), which also keeps every stencil coefficient nonnegative, so the scheme is
    monotone for any cfl in (0, 1]; inf when lam_bar / dx or t / dt overflows."""
    dt = cfl / (1.0 / (dx * dx) + lambda_bar / dx)
    ratio = t / dt if dt > 0.0 else math.inf
    return max(1, math.ceil(ratio)) if ratio < math.inf else ratio


def _upwind_passes(t: float, dx: float, lambda_bar: float, cfl: float) -> float:
    """Array passes of `hjb_upwind` over the grid: 14 per step (see `kernels._Plan`)."""
    return 14.0 * _upwind_steps(t, dx, lambda_bar, cfl)


def _rk4_steps(t: float, dt: float) -> float:
    """Steps `ode_reference` takes to reach t > 0: t / dt rounded, at least one; inf past the float range."""
    return max(1, round(t / dt)) if t / dt < math.inf else math.inf


def _rk4_passes(fam: CompoundPoisson, t: float, dt: float) -> float:
    """Array passes of `ode_reference` over the grid: per step four stages of 4 per atom, 2 per
    candidate of the sup (an interval's two ends) and 4 more, and 16 for the update and its check."""
    return _rk4_steps(t, dt) * (4 * (4 * len(fam.mu.atoms) + 2 * len(fam.lambda_set.candidates) + 4) + 16)


def hjb_step(u: np.ndarray, dt: float, dx: float, lambda_bar: float, out: np.ndarray | None = None) -> np.ndarray:
    """One explicit Euler step of the upwind scheme, zero Dirichlet boundary.

    Diffusion by central differences; lam_bar |u_x| by the monotone upwind
    form lam_bar * max(D+ u, -D- u, 0). Writes into `out` when given (it
    must not share memory with u) and returns it.
    """
    if out is None:
        out = np.empty_like(u)
    mid = u[1:-1]
    upw = u[2:] - mid
    diff = np.subtract(u[:-2], mid)
    np.maximum(upw, diff, out=upw)
    np.maximum(upw, 0.0, out=upw)
    upw *= lambda_bar
    upw /= dx
    np.multiply(2.0, mid, out=diff)
    np.subtract(u[2:], diff, out=diff)
    diff += u[:-2]
    diff *= 0.5
    diff /= dx * dx
    diff += upw
    diff *= dt
    np.add(mid, diff, out=out[1:-1])
    out[0] = out[-1] = 0.0
    return out


def hjb_upwind(f0: GridFunction, t: float, lambda_bar: float, cfl: float = 0.9) -> GridFunction:
    """Upwind finite-difference solution of the envelope PDE at time t, in
    `_upwind_steps` steps of `hjb_step`."""
    if not t >= 0:
        raise UsageError(f"time must be >= 0, got {t}")
    if not lambda_bar >= 0:
        raise UsageError(f"lambda_bar must be >= 0, got {lambda_bar}")
    if not (0.0 < cfl <= 1.0):
        raise UsageError(f"cfl must lie in (0, 1], got {cfl}")
    if t == 0.0:
        return GridFunction(f0.grid, f0.samples.copy())
    dx = f0.grid.dx
    if (steps := _upwind_steps(t, dx, lambda_bar, cfl)) == math.inf:
        raise UsageError(f"the upwind step count to t = {t:g} on dx = {dx:g} at lambda bound {lambda_bar:g} is inf")
    dt = t / steps
    u, nxt = f0.samples.copy(), np.empty(f0.grid.n_nodes)
    for _ in range(steps):
        u, nxt = hjb_step(u, dt, dx, lambda_bar, out=nxt), u
    return GridFunction._wrap(f0.grid, u)


def ode_reference(fam: KernelFamily, f0: GridFunction, t: float, dt: float) -> GridFunction:
    """Classical RK4 for u' = Bu with the compound Poisson supremum generator.

    B is bounded and globally Lipschitz, so the trajectory is the unique
    solution of the Cauchy problem and must match the envelope. The jump
    stencil, one zero-padded stage buffer, the four stage rows and two
    scratch rows of the sup are made once per run; each stage has the
    operations, in the order, of `sup_generator` and the textbook RK4
    update, so the bits are theirs. Finiteness is checked once per step, on
    u: a non-finite stage reaches u through a positive coefficient, and a
    non-finite u stays so.
    """
    if not isinstance(fam, CompoundPoisson):
        raise UsageError("ode_reference is defined for compound Poisson families only")
    if not dt > 0:
        raise UsageError(f"dt must be > 0, got {dt}")
    if not t >= 0:
        raise UsageError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return GridFunction(f0.grid, f0.samples.copy())
    if (steps := _rk4_steps(t, dt)) == math.inf:
        raise UsageError(f"the RK4 step count t / dt = {t:g} / {dt:g} is inf")
    dt = t / steps
    n = f0.grid.n_nodes
    src, mix = _jump_mixer(_jump_stencil(fam.mu, f0.grid.dx, n), n)
    stage, lset = src.samples, fam.lambda_set
    k1, k2, k3, k4 = np.empty((4, n))
    rows, finite = np.empty((2, n)), np.empty(n, dtype=bool)

    def rhs(k: np.ndarray) -> None:
        """k = sup_lam lam * (mu * s - s) for the samples s in `stage`."""
        np.subtract(mix(k), stage, out=k)
        lset.sup_scaled(k, out=k, rows=rows)

    u = f0.samples.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # a stage past the float range is reported from u
        for _ in range(steps):
            stage[:] = u
            rhs(k1)
            np.add(u, np.multiply(0.5 * dt, k1, out=stage), out=stage)
            rhs(k2)
            np.add(u, np.multiply(0.5 * dt, k2, out=stage), out=stage)
            rhs(k3)
            np.add(u, np.multiply(dt, k3, out=stage), out=stage)
            rhs(k4)
            # u + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= dt / 6.0
            u += k1
            if not np.isfinite(u, out=finite).all():
                raise UsageError("an RK4 stage of ode_reference is not finite")
    return GridFunction._wrap(f0.grid, u)


# ---------------------------------------------------------------------------
# Blow-up scan for the uncertain shift family


def pole_initial_condition(grid: Grid, p: float, eps: float) -> GridFunction:
    """|x|^(-1/(2p)) capped at eps^(-1/(2p)), supported on [-1, 1].

    The cap keeps the function in L^p while the uncapped profile spreads to
    an unbounded supremum under the uncertain shift step.
    """
    a = 1.0 / (2.0 * p)
    # only nodes in [-1, 1] are nonzero: look at those, and at all nodes
    # when the ends of the range do not show that none beyond it is inside
    start, stop = _node_span(grid, -1.0, 1.0)
    x = grid.nodes(start, stop)
    if (start > 0 and not x[0] < -1.0) or (stop < grid.n_nodes and not x[-1] > 1.0):
        start, stop = 0, grid.n_nodes
        x = grid.nodes()
    absx = np.abs(x)
    vals = np.zeros(grid.n_nodes)
    seg = vals[start:stop]
    inside = absx <= 1.0
    seg[inside] = eps ** (-a)
    pole = inside & (absx >= eps)  # the only nodes off the cap
    seg[pole] = absx[pole] ** (-a)
    return GridFunction._wrap(grid, vals)


def scan_epsilons(grid: Grid, t: float, epsilons: list[float] | None = None) -> list[float]:
    """The blow-up scan's rules: t in (0, 1) and strictly decreasing epsilons
    (UsageError), each resolved, eps >= 4 dx (ConfigurationError naming the
    nodes needed). Without epsilons, the default ladder: the decades 0.1,
    0.01, ... down to the finest resolved one, at least two (a ratio to
    check) and at most six."""
    if not (0.0 < t < 1.0):
        raise UsageError(f"scan time t must lie in (0, 1), got {t}")
    floor = 4.0 * grid.dx
    if epsilons is None:
        epsilons = [0.1, 0.1 / 10.0]
        while len(epsilons) < 6 and epsilons[-1] / 10.0 >= floor:
            epsilons.append(epsilons[-1] / 10.0)
    if not epsilons:
        raise UsageError("scan needs at least one epsilon")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise UsageError(f"epsilons must be strictly decreasing, got {epsilons}")
    if epsilons[-1] < floor:
        eps = epsilons[-1]
        needed = math.ceil((grid.upper - grid.lower) / (eps / 4.0)) + 1
        raise ConfigurationError(
            f"epsilon = {eps} is under-resolved: need dx <= eps/4 = {eps / 4.0:g} "
            f"(grid dx = {grid.dx:g}); use at least {needed} nodes on "
            f"[{grid.lower}, {grid.upper}]"
        )
    return list(epsilons)


# The blow-up scan's uncertain shift, and its array passes per epsilon besides the step: the pole (8) and the norm (4)
_SCAN_FAMILY = PureShift(LambdaInterval(-1.0, 1.0))
_SCAN_PASSES = 12


def counterexample_scan(
    grid: Grid,
    p: float,
    t: float,
    epsilons: list[float],
) -> list[tuple[float, float]]:
    """Norm table of the one-step shift supremum on the regularized pole.

    Applies the uncertain shift step J_t with drift set [-1, 1] and window
    h = t to each capped pole f_eps and returns (eps, ||J_t f_eps||_p). The
    norms must grow without bound as eps decreases; t and the epsilons obey
    `scan_epsilons`.
    """
    epsilons = scan_epsilons(grid, t, epsilons)
    norm = PNorm(p)
    table = []
    for eps in epsilons:  # each pole is freed once its step has read it, each step once normed
        table.append((float(eps), lp_norm(step_J(_SCAN_FAMILY, t, pole_initial_condition(grid, p, eps)), norm)))
    return table


# ---------------------------------------------------------------------------
# Comparison metrics


@dataclass(frozen=True)
class ComparisonResult:
    abs_err: float
    rel_err: float
    max_err: float

    def to_json_dict(self, margin: float) -> dict:
        d = asdict(self)
        d["margin"] = margin
        return d


def compare(
    a: GridFunction,
    b: GridFunction,
    norm: PNorm,
    boundary_margin: float = 0.05,
) -> ComparisonResult:
    """L^p and sup distances over the interior window.

    abs_err is the rectangle-rule L^p norm of a - b over the window, rel_err
    divides by max(||a||_p over the window, 1e-14), max_err is the sup there.
    """
    a._check_same_grid(b)
    sl = a.grid.interior_slice(boundary_margin)
    window = np.zeros(a.grid.n_nodes)

    window[sl] = a.samples[sl] - b.samples[sl]
    abs_err = lp_norm(GridFunction(a.grid, window), norm)
    max_err = float(np.max(np.abs(window[sl]))) if sl.stop > sl.start else 0.0

    window[:] = 0.0
    window[sl] = a.samples[sl]
    denom = max(lp_norm(GridFunction(a.grid, window), norm), 1e-14)
    return ComparisonResult(abs_err, abs_err / denom, max_err)
