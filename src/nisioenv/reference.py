"""Independent oracles and the negative result.

* A monotone explicit upwind solver for du/dt = 1/2 u_xx + sup_lam lam u_x,
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

_CFL = 0.9  # the CFL factor of the upwind oracle: `hjb_upwind`'s default, and the one `compare-hjb` prices and runs


def _height_exponent(f0: GridFunction) -> int:
    """e, max|f0| / 2^e in [1, 2): the oracles are positively homogeneous and run on f0 / 2^e, scaled back exactly."""
    return math.frexp(f0.max_abs())[1] - 1


def _upwind_steps(t: float, dx: float, lambda_bar: float, cfl: float) -> int:
    """Steps `hjb_upwind` takes to reach t >= 0, for lam_bar the largest |lam| of the drift set: the step obeys
    dt <= cfl * min(dx^2, dx/lam_bar); it is cfl / (1/dx^2 + lam_bar/dx), which also keeps every stencil weight
    nonnegative, so the scheme is monotone for any cfl in (0, 1]. The oracle's one step rule: a UsageError for a
    cfl outside (0, 1] and for a count that is not finite (lam_bar / dx or t / dt overflows)."""
    if not 0.0 < cfl <= 1.0:
        raise UsageError(f"cfl must lie in (0, 1], got {cfl}")
    dt = cfl / (1.0 / (dx * dx) + lambda_bar / dx)
    if not (dt > 0.0 and t / dt < math.inf):
        raise UsageError(f"the upwind step count to t = {t:g} on dx = {dx:g} at lambda bound {lambda_bar:g} "
                         "is not finite")
    return max(1, math.ceil(t / dt))


def _upwind_passes(t: float, dx: float, lambda_bar: float, cfl: float) -> float:
    """Array passes of `hjb_upwind` over the grid: at most 10 per step whatever the drift set (see `_upwind_step`)."""
    return 10.0 * _upwind_steps(t, dx, lambda_bar, cfl)


def _rk4_steps(t: float, dt: float) -> int:
    """Steps `ode_reference` takes to reach t >= 0: t / dt rounded, at least one. The oracle's one step rule: a
    UsageError for a dt that is not > 0 and for a count that is not finite."""
    if not dt > 0:
        raise UsageError(f"dt must be > 0, got {dt}")
    if not t / dt < math.inf:
        raise UsageError(f"the RK4 step count t / dt = {t:g} / {dt:g} is not finite")
    return max(1, round(t / dt))


def _rk4_passes(fam: CompoundPoisson, t: float, dt: float) -> float:
    """Array passes of `ode_reference` over the grid: per step four stages of up to 5 per atom (the jump mix), 1
    for mu * s - s and 2 per candidate of the sup (an interval's two ends), 6 for three stage sums and 9 for the
    update and its check; a float, so a count near the float range prices as inf, not an int too large to format."""
    return _rk4_steps(t, dt) * (4.0 * (5 * len(fam.mu.atoms) + 2 * len(fam.lambda_set.candidates) + 1) + 15)


def _upwind_stencil(dt: float, dx: float, lo: float, hi: float) -> tuple:
    """The weights of one upwind step on the drift set [lo, hi], worked out once per run: c2 = dt / (2 dx^2) on
    a + b, and for each end c the weight |c| dt / dx on the difference it is upwind of, a = u[i+1] - u[i] (row 0)
    for c >= 0 and b = u[i-1] - u[i] (row 1) for c < 0, as (row written, weight, row read) in an order that reads
    each row before it is written; the floor of their max is 0 when 0 lies in [lo, hi], else -inf. When the two
    weights are equal, each end reads its own row and the floor is 0, the ends are left out and their one weight
    is the scale of the max, else the scale is None: c >= 0 rounds monotonically, so c max(a, b, 0) is
    max(c a, c b, 0), and the max with +0 as its second operand makes either zero +0."""
    c2, floor = 0.5 * dt / (dx * dx), 0.0 if lo <= 0.0 <= hi else -math.inf
    ends = [(0, abs(hi) * dt / dx, int(hi < 0.0)), (1, abs(lo) * dt / dx, int(lo < 0.0))]
    if ends[0][1] == ends[1][1] and lo < 0.0 <= hi:
        return c2, [], floor, ends[0][1]
    return c2, ends[::-1] if lo >= 0.0 else ends, floor, None


def _upwind_views(u: np.ndarray, out: np.ndarray) -> tuple:
    """The rows one upwind step from u into out reads and writes: u[1:-1], (u[2:], u[:-2]) as one strided view of
    u (of a contiguous copy of u when u is not contiguous), and out[1:-1]."""
    u = np.ascontiguousarray(u)
    size = u.itemsize
    return u[1:-1], np.ndarray((2, u.size - 2), u.dtype, u, 2 * size, (-2 * size, size)), out[1:-1]


def _upwind_step(views: tuple, rows: np.ndarray, c2: float, ends: list, floor: float, scale: float | None) -> None:
    """out[1:-1] = u[1:-1] + (c2 (a + b) + max(hi term, lo term, floor)) on the `_upwind_stencil`, in 9 array
    passes over the two scratch rows (a, b) and out, 8 when the stencil has a scale, given the `_upwind_views` of
    u and out, which must not share memory. out's ends are left as they are."""
    (mid, pair, s), (a, b) = views, rows
    np.subtract(pair, mid, out=rows)
    np.add(a, b, out=s)
    s *= c2
    for dst, c, src in ends:
        np.multiply(c, rows[src], out=rows[dst])
    np.maximum(a, b, out=a)
    np.maximum(a, floor, out=a)
    if scale is not None:
        a *= scale
    s += a
    np.add(mid, s, out=s)


def _check_drift_set(lo: float, hi: float) -> None:
    """The upwind oracle's drift set [lo, hi]: a UsageError unless both ends are finite and lo <= hi."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise UsageError(f"the drift set needs finite lo <= hi, got [{lo}, {hi}]")


def hjb_step(u: np.ndarray, dt: float, dx: float, lo: float, hi: float | None = None) -> np.ndarray:
    """One explicit Euler step of the upwind scheme for u_t = u_xx / 2 + sup_{lam in [lo, hi]} lam u_x (the
    single drift lo when hi is None), zero Dirichlet boundary.

    Diffusion by central differences; the Hamiltonian by the monotone
    upwind form, the max over the ends c of c D+u for c >= 0 and |c| (-D-u)
    for c < 0, and of 0 when 0 lies in [lo, hi].
    """
    hi = lo if hi is None else hi  # the single-drift form, which perfbench/micro.py calls
    _check_drift_set(lo, hi)
    out = np.empty_like(u)
    out[0] = out[-1] = 0.0
    _upwind_step(_upwind_views(u, out), np.empty((2, u.size - 2)), *_upwind_stencil(dt, dx, lo, hi))
    return out


def hjb_upwind(f0: GridFunction, t: float, lo: float, hi: float, cfl: float = _CFL) -> GridFunction:
    """Upwind finite-difference solution at time t of the envelope PDE of the drift set [lo, hi] (a list has the
    supremum generator of its hull [min, max]), in `_upwind_steps` steps of `hjb_step`. Its stencil, two scratch
    rows, two zeroed buffers and their row views are made once per run: the first step reads f0 / 2^e of
    `_height_exponent`, the others alternate between the buffers, whose ends stay 0."""
    if not t >= 0:
        raise UsageError(f"time must be >= 0, got {t}")
    _check_drift_set(lo, hi)
    steps = _upwind_steps(t, f0.grid.dx, max(abs(lo), abs(hi)), cfl)
    if t == 0.0:
        return GridFunction(f0.grid, f0.samples.copy())
    dt = t / steps
    stencil = _upwind_stencil(dt, f0.grid.dx, lo, hi)
    rows, u, nxt = np.empty((2, f0.grid.n_nodes - 2)), np.zeros(f0.grid.n_nodes), np.zeros(f0.grid.n_nodes)
    e = _height_exponent(f0)
    _upwind_step(_upwind_views(np.ldexp(f0.samples, -e), nxt), rows, *stencil)
    forth, back = _upwind_views(nxt, u), _upwind_views(u, nxt)
    for k in range(1, steps):
        _upwind_step(forth if k & 1 else back, rows, *stencil)
    return GridFunction._wrap(f0.grid, np.ldexp(nxt if steps & 1 else u, e))


def ode_reference(fam: KernelFamily, f0: GridFunction, t: float, dt: float) -> GridFunction:
    """Classical RK4 for u' = Bu with the compound Poisson supremum generator.

    B is bounded and globally Lipschitz, so the trajectory is the unique
    solution of the Cauchy problem and must match the envelope. The jump
    stencil, two zero paddings (u's own, which the first stage mixes, and
    the stage buffer of the other three), the four stage rows and two
    scratch rows of the sup are made once per run; each stage has the
    operations, in the order, of `sup_generator` and the textbook RK4
    update, so the bits are theirs (on f0 scaled by `_height_exponent`).
    Finiteness is checked once per step, on u: a non-finite stage reaches u
    through a positive coefficient, and a non-finite u stays so.
    """
    if not isinstance(fam, CompoundPoisson):
        raise UsageError("ode_reference is defined for compound Poisson families only")
    if not t >= 0:
        raise UsageError(f"time must be >= 0, got {t}")
    steps = _rk4_steps(t, dt)
    if t == 0.0:
        return GridFunction(f0.grid, f0.samples.copy())
    dt = t / steps
    n = f0.grid.n_nodes
    stencil = _jump_stencil(fam.mu, f0.grid.dx, n)
    (held, mix_u), (padded, mix_stage) = _jump_mixer(stencil, n), _jump_mixer(stencil, n)
    u, stage, lset = held.samples, padded.samples, fam.lambda_set
    k1, k2, k3, k4 = np.empty((4, n))
    rows, finite = np.empty((2, n)), np.empty(n, dtype=bool)

    def rhs(k: np.ndarray, mix, s: np.ndarray) -> None:
        """k = sup_lam lam * (mu * s - s) for the samples s that `mix` reads."""
        np.subtract(mix(k), s, out=k)
        lset.sup_scaled(k, out=k, rows=rows)

    e = _height_exponent(f0)
    np.ldexp(f0.samples, -e, out=u)
    with np.errstate(over="ignore", invalid="ignore"):  # a stage past the float range is reported from u
        for _ in range(steps):
            rhs(k1, mix_u, u)
            np.add(u, np.multiply(0.5 * dt, k1, out=stage), out=stage)
            rhs(k2, mix_stage, stage)
            np.add(u, np.multiply(0.5 * dt, k2, out=stage), out=stage)
            rhs(k3, mix_stage, stage)
            np.add(u, np.multiply(dt, k3, out=stage), out=stage)
            rhs(k4, mix_stage, stage)
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
    return GridFunction._wrap(f0.grid, np.ldexp(u, e))


# ---------------------------------------------------------------------------
# Blow-up scan for the uncertain shift family


def pole_initial_condition(grid: Grid, p: float, eps: float) -> GridFunction:
    """|x|^(-1/(2p)) capped at eps^(-1/(2p)), supported on [-1, 1].

    The cap keeps the function in L^p while the uncapped profile spreads to
    an unbounded supremum under the uncertain shift step.
    """
    if not (1.0 <= p < math.inf and 0.0 < eps < math.inf):
        raise UsageError(f"the pole needs a finite p >= 1 and a finite eps > 0, got p = {p}, eps = {eps}")
    a = 1.0 / (2.0 * p)
    # only nodes in [-1, 1] are nonzero: look at those, and at all nodes
    # when the ends of the range do not show that none beyond it is inside
    start, stop = _node_span(grid, -1.0, 1.0)
    x = grid.nodes(start, stop)
    if (start > 0 and not x[0] < -1.0) or (stop < grid.n_nodes and not x[-1] > 1.0):
        start, stop = 0, grid.n_nodes
        x = grid.nodes()
    # x never decreases and abs is exact: |x| <= 1 is the index range [lo, hi)
    # and |x| < eps the range [c0, c1) inside it; each node raised has |x| >= eps
    lo, c1 = np.searchsorted(x, (-1.0, eps))
    c0, hi = np.searchsorted(x, (-eps, 1.0), side="right")
    c0, c1 = max(c0, lo), min(c1, hi)
    vals = np.zeros(grid.n_nodes)
    seg = vals[start:stop]
    seg[c0:c1] = eps ** (-a)
    for i, j in ((lo, c0), (c1, hi)):
        np.power(np.abs(x[i:j], out=x[i:j]), -a, out=seg[i:j])
    return GridFunction._wrap(grid, vals)


def scan_epsilons(grid: Grid, t: float, epsilons: list[float] | None = None) -> list[float]:
    """The blow-up scan's rules: t in (0, 1) and at least two strictly
    decreasing epsilons, a ratio to check (UsageError), each resolved,
    eps >= 4 dx (ConfigurationError naming the nodes needed). Without
    epsilons, the default ladder: the decades 0.1, 0.01, ... down to the
    finest resolved one, at least two and at most six."""
    if not (0.0 < t < 1.0):
        raise UsageError(f"scan time t must lie in (0, 1), got {t}")
    floor = 4.0 * grid.dx
    if epsilons is None:
        epsilons = [0.1, 0.1 / 10.0]
        while len(epsilons) < 6 and epsilons[-1] / 10.0 >= floor:
            epsilons.append(epsilons[-1] / 10.0)
    if len(epsilons) < 2:
        raise UsageError(f"the scan needs at least two epsilons (a ratio to check), got {epsilons}")
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


# The blow-up scan's uncertain shift, and its array passes per epsilon besides the step: the pole (6: the zeroed
# grid, three to build the nodes, then the cap's fill with the pole pieces' abs, and their power) and the norm (7)
_SCAN_FAMILY = PureShift(LambdaInterval(-1.0, 1.0))
_SCAN_PASSES = 13


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

# The fraction of the nodes `compare` leaves out at each end of the grid
_WINDOW_MARGIN = 0.05


@dataclass(frozen=True)
class ComparisonResult:
    abs_err: float
    rel_err: float
    max_err: float
    margin: float  # the boundary margin of the window, _WINDOW_MARGIN

    def to_json_dict(self) -> dict:  # JSON has no inf or NaN: null
        return {k: v if math.isfinite(v) else None for k, v in asdict(self).items()}


def _in_window(a: GridFunction, b: GridFunction | None = None) -> GridFunction:
    """a, or a - b on a's grid, over the window of `compare`, and 0 on the margins it leaves out."""
    sl, window = a.grid.interior_slice(_WINDOW_MARGIN), np.zeros(a.grid.n_nodes)
    window[sl] = a.samples[sl] - (0.0 if b is None else b.samples[sl])
    return GridFunction._wrap(a.grid, window)


def _relative(err: float, size: float) -> float:
    """err / size, and where size is 0: 0 when err is 0 too, else inf."""
    return err / size if size else (math.inf if err else 0.0)


def compare(a: GridFunction, b: GridFunction, norm: PNorm) -> ComparisonResult:
    """L^p and sup distances over the interior window, which drops _WINDOW_MARGIN of the nodes on each side and
    so holds at least 90% of them.

    abs_err is the rectangle-rule L^p norm of a - b over the window, max_err the sup there, and rel_err the ratio
    of the norms of a - b and a there (0 when both vanish, inf when only a does), formed on a and b over 2^e of
    `_height_exponent`: exact in normal floats, and the norm of a stays finite at any height.
    """
    a._check_same_grid(b)
    diff, ref = _in_window(a, b), _in_window(a)
    e = _height_exponent(ref)
    unit = [lp_norm(GridFunction._wrap(a.grid, np.ldexp(g.samples, -e)), norm) for g in (diff, ref)]
    return ComparisonResult(lp_norm(diff, norm), _relative(*unit), diff.max_abs(), _WINDOW_MARGIN)
