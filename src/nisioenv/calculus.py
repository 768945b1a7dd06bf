"""Differential structure of the envelope, evaluated numerically.

Generator difference quotients against the closed-form supremum generator,
one-sided directional derivatives of the convex envelope operator, the
derivative identity (time derivative equals the directional derivative in
the generator direction, from either side), the integral identity recovering
S(t)f - f, and sampled Lipschitz/growth probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import _chain, _level, nisio_dyadic
from .errors import UsageError
from .funcspace import GridFunction, PNorm, lp_norm
from .kernels import KernelFamily, _heat_plan, sup_generator
from .reference import compare

__all__ = [
    "GeneratorEstimate",
    "DerivativeProbe",
    "LipschitzProbe",
    "geometric_schedule",
    "generator_fd",
    "directional_derivative",
    "derivative_identity_check",
    "integral_identity_check",
    "lipschitz_probe",
    "growth_bound_estimate",
    "ball_samples",
]

# Nodewise slack for the convexity-driven orderings of difference quotients;
# the underlying maps are convex exactly, so only roundoff accumulates.
QUOTIENT_TOL = 1e-9

# The step of every quotient of the derivative and integral identities, the
# last step of `geometric_schedule()`.
QUOTIENT_STEP = 0.1 * 0.5**6


def geometric_schedule(h0: float = 0.1, halvings: int = 6) -> list[float]:
    """Decreasing step schedule h0, h0/2, ..., h0/2^halvings; its last step must be > 0 in floats."""
    if not h0 > 0 or halvings < 0 or not h0 * 0.5**halvings > 0:
        raise UsageError(f"schedule needs h0 > 0, halvings >= 0 and h0 / 2^halvings > 0, got {h0:g} and {halvings}")
    return [h0 * 0.5**k for k in range(halvings + 1)]


def _S(fam: KernelFamily, t: float, f: GridFunction, level: int) -> GridFunction:
    """The envelope at the fixed dyadic level `level`, so that comparisons match; the identity at t = 0."""
    if t == 0.0:
        return GridFunction(f.grid, f.samples.copy())
    return _chain(fam, *_level(t, level), f)


# ---------------------------------------------------------------------------
# Generator difference quotients


@dataclass
class GeneratorEstimate:
    """The quotients (S(h)f - f)/h along a halving h-schedule, by their
    interior L^p distance to the closed-form supremum generator, errors_vs_B.
    """

    h_schedule: list[float]
    errors_vs_B: list[float]


def generator_fd(
    fam: KernelFamily,
    f: GridFunction,
    h0: float,
    k_steps: int,
    tol_rel: float,
    n_max: int,
    norm: PNorm,
) -> GeneratorEstimate:
    """Difference quotients of the envelope at f against the supremum generator.

    Each S(h)f is a dyadic envelope run whose time step is at most h/4. The
    runs go smallest h first on one trajectory (see `nisio_dyadic`'s
    `chains`): level L at h starts from level L - 1 at h/2. A
    non-decreasing tail in the error table is reported, never raised.
    """
    schedule = geometric_schedule(h0, k_steps)
    target = sup_generator(fam, f)
    errors: list[float] = []
    chains: dict = {}
    for h in reversed(schedule):
        res = nisio_dyadic(fam, h, f, tol_rel, max(n_max, 2), norm, n_min=2, chains=chains)
        errors.append(compare((res.final - f) / h, target, norm).abs_err)
    return GeneratorEstimate(schedule, errors[::-1])


# ---------------------------------------------------------------------------
# Directional derivatives


@dataclass
class DerivativeProbe:
    """One-sided directional derivative estimates of the envelope at x.

    base is S(t)x at the fixed level of the quotients; plus/minus are the
    smallest-h difference quotients from above/below; the convexity of the
    computed operator forces the plus quotients to be nodewise non-increasing
    as h decreases (and minus non-decreasing): monotonicity_violation is the
    worst breach of either ordering.
    """

    base: GridFunction
    plus: GridFunction
    minus: GridFunction
    gap: float
    monotonicity_violation: float


def _check_schedule(h_schedule: list[float]) -> None:
    if any(b >= a for a, b in zip(h_schedule, h_schedule[1:])) or not h_schedule:
        raise UsageError("h_schedule must be nonempty and strictly decreasing")


def _side_quotients(
    fam: KernelFamily,
    t: float,
    x: GridFunction,
    y: GridFunction,
    base: GridFunction,
    h_schedule: list[float],
    level: int,
    sign: float,
) -> tuple[GridFunction, float]:
    """The smallest-h quotient (S(t)(x + sign*h*y) - base)/(sign*h), base =
    S(t)x, and the worst ordering slack of the quotients along h_schedule."""
    quotients = [(_S(fam, t, x + sign * h * y, level) - base) / (sign * h) for h in h_schedule]
    worst = 0.0
    for prev, nxt in zip(quotients, quotients[1:]):
        # plus side decreases toward the inf, minus side increases toward the sup
        drop = np.max(sign * (nxt.samples - prev.samples))
        worst = max(worst, float(drop))
    return quotients[-1], worst


def directional_derivative(
    fam: KernelFamily,
    t: float,
    x: GridFunction,
    y: GridFunction,
    h_schedule: list[float],
    norm: PNorm,
    level: int,
) -> DerivativeProbe:
    """Gateaux derivative probe of the envelope at x in direction y, from both
    sides, at a fixed dyadic level. At t = 0 the envelope is the identity and
    both derivatives are y exactly.
    """
    _check_schedule(h_schedule)
    base = _S(fam, t, x, level)  # shared by both sides
    if t == 0.0:
        ycopy = GridFunction(y.grid, y.samples.copy())
        return DerivativeProbe(base=base, plus=ycopy, minus=ycopy, gap=0.0, monotonicity_violation=0.0)
    plus, v_plus = _side_quotients(fam, t, x, y, base, h_schedule, level, +1.0)
    minus, v_minus = _side_quotients(fam, t, x, y, base, h_schedule, level, -1.0)
    return DerivativeProbe(base=base, plus=plus, minus=minus, gap=lp_norm(plus - minus, norm),
                           monotonicity_violation=max(v_plus, v_minus))


# ---------------------------------------------------------------------------
# Derivative and integral identities


def derivative_identity_check(
    fam: KernelFamily,
    t: float,
    f: GridFunction,
    norm: PNorm,
    level: int,
) -> dict[str, float]:
    """Compare the forward time quotient of the envelope with both one-sided
    directional derivatives in the supremum-generator direction.

    All three limits coincide for f in the generator's domain, so the
    pairwise interior L^p distances, relative to the largest of the three
    norms, are small there. Every quotient has the step QUOTIENT_STEP, every
    S at the fixed dyadic level `level`, and S(t)f is the base of all three.
    Returns the gaps forward_vs_plus, forward_vs_minus and plus_vs_minus.
    """
    h = QUOTIENT_STEP
    probe = directional_derivative(fam, t, f, sup_generator(fam, f), [h], norm, level)
    plus, minus = probe.plus, probe.minus
    forward = (_S(fam, t + h, f, level) - probe.base) / h
    scale = max(lp_norm(forward, norm), lp_norm(plus, norm), lp_norm(minus, norm), 1e-14)
    pairs = {"forward_vs_plus": (forward, plus), "forward_vs_minus": (forward, minus), "plus_vs_minus": (plus, minus)}
    return {name: compare(a, b, norm).abs_err / scale for name, (a, b) in pairs.items()}


def _integral_path(quad_nodes: int, level: int) -> tuple[int, int]:
    """(m, M) of the integral identity's path: M = m*(quad_nodes - 1) uniform
    steps, m = ceil(2^(level+1)/(quad_nodes - 1)) of them between two nodes."""
    if quad_nodes < 3 or quad_nodes % 2 == 0:
        raise UsageError(f"quad_nodes must be odd and >= 3 (composite Simpson), got {quad_nodes}")
    m = -(-(2 << level) // (quad_nodes - 1))
    return m, m * (quad_nodes - 1)


def integral_identity_check(
    fam: KernelFamily,
    t: float,
    f: GridFunction,
    quad_nodes: int,
    norm: PNorm,
    level: int,
) -> float:
    """Relative deviation of S(t)f - f from the time integral of the
    directional derivative S'_+(s, f) applied to the supremum generator.

    The integral runs over composite Simpson nodes in [0, t]; each integrand
    is the plus quotient with h_dir = QUOTIENT_STEP. Each path, from f and
    from f + h_dir*direction, walks the Simpson intervals as chains of m
    steps of exactly t/M (see `_integral_path` for m and M), so node j is
    the prefix of j*m steps and the path from f ends at S(t)f. The step t/M
    is at most t/2^(level+1), half the fixed-level step. Returns 0 when ||S(t)f - f||_p is below 1e-12.
    """
    h_dir = QUOTIENT_STEP
    m, steps = _integral_path(quad_nodes, level)
    weights = np.ones(quad_nodes)  # composite Simpson
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    weights = weights * (t / (quad_nodes - 1)) / 3.0
    direction = sup_generator(fam, f)
    if t == 0.0:  # S(0)f - f vanishes
        return 0.0
    h = t / steps

    acc = weights[0] * direction.samples
    base, moved = f, f + h_dir * direction
    for weight in weights[1:]:
        base, moved = _chain(fam, h, m, base), _chain(fam, h, m, moved)
        acc = acc + weight * ((moved - base) / h_dir).samples

    lhs = base - f
    denom = lp_norm(lhs, norm)
    if denom < 1e-12:
        return 0.0
    residual = lhs - GridFunction(f.grid, acc)
    return lp_norm(residual, norm) / denom


# ---------------------------------------------------------------------------
# Sampled probes


def _random_smooth(grid, rng) -> GridFunction:
    """Grid-resolved random function: white noise mollified by one dx^2 heat step."""
    return GridFunction(grid, _heat_plan(grid.dx**2, grid.dx, grid.n_nodes).run(rng.standard_normal(grid.n_nodes)))


def ball_samples(
    center: GridFunction,
    radius: float,
    count: int,
    norm,
    seed: int = 0,
) -> list[GridFunction]:
    """Deterministic smooth samples in the L^p ball around center.

    White noise is mollified by one heat step of size dx^2 (keeping samples
    grid-resolved), scaled to a uniformly drawn norm in (0, radius].
    """
    if not radius > 0 or count < 1:
        raise UsageError("ball sampling needs radius > 0 and count >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        smooth = _random_smooth(center.grid, rng)
        size = lp_norm(smooth, norm)
        rho = radius * rng.uniform(0.05, 1.0)
        out.append(center + (rho / max(size, 1e-300)) * smooth)
    return out


@dataclass
class LipschitzProbe:
    """Sampled local Lipschitz constant and the recentered-operator bound.

    lemma_ok reports whether every sampled w in B(0, r) satisfied
    ||T w|| <= (2 b / r) ||w|| for T = S(t)(.) - S(t)0, with b the largest
    sampled norm of T on the radius-r sphere through the samples.
    """

    L: float
    lemma_ok: bool


def lipschitz_probe(
    fam: KernelFamily,
    t: float,
    x0: GridFunction,
    r: float,
    samples: int,
    tol_rel: float,
    n_max: int,
    norm: PNorm,
    seed: int = 0,
) -> LipschitzProbe:
    """Empirical Lipschitz constant of the envelope on the ball B(x0, r)."""
    if samples < 2:
        raise UsageError("lipschitz probe needs at least 2 samples")

    def S(y: GridFunction) -> GridFunction:  # a converging dyadic run, the identity at t = 0
        return y if t == 0.0 else nisio_dyadic(fam, t, y, tol_rel, n_max, norm).final

    pts = ball_samples(x0, r, samples, norm, seed=seed)
    images = [S(y) for y in pts]
    L = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = lp_norm(pts[i] - pts[j], norm)
            if dist < 1e-12:
                continue
            L = max(L, lp_norm(images[i] - images[j], norm) / dist)

    zero = GridFunction(x0.grid, np.zeros(x0.grid.n_nodes))
    s_zero = S(zero)

    def T(y: GridFunction) -> GridFunction:
        return S(y) - s_zero

    offsets = [(w, lp_norm(w, norm)) for w in (y - x0 for y in pts)]
    offsets = [(w, size) for w, size in offsets if size >= 1e-12]
    b = 0.0
    for w, size in offsets:
        sphere = (r / size) * w
        b = max(b, lp_norm(T(sphere), norm), lp_norm(T(-1.0 * sphere), norm))
    slack = max((lp_norm(T(w), norm) - (2.0 * b / r) * size for w, size in offsets), default=-math.inf)
    return LipschitzProbe(L=L, lemma_ok=slack <= QUOTIENT_TOL)


def growth_bound_estimate(
    fam: KernelFamily,
    t_grid: list[float],
    f_samples: list[GridFunction],
    tol_rel: float,
    n_max: int,
    norm: PNorm,
) -> tuple[float, float]:
    """Least-squares fit of log sup_f ||S(t)f||/||f|| against t; returns (M, omega).

    The horizons of one f run in the order given on one trajectory (see
    `nisio_dyadic`'s `chains`), so a horizon that doubles the one before
    starts each level from it."""
    if len(t_grid) < 2:
        raise UsageError("growth fit needs at least two horizons")
    ratios = [0.0] * len(t_grid)
    for f in f_samples:
        base = lp_norm(f, norm)
        if base < 1e-12:
            continue
        chains: dict = {}
        for i, t in enumerate(t_grid):
            image = f if t == 0.0 else nisio_dyadic(fam, t, f, tol_rel, n_max, norm, chains=chains).final
            ratios[i] = max(ratios[i], lp_norm(image, norm) / base)
    log_ratios = [math.log(max(ratio, 1e-300)) for ratio in ratios]
    omega, log_m = np.polyfit(np.asarray(t_grid, dtype=float), np.asarray(log_ratios), 1)
    return float(math.exp(log_m)), float(omega)
