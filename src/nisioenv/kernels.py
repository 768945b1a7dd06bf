"""Families of linear monotone convolution semigroups on the grid.

Three families, each indexed by an uncertainty set Lambda:

* ``GaussianDrift`` -- heat semigroup with uncertain drift; one member maps
  f to E[f(x + W_t + lam*t)], realized as heat-smooth-then-shift.
* ``CompoundPoisson`` -- jump semigroup with uncertain intensity lam >= 0 and
  a fixed finite-atom jump distribution.
* ``PureShift`` -- translation semigroup f(x + lam*t); it admits no upper
  bound operator, which is what the blow-up scan in `reference` exploits.

Alongside each family: its pointwise generator, the closed-form supremum of
the member generators over Lambda, and the explicit upper-bound operator C(h)
that dominates every partition composition (where one exists).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .funcspace import GridFunction, PNorm, _interp_shift_arr, _shift_int

__all__ = [
    "LevyTriplet",
    "LambdaInterval",
    "LambdaValues",
    "JumpDistribution",
    "GaussianDrift",
    "CompoundPoisson",
    "PureShift",
    "KernelFamily",
    "heat_convolve",
    "apply_member",
    "apply_members",
    "member_generator",
    "sup_generator",
    "upper_bound_C",
    "upper_bound_norm_factor",
    "has_upper_bound",
    "levy_condition_bound",
    "first_difference",
    "second_difference",
]

# Poisson series truncation: drop a tail of at most this probability mass,
# then renormalize the retained weights so constants stay fixed points.
SERIES_TOL = 1e-12

# Heat kernel support, in standard deviations; the dropped Gaussian mass is
# below 1e-15 and renormalization restores exact unit mass.
HEAT_KERNEL_WIDTH = 8.0


@dataclass(frozen=True)
class LevyTriplet:
    """Summary triplet (drift, diffusion, integrated jump mass) of one member."""

    b: float
    sigma2: float
    jump_mass: float

    def __post_init__(self):
        if self.sigma2 < 0 or self.jump_mass < 0:
            raise ConfigurationError("triplet needs sigma2 >= 0 and jump_mass >= 0")


@dataclass(frozen=True)
class LambdaInterval:
    """Closed interval [lo, hi] of drift/intensity parameters."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi) or not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigurationError(f"lambda interval needs finite lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def sup_abs(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    @property
    def inf(self) -> float:
        return self.lo

    def contains(self, lam: float) -> bool:
        tol = 1e-12 * (1.0 + abs(lam))
        return self.lo - tol <= lam <= self.hi + tol

    def samples(self, n_interior: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n_interior + 2)


@dataclass(frozen=True)
class LambdaValues:
    """Finite set of parameters, kept sorted."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ConfigurationError("lambda set must be nonempty")
        vals = tuple(sorted(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in vals):
            raise ConfigurationError("lambda values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def sup_abs(self) -> float:
        return max(abs(v) for v in self.values)

    @property
    def inf(self) -> float:
        return self.values[0]

    def contains(self, lam: float) -> bool:
        tol = 1e-12 * (1.0 + abs(lam))
        return any(abs(lam - v) <= tol for v in self.values)


LambdaSet = LambdaInterval | LambdaValues


@dataclass(frozen=True)
class JumpDistribution:
    """Finite-atom probability measure: atoms (offset, weight), weights sum to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(y), float(w)) for y, w in self.atoms)
        if not atoms:
            raise ConfigurationError("jump distribution needs at least one atom")
        if any(w <= 0 for _, w in atoms):
            raise ConfigurationError("jump weights must be positive")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"jump weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def offsets(self) -> tuple[float, ...]:
        return tuple(y for y, _ in self.atoms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)

    def unit_jump_mass(self) -> float:
        """integral of 1 ^ |y|^2 against the measure."""
        return sum(w * min(1.0, y * y) for y, w in self.atoms)


@dataclass(frozen=True)
class GaussianDrift:
    lambda_set: LambdaSet

    def triplet(self, lam: float) -> LevyTriplet:
        return LevyTriplet(b=lam, sigma2=1.0, jump_mass=0.0)


@dataclass(frozen=True)
class CompoundPoisson:
    lambda_set: LambdaSet
    mu: JumpDistribution

    def __post_init__(self):
        lo = self.lambda_set.inf if isinstance(self.lambda_set, LambdaInterval) else self.lambda_set.values[0]
        if lo < 0:
            raise ConfigurationError("compound Poisson intensities must be >= 0")

    def triplet(self, lam: float) -> LevyTriplet:
        return LevyTriplet(b=0.0, sigma2=0.0, jump_mass=lam * self.mu.unit_jump_mass())


@dataclass(frozen=True)
class PureShift:
    lambda_set: LambdaSet

    def triplet(self, lam: float) -> LevyTriplet:
        return LevyTriplet(b=lam, sigma2=0.0, jump_mass=0.0)


KernelFamily = GaussianDrift | CompoundPoisson | PureShift


def levy_condition_bound(fam: KernelFamily) -> float:
    """sup over the family of |b| + sigma2 + jump_mass; finite by construction."""
    lam_bar = fam.lambda_set.sup_abs
    if isinstance(fam, GaussianDrift):
        bound = lam_bar + 1.0
    elif isinstance(fam, CompoundPoisson):
        bound = lam_bar * fam.mu.unit_jump_mass()
    else:
        bound = lam_bar
    assert math.isfinite(bound)
    return bound


def _require_member(fam: KernelFamily, lam: float) -> None:
    if not fam.lambda_set.contains(lam):
        raise UsageError(f"lambda = {lam} is not in the family's uncertainty set {fam.lambda_set}")


# ---------------------------------------------------------------------------
# Heat convolution

# Below this variance (in units of dx^2) a point-sampled Gaussian kernel
# underdiffuses badly; the step is then split into exact-variance three-point
# random-walk steps instead. Above it the sampled kernel's mass and variance
# are exact to roughly exp(-2 pi^2 t / dx^2) by Poisson summation.
_SAMPLED_KERNEL_MIN_VAR = 2.25


def _heat_weights(t: float, dx: float) -> np.ndarray:
    """Sampled Gaussian kernel at node offsets, renormalized to unit mass.

    Truncated at HEAT_KERNEL_WIDTH standard deviations; weights are the
    probabilities attached to integer node offsets -J..J.
    """
    half = max(1, math.ceil(HEAT_KERNEL_WIDTH * math.sqrt(t) / dx))
    offsets = np.arange(-half, half + 1) * dx
    w = np.exp(-(offsets**2) / (2.0 * t))
    return w / w.sum()


def _heat_convolve_arr(arr: np.ndarray, t: float, dx: float) -> np.ndarray:
    if t == 0.0:
        return arr.copy()
    dx2 = dx * dx
    if t >= _SAMPLED_KERNEL_MIN_VAR * dx2:
        w = _heat_weights(t, dx)
        return np.convolve(arr, w, mode="same")
    # grid-unresolved variance: three-point steps with the exact variance,
    # nonnegative weights (s <= dx^2), constants preserved by construction
    k = max(1, math.ceil(t / dx2))
    a = 0.5 * (t / k) / dx2
    out = arr
    for _ in range(k):
        out = (1.0 - 2.0 * a) * out + a * (_shift_int(out, 1) + _shift_int(out, -1))
    return out


def heat_convolve(f: GridFunction, t: float) -> GridFunction:
    """Convolve with the heat kernel of variance t (zero extension outside)."""
    if t < 0:
        raise UsageError(f"heat time must be >= 0, got {t}")
    return GridFunction(f.grid, _heat_convolve_arr(f.samples, t, f.grid.dx))


# ---------------------------------------------------------------------------
# Poisson series


def _poisson_weights(rate: float, tol: float = SERIES_TOL) -> np.ndarray:
    """Truncated, renormalized Poisson(rate) weights with tail mass <= tol."""
    if rate < 0:
        raise UsageError(f"Poisson rate must be >= 0, got {rate}")
    if rate == 0.0:
        return np.array([1.0])
    cap = int(rate + 12.0 * math.sqrt(rate) + 40.0)
    w = [math.exp(-rate)]
    cum = w[0]
    n = 0
    while cum < 1.0 - tol and n < cap:
        n += 1
        w.append(w[-1] * rate / n)
        cum += w[-1]
    arr = np.array(w)
    return arr / arr.sum()


def _jump_mix_arr(arr: np.ndarray, mu: JumpDistribution, dx: float) -> np.ndarray:
    """One convolution with mu: sum_j w_j * f(x + y_j)."""
    out = np.zeros_like(arr)
    for y, w in mu.atoms:
        out += w * _interp_shift_arr(arr, y, dx)
    return out


# ---------------------------------------------------------------------------
# Member application


def apply_members(fam: KernelFamily, lams: Sequence[float], t: float, f: GridFunction) -> list[GridFunction]:
    """Apply several members of one family at time t to f, one result per lam.

    The linear part the members share is computed once: one heat convolution
    for Gaussian drift, one chain of jump powers mu^{*k} f for compound
    Poisson. Each result is bit-identical to applying its member alone.
    t = 0 returns copies of f. All weights involved are nonnegative, so every
    member is linear, monotone, and fixes constants away from the boundary.
    """
    if t < 0:
        raise UsageError(f"time must be >= 0, got {t}")
    for lam in lams:
        _require_member(fam, lam)
    if t == 0.0:
        return [GridFunction(f.grid, f.samples.copy()) for _ in lams]
    dx = f.grid.dx
    if isinstance(fam, CompoundPoisson):
        weights = [_poisson_weights(lam * t) for lam in lams]
        powers = [f.samples]
        for _ in range(max((len(w) for w in weights), default=1) - 1):
            powers.append(_jump_mix_arr(powers[-1], fam.mu, dx))
        out = []
        for w in weights:
            acc = w[0] * powers[0]
            for wk, power in zip(w[1:], powers[1:]):
                acc += wk * power
            out.append(GridFunction(f.grid, acc))
        return out
    base = _heat_convolve_arr(f.samples, t, dx) if isinstance(fam, GaussianDrift) else f.samples
    return [GridFunction(f.grid, _interp_shift_arr(base, lam * t, dx)) for lam in lams]


def apply_member(fam: KernelFamily, lam: float, t: float, f: GridFunction) -> GridFunction:
    """Apply one member semigroup at time t to f; t = 0 returns f exactly."""
    return apply_members(fam, (lam,), t, f)[0]


# ---------------------------------------------------------------------------
# Finite-difference stencils (second order; one-sided at the two boundary
# nodes; generator comparisons exclude a boundary margin anyway).


def first_difference(f: GridFunction) -> GridFunction:
    arr, dx, n = f.samples, f.grid.dx, f.grid.n_nodes
    if n < 4:
        raise UsageError("difference stencils need at least 4 nodes")
    out = np.empty(n)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dx)
    out[-1] = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dx)
    return GridFunction(f.grid, out)


def second_difference(f: GridFunction) -> GridFunction:
    arr, dx, n = f.samples, f.grid.dx, f.grid.n_nodes
    if n < 4:
        raise UsageError("difference stencils need at least 4 nodes")
    out = np.empty(n)
    dx2 = dx * dx
    out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / dx2
    out[0] = (2.0 * arr[0] - 5.0 * arr[1] + 4.0 * arr[2] - arr[3]) / dx2
    out[-1] = (2.0 * arr[-1] - 5.0 * arr[-2] + 4.0 * arr[-3] - arr[-4]) / dx2
    return GridFunction(f.grid, out)


def member_generator(fam: KernelFamily, lam: float, f: GridFunction) -> GridFunction:
    """Pointwise generator of one member applied to f (f smooth at grid scale)."""
    _require_member(fam, lam)
    if isinstance(fam, GaussianDrift):
        return 0.5 * second_difference(f) + lam * first_difference(f)
    if isinstance(fam, CompoundPoisson):
        mixed = _jump_mix_arr(f.samples, fam.mu, f.grid.dx)
        return GridFunction(f.grid, lam * (mixed - f.samples))
    return lam * first_difference(f)


def _interval_affine_sup(lo: float, hi: float, g: np.ndarray) -> np.ndarray:
    # sup over lam in [lo, hi] of lam*g, attained at an endpoint nodewise.
    return np.maximum(lo * g, hi * g)


def sup_generator(fam: KernelFamily, f: GridFunction) -> GridFunction:
    """Nodewise supremum of the member generators over the uncertainty set.

    Interval sets use the closed form of the supremum of an affine function
    (endpoints suffice); finite sets take the nodewise max over members.
    """
    lset = fam.lambda_set
    if isinstance(fam, GaussianDrift):
        if isinstance(lset, LambdaInterval):
            d1 = first_difference(f).samples
            d2 = second_difference(f).samples
            return GridFunction(f.grid, 0.5 * d2 + _interval_affine_sup(lset.lo, lset.hi, d1))
        members = [member_generator(fam, v, f) for v in lset.values]
        return GridFunction(f.grid, np.maximum.reduce([m.samples for m in members]))
    if isinstance(fam, CompoundPoisson):
        g = _jump_mix_arr(f.samples, fam.mu, f.grid.dx) - f.samples
        if isinstance(lset, LambdaInterval):
            return GridFunction(f.grid, _interval_affine_sup(lset.lo, lset.hi, g))
        return GridFunction(f.grid, np.maximum.reduce([v * g for v in lset.values]))
    d1 = first_difference(f).samples
    if isinstance(lset, LambdaInterval):
        return GridFunction(f.grid, _interval_affine_sup(lset.lo, lset.hi, d1))
    return GridFunction(f.grid, np.maximum.reduce([v * d1 for v in lset.values]))


# ---------------------------------------------------------------------------
# Upper-bound operator C(h)


def has_upper_bound(fam: KernelFamily) -> bool:
    return isinstance(fam, (GaussianDrift, CompoundPoisson))


def upper_bound_C(fam: KernelFamily, h: float, f: GridFunction, norm: PNorm) -> GridFunction:
    """The explicit operator C(h) dominating every one-step supremum chain.

    GaussianDrift: (heat(|f|^p, h))^(1/p) * exp((q-1) h lam_bar^2 / 2), from
    the Cameron-Martin factorization and Hoelder; needs p > 1 so the
    conjugate exponent is finite (unless the drift bound is zero).
    CompoundPoisson: exp((lam_bar - lam_lo) h) * (S_{lam_bar}(h)|f|^p)^(1/p),
    from Jensen's inequality.
    PureShift has no such operator; calling it is a usage error.
    """
    if h <= 0:
        raise UsageError(f"upper bound horizon must be > 0, got {h}")
    lam_bar = fam.lambda_set.sup_abs
    p = norm.p
    if isinstance(fam, GaussianDrift):
        if p == 1.0 and lam_bar > 0.0:
            raise UsageError("Gaussian drift upper bound needs p > 1 (conjugate exponent is infinite at p = 1)")
        factor = math.exp((norm.q - 1.0) * h * lam_bar**2 / 2.0) if lam_bar > 0.0 else 1.0
        powed = np.abs(f.samples) ** p
        smoothed = _heat_convolve_arr(powed, h, f.grid.dx)
        return GridFunction(f.grid, factor * np.maximum(smoothed, 0.0) ** (1.0 / p))
    if isinstance(fam, CompoundPoisson):
        lam_lo = fam.lambda_set.inf
        powed = GridFunction(f.grid, np.abs(f.samples) ** p)
        moved = apply_member(fam, lam_bar, h, powed)
        return GridFunction(f.grid, math.exp((lam_bar - lam_lo) * h) * np.maximum(moved.samples, 0.0) ** (1.0 / p))
    raise UsageError("no envelope bound available for the pure shift family")


def upper_bound_norm_factor(fam: KernelFamily, h: float, norm: PNorm) -> float:
    """Exact norm growth ||C(h)f||_p / ||f||_p of the upper-bound operator."""
    lam_bar = fam.lambda_set.sup_abs
    if isinstance(fam, GaussianDrift):
        if norm.p == 1.0 and lam_bar > 0.0:
            raise UsageError("Gaussian drift upper bound needs p > 1")
        return math.exp(norm.q * h * lam_bar**2 / (2.0 * norm.p)) if lam_bar > 0.0 else 1.0
    if isinstance(fam, CompoundPoisson):
        return math.exp((lam_bar - fam.lambda_set.inf) * h)
    raise UsageError("no envelope bound available for the pure shift family")
