"""Families of linear monotone convolution semigroups on the grid.

Three families, each indexed by an uncertainty set Lambda:

* ``GaussianDrift`` -- heat semigroup with uncertain drift; one member maps
  f to E[f(x + W_t + lam*t)], realized as heat-smooth-then-shift.
* ``CompoundPoisson`` -- jump semigroup with uncertain intensity lam >= 0 and
  a fixed finite-atom jump distribution.
* ``PureShift`` -- translation semigroup f(x + lam*t); it admits no upper
  bound operator, which is what the blow-up scan in `reference` exploits.

Each family type owns how it acts: `_profile_plan` (the function whose
translates its members are; None for compound Poisson), `_generator_terms`
(A f, B f of its member generators A + lam B), `_growth_factor` (c(h) of the
upper-bound operator C(h) dominating every partition composition; UsageError
where none exists) and `_exact_steps` (do its members compose exactly?).
"""

from __future__ import annotations

import collections
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .funcspace import GridFunction, PNorm, _clamped_split, _lerp, _ZeroPadded, interp_shift

__all__ = [
    "LambdaInterval",
    "LambdaValues",
    "JumpDistribution",
    "GaussianDrift",
    "CompoundPoisson",
    "PureShift",
    "KernelFamily",
    "heat_convolve",
    "apply_member",
    "sup_generator",
    "upper_bound_C",
    "upper_bound_norm_factor",
]

# Poisson series truncation: keep terms until their running sum reaches
# 1 - SERIES_TOL, then renormalize them so constants stay fixed points. The
# sum carries the rounding of its K terms and additions, so the dropped mass
# is at most SERIES_TOL + 3K * 2^-53 (1.3e-12 at rate 708, K = 904).
SERIES_TOL = 1e-12

# Heat kernel support, in standard deviations; the dropped Gaussian mass is
# below 1e-15 and renormalization restores exact unit mass.
HEAT_KERNEL_WIDTH = 8.0

# Cap on one compound Poisson plan's rows, intensities * nodes: 11 on 2 400 001 nodes (211 MB), 3 300 times the widest
# of any test (8 004, four on 2 001 nodes), 6 600 times that of any benchmark job (4 002, two); 200 intensities there
# would need 3.6 GiB.
_MAX_MEMBER_SAMPLES = 11 * 2_400_001

# Cap on the weights of one sampled heat kernel, 2^16 + 1 (512 KiB): 28 times
# the widest any test builds, 2 319 (t = 0.5 on dx = 10/2048); the widest of
# any benchmark job has 1 161 (t = 0.5 on dx = 20/2048). A variance of 1e12 on
# the shipped Gaussian grid would ask for 1.6e9 weights (12 GiB).
_MAX_HEAT_WEIGHTS = 65_537

# A plan: `run` maps arr -> fresh samples; `work` is the node operations of one call: n +
# `_CALL_WORK` (an array call's overhead, about 2 us at 1 ns each) per array pass over n nodes.
_Plan = collections.namedtuple("_Plan", "run work")
_CALL_WORK = 2_000


class _LambdaSet:
    """What both kinds of uncertainty set read off their `candidates`, in increasing order."""

    @property
    def sup_abs(self) -> float:
        return max(abs(v) for v in self.candidates)

    @property
    def inf(self) -> float:
        return self.candidates[0]

    def sup_scaled(self, g: np.ndarray, out: np.ndarray | None = None, rows: np.ndarray | None = None) -> np.ndarray:
        """Nodewise max of lam*g over the candidates, folded in their order, into `out` when given (it may be
        g); `rows`, when given, holds two scratch rows, so that a call given both allocates nothing."""
        *head, last = self.candidates
        acc = None
        for i, lam in enumerate(head):
            term = np.multiply(lam, g, out=None if rows is None else rows[min(i, 1)])
            acc = term if acc is None else np.maximum(acc, term, out=acc)
        top = np.multiply(last, g, out=out)  # g is read for the last time
        return top if acc is None else np.maximum(acc, top, out=top)


@dataclass(frozen=True)
class LambdaInterval(_LambdaSet):
    """Closed interval [lo, hi] of drift/intensity parameters."""

    _connected = True  # a translate family's one-step window also takes every offset between its two ends
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi) or not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigurationError(f"lambda interval needs finite lo <= hi, got [{self.lo}, {self.hi}]")

    def contains(self, lam: float) -> bool:
        tol = 1e-12 * (1.0 + abs(lam))
        return self.lo - tol <= lam <= self.hi + tol

    @property
    def candidates(self) -> tuple[float, ...]:
        """Its two ends, hi alone when lo == hi: lam*g is linear in lam, so its sup over [lo, hi] is at an end."""
        return (self.lo, self.hi) if self.lo < self.hi else (self.hi,)

    def samples(self, n_interior: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n_interior + 2)


@dataclass(frozen=True)
class LambdaValues(_LambdaSet):
    """Finite set of parameters, kept sorted."""

    _connected = False  # a translate family's one-step window takes its points alone
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ConfigurationError("lambda set must be nonempty")
        vals = tuple(sorted(float(v) for v in self.values))
        if not all(math.isfinite(v) for v in vals):
            raise ConfigurationError("lambda values must be finite")
        object.__setattr__(self, "values", vals)

    def contains(self, lam: float) -> bool:
        tol = 1e-12 * (1.0 + abs(lam))
        return any(abs(lam - v) <= tol for v in self.values)

    @property
    def candidates(self) -> tuple[float, ...]:
        """Every value, as a list's one-step suprema take every member."""
        return self.values


LambdaSet = LambdaInterval | LambdaValues


@dataclass(frozen=True)
class JumpDistribution:
    """Finite-atom probability measure: atoms (offset, weight), weights sum to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(y), float(w)) for y, w in self.atoms)
        if not atoms:
            raise ConfigurationError("jump distribution needs at least one atom")
        if not all(w > 0 for _, w in atoms):
            raise ConfigurationError("jump weights must be positive")
        if not all(math.isfinite(y) for y, _ in atoms):
            raise ConfigurationError("jump offsets must be finite")
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ConfigurationError(f"jump weights must sum to 1, got {total}")
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class GaussianDrift:
    _exact_steps = False  # its one-step suprema resample translates
    lambda_set: LambdaSet

    def _profile_plan(self, t: float, dx: float, n: int) -> _Plan:
        return _heat_plan(t, dx, n)

    def _generator_terms(self, arr: np.ndarray, dx: float) -> tuple[np.ndarray | None, np.ndarray]:
        return 0.5 * _second_difference(arr, dx), _first_difference(arr, dx)

    def _growth_factor(self, h: float, norm: PNorm) -> float:
        lam_bar = self.lambda_set.sup_abs
        if norm.p == 1.0 and lam_bar > 0.0:
            raise UsageError("Gaussian drift upper bound needs p > 1 (conjugate exponent is infinite at p = 1)")
        return math.exp((norm.q - 1.0) * h * lam_bar**2 / 2.0) if lam_bar > 0.0 else 1.0


@dataclass(frozen=True)
class CompoundPoisson:
    _exact_steps = True  # its members compose exactly on the grid
    lambda_set: LambdaSet
    mu: JumpDistribution

    def __post_init__(self):
        if self.lambda_set.inf < 0:
            raise ConfigurationError("compound Poisson intensities must be >= 0")

    def _profile_plan(self, t: float, dx: float, n: int) -> None:
        return None

    def _generator_terms(self, arr: np.ndarray, dx: float) -> tuple[None, np.ndarray]:
        n = arr.shape[0]
        src, mix = _jump_mixer(_jump_stencil(self.mu, dx, n), n)
        src.samples[:] = arr
        return None, mix(np.empty(n)) - arr

    def _growth_factor(self, h: float, norm: PNorm) -> float:
        return math.exp((self.lambda_set.sup_abs - self.lambda_set.inf) * h)


@dataclass(frozen=True)
class PureShift:
    _exact_steps = False  # its one-step suprema resample translates
    lambda_set: LambdaSet

    def _profile_plan(self, t: float, dx: float, n: int) -> _Plan:
        return _Plan(lambda arr: arr, 0)  # to be read only

    def _generator_terms(self, arr: np.ndarray, dx: float) -> tuple[None, np.ndarray]:
        return None, _first_difference(arr, dx)

    def _growth_factor(self, h: float, norm: PNorm) -> float:
        raise UsageError("no envelope bound available for the pure shift family (see reference.counterexample_scan)")


KernelFamily = GaussianDrift | CompoundPoisson | PureShift


# ---------------------------------------------------------------------------
# Heat convolution

# Below this variance (in units of dx^2) a point-sampled Gaussian kernel
# underdiffuses badly; the step is then split into exact-variance three-point
# random-walk steps instead. Above it the sampled kernel's mass and variance
# are exact to roughly exp(-2 pi^2 t / dx^2) by Poisson summation.
_SAMPLED_KERNEL_MIN_VAR = 2.25

# A sampled kernel runs as a blocked product (`_blocked_heat_plan`):
# _HEAT_BLOCK outputs per row, times the c = ceil((B + m - 1) / B) blocks of a
# B x B band matrix of the m reversed weights, c B^2 doubles. A plan holds its
# band when that is at most _HEAT_BAND_HELD_BYTES (64 KiB, 225 weights at
# B = 32), which covers every width a chain takes many steps at; so a cached
# plan holds at most 64 KiB (64 of them at most 4 MiB), and building the plan
# of the widest admitted kernel (65 537 weights, a 16 MiB band) holds none. A
# wider band is copied in each call from a strided view of the zero-padded
# weights. On 2 049 nodes (in-process minima, 2-vCPU Xeon, OpenBLAS 0.3.31) a
# held band took 16-39 us at 39-207 weights against 26-61 us for np.convolve;
# a band copied per call cost 3-15 us, and the product with it 59-179 us at
# 291-1 161 weights against 54-239 us. At most _HEAT_BLOCK_ROWS rows go to one
# GEMM, into a 128 KiB buffer.
_HEAT_BLOCK = 32
_HEAT_BAND_HELD_BYTES = 64 * 1024
_HEAT_BLOCK_ROWS = 512


def _heat_weights(t: float, dx: float) -> np.ndarray:
    """Sampled Gaussian kernel at node offsets, renormalized to unit mass.

    Truncated at HEAT_KERNEL_WIDTH standard deviations; weights are the
    probabilities attached to integer node offsets -J..J. More than
    _MAX_HEAT_WEIGHTS of them raise UsageError.
    """
    reach = HEAT_KERNEL_WIDTH * math.sqrt(t) / dx
    if not reach <= _MAX_HEAT_WEIGHTS // 2:  # also inf and NaN
        raise UsageError(f"heat kernel of variance {t:g} on spacing {dx:g} needs {2 * reach + 1:.3g} weights; "
                         f"at most {_MAX_HEAT_WEIGHTS} (the cap on one kernel)")
    half = max(1, math.ceil(reach))
    offsets = np.arange(-half, half + 1) * dx
    w = np.exp(-(offsets**2) / (2.0 * t))
    w /= w.sum()
    return w


def _heat_band(w: np.ndarray, c: int) -> np.ndarray:
    """The c blocks of B rows of the band matrix of w: row k, column r is
    w[m - 1 - k + r] for 0 <= k - r < m, else +0. Row k is the window of B
    entries of the zero-padded weights that starts one entry before row
    k - 1's, copied out of one strided view."""
    m, b = len(w), _HEAT_BLOCK
    padded = np.zeros(c * b + b - 1)
    padded[c * b - m : c * b] = w
    size = padded.itemsize
    rows = np.ndarray((c * b, b), float, padded, (c * b - 1) * size, (-size, size))
    return np.ascontiguousarray(rows).reshape(c, b, b)


def _blocked_heat_plan(w: np.ndarray, n: int) -> _Plan:
    """arr -> the centred samples of the full convolution of arr with w on n
    nodes, as one blocked matrix product: output i = b B + r is row b,
    column r of sum_j rows[b + j] @ band[j], where rows is the samples
    zero-padded by m // 2 in front, cut into rows of B, and band is the
    `_heat_band` of w, held by the plan up to _HEAT_BAND_HELD_BYTES and
    built in each call past it. Each product is one BLAS GEMM on contiguous
    operands, the partial sums added in order of j, over at most
    _HEAT_BLOCK_ROWS rows at a time. Outside its window an output reads only
    zeros of the band, so a window of +0 samples sums exact zeros from
    BLAS's +0 start: +0."""
    m, half, b = len(w), len(w) // 2, _HEAT_BLOCK
    c, blocks = -(-(b + m - 1) // b), -(-n // b)
    held = _heat_band(w, c) if c * b * b * 8 <= _HEAT_BAND_HELD_BYTES else None

    def run(arr: np.ndarray) -> np.ndarray:
        band = _heat_band(w, c) if held is None else held
        padded = np.zeros((blocks + c - 1) * b)
        padded[half : half + n] = arr
        rows, out = padded.reshape(-1, b), np.empty((blocks, b))
        tmp = np.empty((min(blocks, _HEAT_BLOCK_ROWS), b))
        for lo in range(0, blocks, _HEAT_BLOCK_ROWS):
            acc = out[lo : lo + _HEAT_BLOCK_ROWS]
            k = acc.shape[0]
            np.matmul(rows[lo : lo + k], band[0], out=acc)
            for j in range(1, c):
                acc += np.matmul(rows[lo + j : lo + j + k], band[j], out=tmp[:k])
        return out.reshape(-1)[:n]

    # the padded multiply-adds of c GEMMs, then the padding, its copy and c - 1
    # sums; a band built per call adds its c B^2 entries in three calls
    work = c * b * blocks * b + (c + 1) * (n + _CALL_WORK)
    return _Plan(run, work if held is not None else work + c * b * b + 3 * _CALL_WORK)


def _heat_plan(t: float, dx: float, n: int) -> _Plan:
    """arr -> new samples: arr convolved with the heat kernel of variance t
    on n nodes of spacing dx. The branch and its weights are chosen here, once."""
    if t == 0.0:
        return _Plan(np.copy, n + _CALL_WORK)
    dx2 = dx * dx
    if t >= _SAMPLED_KERNEL_MIN_VAR * dx2:
        return _blocked_heat_plan(_heat_weights(t, dx), n)
    # grid-unresolved variance: three-point steps with the exact variance,
    # nonnegative weights (s <= dx^2), constants preserved by construction
    k = max(1, math.ceil(t / dx2))
    a = 0.5 * (t / k) / dx2

    def walk(arr: np.ndarray) -> np.ndarray:
        out = arr
        for _ in range(k):
            cur = _ZeroPadded(1, arr.shape[0], out)  # a step reads the shifts by one node
            out = (1.0 - 2.0 * a) * out + a * (cur.shift(1) + cur.shift(-1))
        return out

    return _Plan(walk, 6 * k * (n + _CALL_WORK))  # six passes per walk step


def heat_convolve(f: GridFunction, t: float) -> GridFunction:
    """Convolve with the heat kernel of variance t (zero extension outside)."""
    if not t >= 0:
        raise UsageError(f"heat time must be >= 0, got {t}")
    return GridFunction(f.grid, _heat_plan(t, f.grid.dx, f.grid.n_nodes).run(f.samples))


# ---------------------------------------------------------------------------
# Poisson series


def _poisson_weights(rate: float) -> np.ndarray:
    """Truncated, renormalized Poisson(rate) weights whose K terms drop a
    tail mass of at most SERIES_TOL + 3K * 2^-53 (see SERIES_TOL). The
    series starts from e^-rate, which must be a normal float: a rate above
    about 708 raises UsageError."""
    if not rate >= 0:
        raise UsageError(f"Poisson rate must be >= 0, got {rate}")
    w = [math.exp(-rate)]
    if not w[0] >= sys.float_info.min:
        raise UsageError(f"Poisson rate {rate:g} is too large: its first weight e^-rate is not a normal float")
    cap = int(rate + 12.0 * math.sqrt(rate) + 40.0)
    cum = w[0]
    n = 0
    while cum < 1.0 - SERIES_TOL and n < cap:
        n += 1
        w.append(w[-1] * rate / n)
        cum += w[-1]
    arr = np.array(w)
    arr /= arr.sum()
    return arr


def _jump_stencil(mu: JumpDistribution, dx: float, n: int) -> tuple[int, tuple]:
    """The shifted reads of one convolution with mu on n nodes: per atom the
    split of `_clamped_split` and the weight, and the padding they read."""
    rows = tuple((_clamped_split(y, dx, n), w) for y, w in mu.atoms)
    return _ZeroPadded.width_for([split for split, _ in rows]), rows


def _jump_mixer(stencil: tuple[int, tuple], n: int) -> tuple[_ZeroPadded, Callable[[np.ndarray], np.ndarray]]:
    """(src, mix) for convolutions with mu on n nodes, given its
    `_jump_stencil`, for one call: src holds the samples to mix (write them
    into src.samples) inside the zero padding the jumps read, and mix(out)
    writes sum_j w_j * src(x + y_j) into out and returns it, the terms added
    to zeros atom by atom. Each atom's views of src are worked out here,
    once; nothing here outlives the call that made it."""
    width, rows = stencil
    src, term, tmp = _ZeroPadded(width, n), np.empty(n), np.empty(n)
    reads = [(w, frac, src.shift(k), src.shift(k1) if frac else None) for (k, k1, frac), w in rows]

    def mix(out: np.ndarray) -> np.ndarray:
        for j, (w, frac, near, far) in enumerate(reads):
            dst = out if j == 0 else term
            if frac == 0.0:  # a whole-node jump: one pass over its view
                np.multiply(w, near, out=dst)
            else:  # the interpolated shift of `_ZeroPadded.interp`, then its weight
                _lerp(near, far, frac, dst, tmp)
                dst *= w
            # the first term is added to +0.0 where it is made: the bits of a
            # zero-filled sum, one pass fewer
            out += 0.0 if j == 0 else dst
        return out

    return src, mix


# ---------------------------------------------------------------------------
# Member application


def _member_plan(fam: CompoundPoisson, lams: Sequence[float], t: float, dx: float, n: int) -> _Plan:
    """arr -> the members lams (in its set) of a compound Poisson family at
    time t >= 0 applied to samples arr on n nodes, a fresh array with one
    row per lam, all finite or UsageError. The rows share one chain of jump
    powers mu^{*k} f, made once per call, and each is bit-identical to its
    member alone. The rows' size, the Poisson weights and the jump stencil
    are worked out here, once."""
    if len(lams) * n > _MAX_MEMBER_SAMPLES:
        raise UsageError(f"{len(lams)} members on {n} nodes: more than {_MAX_MEMBER_SAMPLES} samples "
                         "(the cap on one plan's rows)")
    weights = [_poisson_weights(lam * t) for lam in lams]
    depth = max((len(w) for w in weights), default=1)
    stencil = _jump_stencil(fam.mu, dx, n)
    # two paddings and f copied in; a power of mu makes up to five passes per atom, each row two per term
    work = (len(lams) + 3 + (depth - 1) * (5 * len(fam.mu.atoms) + 2 * len(lams))) * (n + _CALL_WORK)

    def fill(rows: np.ndarray, arr: np.ndarray) -> None:
        # row i is sum_j w_ij mu^{*j} f, added term by term from j = 0; each
        # power is mixed from the padding of the one before into the other
        for row, w in zip(rows, weights):
            np.multiply(w[0], arr, out=row)
        if depth == 1:
            return
        (src, mix), (dst, mix_dst), term = _jump_mixer(stencil, n), _jump_mixer(stencil, n), np.empty(n)
        src.samples[:] = arr
        for j in range(1, depth):
            power = mix(dst.samples)
            (src, mix), (dst, mix_dst) = (dst, mix_dst), (src, mix)
            for row, w in zip(rows, weights):
                if j < len(w):
                    row += np.multiply(w[j], power, out=term)

    def rows_of(arr: np.ndarray) -> np.ndarray:
        rows = np.empty((len(lams), n))
        fill(rows, arr)
        if not np.isfinite(rows).all():
            raise UsageError("member samples must all be finite")
        return rows

    return _Plan(rows_of, work + 2 * len(lams) * (n + _CALL_WORK))


def apply_member(fam: KernelFamily, lam: float, t: float, f: GridFunction) -> GridFunction:
    """Apply one member semigroup at time t to f; t = 0 returns f exactly. A
    member of a translate family is its profile shifted by lam*t; a sample
    past the float range raises UsageError (each GridFunction checks it)."""
    if not (t >= 0 and fam.lambda_set.contains(lam)):
        raise UsageError(f"a member needs time >= 0 and lambda in {fam.lambda_set}, got t = {t}, lambda = {lam}")
    dx, n = f.grid.dx, f.grid.n_nodes
    profile = fam._profile_plan(t, dx, n)
    if profile is None:
        return GridFunction._wrap(f.grid, _member_plan(fam, (lam,), t, dx, n).run(f.samples)[0])
    return interp_shift(GridFunction._wrap(f.grid, profile.run(f.samples)), lam * t)


# ---------------------------------------------------------------------------
# Finite-difference stencils (second order; one-sided at the two boundary
# nodes; generator comparisons exclude a boundary margin anyway).


def _first_difference(arr: np.ndarray, dx: float) -> np.ndarray:
    n = arr.shape[0]
    if n < 4:
        raise UsageError("difference stencils need at least 4 nodes")
    out = np.empty(n)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dx)
    out[-1] = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dx)
    return out


def _second_difference(arr: np.ndarray, dx: float) -> np.ndarray:
    n = arr.shape[0]
    if n < 4:
        raise UsageError("difference stencils need at least 4 nodes")
    out = np.empty(n)
    dx2 = dx * dx
    out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / dx2
    out[0] = (2.0 * arr[0] - 5.0 * arr[1] + 4.0 * arr[2] - arr[3]) / dx2
    out[-1] = (2.0 * arr[-1] - 5.0 * arr[-2] + 4.0 * arr[-3] - arr[-4]) / dx2
    return out


def sup_generator(fam: KernelFamily, f: GridFunction) -> GridFunction:
    """Nodewise supremum of the member generators over the uncertainty set.

    The generators are affine in lam, so this is A f + sup lam * B f (see
    `sup_scaled`); rounding is monotone, so adding A f after the max gives
    the same bits as the max over the members.
    """
    a, b = fam._generator_terms(f.samples, f.grid.dx)
    top = fam.lambda_set.sup_scaled(b)
    return GridFunction._wrap(f.grid, top if a is None else a + top)


# ---------------------------------------------------------------------------
# Upper-bound operator C(h)


def upper_bound_norm_factor(fam: KernelFamily, h: float, norm: PNorm) -> float:
    """c(h) in C(h)f = c(h) * (M(h)|f|^p)^(1/p), also the exact norm growth
    ||C(h)f||_p / ||f||_p since M(h) conserves mass, as each family gives
    it: raises UsageError for a family without a C(h), and
    ConfigurationError when c(h) lies beyond the float range."""
    try:
        return fam._growth_factor(h, norm)
    except OverflowError:
        raise ConfigurationError(
            f"the C(h) growth factor at h = {h:g} with lambda bound {fam.lambda_set.sup_abs:g} overflows the float "
            "range (it grows with `family.lambda_interval` / `family.lambda_list` and `time.t`, and for a Gaussian "
            "drift as `norm.p` falls to 1)") from None


def upper_bound_C(fam: KernelFamily, h: float, f: GridFunction, norm: PNorm) -> GridFunction:
    """The explicit operator C(h) dominating every one-step supremum chain.

    C(h)f = c(h) * (M(h)|f|^p)^(1/p) with c(h) from `upper_bound_norm_factor`.
    GaussianDrift: M is the heat semigroup and c(h) = exp((q-1) h lam_bar^2 / 2),
    from the Cameron-Martin factorization and Hoelder; needs p > 1 so the
    conjugate exponent is finite (unless the drift bound is zero).
    CompoundPoisson: M is the top-intensity member S_{lam_bar} and
    c(h) = exp((lam_bar - lam_lo) h), from Jensen's inequality.
    PureShift has no such operator; calling it is a usage error.
    """
    if not h > 0:
        raise UsageError(f"upper bound horizon must be > 0, got {h}")
    factor = upper_bound_norm_factor(fam, h, norm)
    dx, n = f.grid.dx, f.grid.n_nodes
    heat = fam._profile_plan(h, dx, n)  # None for compound Poisson
    powed = np.abs(f.samples) ** norm.p
    moved = (heat.run(powed) if heat is not None
             else _member_plan(fam, (fam.lambda_set.sup_abs,), h, dx, n).run(powed)[0])
    with np.errstate(over="ignore"):  # a C(h)f past the float range fails the finiteness check: reported there
        return GridFunction._wrap(f.grid, factor * np.maximum(moved, 0.0) ** (1.0 / norm.p))
