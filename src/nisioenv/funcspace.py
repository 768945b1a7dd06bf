"""Discretized function space on a uniform 1-D grid.

The computational stand-in for L^p(R): sampled real functions on a uniform
mesh, rectangle-rule norms, shifts by linear interpolation with zero
extension, and the pointwise max that realizes suprema of families of
functions.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError

__all__ = [
    "Grid",
    "GridFunction",
    "PNorm",
    "make_grid",
    "lp_norm",
    "interp_shift",
    "pointwise_max",
    "bump",
    "gaussian_profile",
    "ramp",
    "write_csv",
    "read_csv",
]

# Fractional parts of (shift / dx) closer than this to an integer are snapped,
# so shifts by exact node multiples are pure reindexing with no interpolation.
_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform mesh on [lower, upper] with nodes x_i = lower + i*dx."""

    lower: float
    upper: float
    n_nodes: int
    dx: float

    def nodes(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The nodes x_i for i in [start, stop), all of them by default; a
        range has the bits of the same slice of all nodes."""
        return self.lower + self.dx * np.arange(start, self.n_nodes if stop is None else stop)

    def interior_slice(self, margin: float) -> slice:
        """Index window that drops a fraction `margin` of nodes on each side."""
        k = int(math.floor(margin * self.n_nodes))
        return slice(k, self.n_nodes - k)


def make_grid(lower: float, upper: float, n_nodes: int) -> Grid:
    """Build a uniform grid; rejects degenerate intervals, n_nodes < 2 and a
    spacing whose square is not a normal float, so a width past the floats."""
    if not (upper > lower):
        raise ConfigurationError(f"grid needs upper > lower, got [{lower}, {upper}]")
    if n_nodes < 2:
        raise ConfigurationError(f"grid needs n_nodes >= 2, got {n_nodes}")
    dx = (upper - lower) / (n_nodes - 1)
    if not sys.float_info.min <= dx * dx <= sys.float_info.max:  # the difference and step formulas use dx^2
        word = "fine: dx^2 underflows" if dx < 1.0 else "coarse: dx^2 overflows"
        raise ConfigurationError(f"grid spacing dx = {dx:g} on [{lower}, {upper}] is too {word} the float range")
    return Grid(float(lower), float(upper), int(n_nodes), dx)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled on a Grid. Immutable; all samples finite."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.samples, dtype=float))

    def _freeze(self, arr: np.ndarray) -> None:
        if arr.shape != (self.grid.n_nodes,):
            raise UsageError(
                f"samples shape {arr.shape} does not match grid with "
                f"{self.grid.n_nodes} nodes"
            )
        if not np.isfinite(arr).all():
            raise UsageError("samples must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _wrap(cls, grid: Grid, arr: np.ndarray) -> "GridFunction":
        """The constructor without its copy, for a fresh float array that
        nothing else holds or writes: the same shape and finiteness checks,
        then arr itself is frozen."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "grid", grid)
        fn._freeze(arr)
        return fn

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise UsageError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction._wrap(self.grid, self.samples + other.samples)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction._wrap(self.grid, self.samples - other.samples)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction._wrap(self.grid, self.samples * float(c))

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "GridFunction":
        return GridFunction._wrap(self.grid, self.samples / float(c))

    def __abs__(self) -> "GridFunction":
        return GridFunction._wrap(self.grid, np.abs(self.samples))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))


@dataclass(frozen=True)
class PNorm:
    """Lebesgue exponent p in [1, inf) with its conjugate q (inf when p = 1)."""

    p: float

    def __post_init__(self):
        if self.p < 1.0 or not math.isfinite(self.p):
            raise ConfigurationError(f"norm exponent p must be in [1, inf), got {self.p}")

    @property
    def q(self) -> float:
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)


def lp_norm(f: GridFunction, norm: PNorm) -> float:
    """Rectangle-rule L^p norm (sum_i |f_i|^p dx)^(1/p) of `_scaled_powers`,
    scaled back: accurate for every finite f, inf only where it overflows.

    Terms are accumulated strictly left to right so the result does not
    depend on any parallel reduction schedule or on the interpreter: the
    running sum of np.cumsum is a plain sequential scan, where np.sum adds
    pairwise and Python's float sum is compensated from 3.12 on. A sample
    of +0 or -0 gives a term of +0, which leaves every running sum as it is,
    so only the span from the first to the last nonzero sample is summed.
    """
    p, x = norm.p, f.samples
    if not (x[0] and x[-1]):
        span = _nonzero_span(x != 0)
        if span is None:
            return 0.0
        x = x[span[0] : span[1]]
    terms, m, e = _scaled_powers(x, p)  # one fresh array, worked on in place
    terms *= f.grid.dx
    total = float(np.cumsum(terms, out=terms)[-1])
    root = total if p == 1.0 else math.sqrt(total) if p == 2.0 else total ** (1.0 / p)
    try:
        return math.ldexp(root * m, e)
    except OverflowError:  # the norm itself leaves the floats
        return math.inf


def _scaled_powers(x: np.ndarray, p: float) -> tuple[np.ndarray, float, int]:
    """(|x / s|^p in a fresh array, m, e), s = m 2^e, the largest power about
    1; a p-th root r of their sum is ldexp(r m, e) of x. s = 2^e from
    frexp(max|x|) at p in {1, 2}, exact in normal floats, and max|x| at other
    p, where a number in [1/2, 1) to a p of about 1074 or more underflows."""
    terms = np.abs(x)
    top = float(terms.max())
    m, e = math.frexp(top)
    if p != 1.0 and p != 2.0:  # |x| / max|x| has the bits of |x| 2^-e / m in normal floats; zeros stay zeros
        return np.power(np.divide(terms, top or 1.0, out=terms), p, out=terms), m, e
    np.ldexp(terms, -e, out=terms)
    return terms if p == 1.0 else np.square(terms, out=terms), 1.0, e


def _checked_lp_norm(f: GridFunction, norm: PNorm) -> float:
    """lp_norm(f), or UsageError where it overflows: the one float-range rule of the data."""
    if (value := lp_norm(f, norm)) == math.inf:
        raise UsageError("the L^p norm of the data overflows")
    return value


def _nonzero_span(mask: np.ndarray) -> tuple[int, int] | None:
    """[a, b) from the first to one past the last True of a 1-D bool mask,
    or None when it has none."""
    raw = mask.tobytes()  # a True is the byte 1; bytes.rfind scans from the end
    a = raw.find(1)
    return None if a < 0 else (a, raw.rfind(1) + 1)


def _node_span(grid: Grid, lo: float, hi: float) -> tuple[int, int]:
    """[start, stop), never empty: the indices of the nodes in [lo, hi],
    estimated from (x - lower) / dx and widened by two nodes or more on each
    side to absorb the rounding of the estimate, clamped to the grid. A NaN
    end counts as left of the grid."""
    def index(x: float, margin: float) -> int:
        s = (x - grid.lower) / grid.dx + margin
        return int(min(s, grid.n_nodes)) if s > 0 else 0

    start = min(index(lo, -2.0), grid.n_nodes - 1)
    return start, max(index(hi, 3.0), start + 1)


def _clamped_split(delta: float, dx: float, n: int) -> tuple[int, int, float]:
    """(k, k1, frac) of a shift by delta on n nodes: the split of
    `_shift_split` with k and k1 = k + 1 each clamped to [-n, n], since on n
    nodes a shift by n or more reads only zeros."""
    k, frac = _shift_split(delta, dx)
    return min(max(k, -n), n), min(max(k + 1, -n), n), frac


def _shift_split(delta: float, dx: float) -> tuple[int, float]:
    """(k, frac) with delta / dx = k + frac and frac in [0, 1); a fraction
    within _SNAP_TOL of an integer snaps to 0, so node multiples reindex."""
    s = delta / dx
    k = math.floor(s)
    frac = s - k
    if frac < _SNAP_TOL:
        frac = 0.0
    elif frac > 1.0 - _SNAP_TOL:
        k += 1
        frac = 0.0
    return k, frac


class _ZeroPadded:
    """Samples on n nodes inside one zero padding, the one source of every
    zero-extended shift: shift k reads out[i] = samples[i + k], zero where
    i + k falls off the nodes. `samples` is the writable interior, the given
    array itself when the padding is 0."""

    def __init__(self, width: int, n: int, arr: np.ndarray | None = None):
        self.width, self.n = width, n
        if width or arr is None:
            self.padded = np.zeros(n + 2 * width)
            if arr is not None:
                self.padded[width : width + n] = arr
        else:
            self.padded = arr
        self.samples = self.shift(0)
        self._tmp = None

    @staticmethod
    def width_for(splits) -> int:
        """The padding the shifts of `_clamped_split` splits (k, k1, frac) read:
        the largest |k|, and |k1| where frac is not 0; offset m is (m, m, 0.0)."""
        return max([abs(k) for k, _, _ in splits] + [abs(k1) for _, k1, frac in splits if frac], default=0)

    def shift(self, k: int, size: int | None = None) -> np.ndarray:
        """Shift k, |k| at most the width, as a view (read-only by convention);
        `size` > n extends it to the next shifts, up to shift width."""
        start = self.width + k
        return self.padded[start : start + (size or self.n)]

    def interp(self, split: tuple[int, int, float], out: np.ndarray) -> np.ndarray:
        """The shift of a split (k, k1, frac), (1 - frac) * shift k + frac *
        shift k1, written into `out` and returned. The weights are
        nonnegative, so the map is monotone and order-preserving exactly."""
        k, k1, frac = split
        if frac == 0.0:
            out[:] = self.shift(k)
            return out
        if self._tmp is None:
            self._tmp = np.empty(self.n)
        return _lerp(self.shift(k), self.shift(k1), frac, out, self._tmp)


def _lerp(near: np.ndarray, far: np.ndarray, frac: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(1 - frac) * near + frac * far, the one interpolated shift, written
    into `out` and returned; `tmp` is scratch of the same size."""
    np.multiply(1.0 - frac, near, out=out)
    out += np.multiply(frac, far, out=tmp)
    return out


def interp_shift(f: GridFunction, delta: float) -> GridFunction:
    """Evaluate x -> f(x + delta) by linear interpolation, zero outside the grid.

    Linear and monotone in f; exact (pure reindex) when delta is a node
    multiple. Out-of-range queries are absorbed by the zero extension.
    """
    n = f.grid.n_nodes
    split = _clamped_split(float(delta), f.grid.dx, n)
    held = _ZeroPadded(_ZeroPadded.width_for([split]), n, f.samples)
    return GridFunction._wrap(f.grid, held.interp(split, np.empty(n)))


def pointwise_max(fs: list[GridFunction]) -> GridFunction:
    """Nodewise max over a nonempty list of functions on one grid."""
    if not fs:
        raise UsageError("pointwise_max needs a nonempty list")
    grid = fs[0].grid
    for g in fs[1:]:
        if g.grid != grid:
            raise UsageError("pointwise_max arguments live on different grids")
    return GridFunction(grid, np.maximum.reduce([g.samples for g in fs]))


# ---------------------------------------------------------------------------
# Standard initial data


def bump(grid: Grid, center: float = 0.0, radius: float = 1.0, height: float = 1.0) -> GridFunction:
    """Smooth compactly supported bump, height at the center, zero for |x-c| >= r.

    The classical C_c^infinity profile exp(1 - 1/(1 - u^2)) with u = (x-c)/r.
    """
    if not radius > 0:
        raise ConfigurationError("bump radius must be positive")
    vals = np.zeros(grid.n_nodes)
    with np.errstate(over="ignore", under="ignore"):  # a u past the float range lies outside
        u = (grid.nodes() - center) / radius
        inside = np.abs(u) < 1.0
        vals[inside] = height * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return GridFunction._wrap(grid, vals)


def gaussian_profile(grid: Grid, center: float = 0.0, sigma: float = 1.0, height: float = 1.0) -> GridFunction:
    if not sigma > 0:
        raise ConfigurationError("gaussian sigma must be positive")
    x = grid.nodes()
    with np.errstate(over="ignore"):  # an exponent past the float range gives exp(-inf) = 0
        return GridFunction(grid, height * np.exp(-((x - center) ** 2) / (2.0 * sigma**2)))


def ramp(grid: Grid, slope: float = 1.0, intercept: float = 0.0) -> GridFunction:
    return GridFunction(grid, slope * grid.nodes() + intercept)


# ---------------------------------------------------------------------------
# Serialization: CSV with a header line, 17 significant digits per entry
# (integers print as integers).


def _write_rows_csv(path, header: str, rows) -> None:
    line = ",".join(["{:.17g}"] * (header.count(",") + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(itertools.starmap(line.format, rows))


def write_csv(f: GridFunction, path) -> None:
    """Write f as the table `x,value`."""
    _write_rows_csv(path, "x,value", zip(f.grid.nodes().tolist(), f.samples.tolist()))


def read_csv(path) -> GridFunction:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: not a numeric `x,value` table: {exc}") from exc
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigurationError(f"{path}: expected two columns `x,value` with >= 2 rows")
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(f"{path}: every entry must be a finite number")
    x, v = data[:, 0], data[:, 1]
    grid = make_grid(float(x[0]), float(x[-1]), len(x))
    if np.max(np.abs(x - grid.nodes())) > 1e-9 * grid.dx:
        raise ConfigurationError(f"{path}: x column is not a uniform grid")
    return GridFunction(grid, v)
