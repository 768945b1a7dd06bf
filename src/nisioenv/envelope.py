"""Nisio construction of the semigroup envelope.

One-step suprema J_h over the uncertainty set, their composition J_pi along a
time partition, and dyadic refinement until the iterates stabilize. Nested
partitions give nodewise non-decreasing iterates bounded above by the
explicit operator C(t), so the dyadic sequence converges; the result carries
the convergence table, and `cli` certifies it against C(t).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .funcspace import (GridFunction, PNorm, _SNAP_TOL, _checked_lp_norm, _clamped_split, _nonzero_span, _shift_split,
                        _ZeroPadded, lp_norm)
from .kernels import _CALL_WORK, KernelFamily, _member_plan, _Plan

__all__ = [
    "Partition",
    "EnvelopeResult",
    "step_J",
    "apply_partition",
    "nisio_dyadic",
]

# Above this many integer offsets the window maximum switches from a doubling
# fold (ceil(log2 count) passes over n + count nodes) to a block maximum
# (identical bits, a few passes whatever the count). The fold is the faster
# of the two up to a few thousand offsets; only the blow-up scans of
# `counterexample` and `verify --scale full` reach the block maximum.
_FILTER_CUTOVER = 4096

# Step plans kept, one per (family, h, dx, n): the package's one cache. A
# plan holds what does not depend on the samples (weights, offsets, splits,
# padding widths, computed as it is built), never a grid-long buffer. A
# dyadic level has one step size, t / 2^L, so a run misses once per level.
_PLAN_CACHE_SIZE = 64


@dataclass(frozen=True)
class Partition:
    """Finite time grid 0 = t_0 < t_1 < ... < t_m."""

    times: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if not ts or ts[0] != 0.0:
            raise UsageError("partition must start at 0")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise UsageError("partition times must be strictly increasing")
        object.__setattr__(self, "times", ts)

    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.times, self.times[1:])]

    @staticmethod
    def dyadic(t: float, level: int) -> "Partition":
        if not t > 0:
            raise UsageError(f"partition horizon must be > 0, got {t}")
        if level < 0:
            raise UsageError("dyadic level must be >= 0")
        m = 1 << level
        return Partition(tuple(t * k / m for k in range(m + 1)))


@dataclass(frozen=True)
class EnvelopeResult:
    """Dyadic iterates' diagnostics plus the final envelope approximation.

    iterates_norms rows are (level, ||T_n f||_p, ||T_n f - T_{n-1} f||_p);
    the level-0 increment is NaN (there is no previous iterate).
    min_increments records the worst nodewise drop T_n - T_{n-1} per level,
    the runtime check that nested dyadic partitions increase the iterates.
    """

    final: GridFunction
    iterates_norms: list[tuple[int, float, float]]
    levels_used: int
    converged: bool
    boundary_leakage: float
    min_increments: list[float]

    def increments(self) -> list[float]:
        return [row[2] for row in self.iterates_norms[1:]]

    def to_json_dict(self) -> dict:
        return {
            "levels_used": self.levels_used,
            "converged": self.converged,
            "boundary_leakage": self.boundary_leakage,
            "increments": self.increments(),
        }

    def convergence_rows(self, t: float) -> list[tuple[int, int, float, float, float]]:
        """Rows (level, steps, h, increment_lp, norm_lp) for the convergence CSV."""
        rows = []
        for level, norm_val, inc in self.iterates_norms:
            h, steps = _level(t, level)
            rows.append((level, steps, h, inc, norm_val))
        return rows


# ---------------------------------------------------------------------------
# Window supremum: exact sup of the piecewise-linear interpolant over a
# sliding window [x + lo, x + hi], zero extension outside the grid. Attained
# either at a node inside the window or at one of the two window endpoints.


def _int_max_plan(n: int, ml: int, mh: int) -> tuple[list[tuple[int, int, float]], Callable]:
    """(reads, int_max) for the max over the integer offsets ml..mh on n
    nodes: out[i] = max(u[i+ml .. i+mh], zero-padded). The offsets are
    clamped to [-n, n], which drops only all-zero terms; reads are the
    farthest shifts the max reads, as splits, and int_max maps u held in a
    `_ZeroPadded` as wide as they need to a fresh array.

    Up to `_FILTER_CUTOVER` offsets a doubling fold reads the contiguous run
    of u from offset wl on: after each pass run[j] is the max over k
    consecutive offsets from wl + j, with k doubled, and one overlapping pair
    of k-blocks covers the count. The earlier block is always the first
    operand, and np.maximum keeps its second on a tie between +0 and -0, so a
    tie keeps the later offset, as a fold in increasing order does.

    Beyond it a block maximum (van Herk; Gil & Werman) reads u.samples by
    index: views inside the grid, one reused zero-extended buffer off it. It
    runs only on the outputs whose window meets the span of samples whose
    bits are not +0 (the rest are maxima of +0 terms, +0), in blocks of count
    from i: output i + r is the max of the suffix from r of output i's window
    (a reversed accumulate) and of that window's last term and the r after it
    (accumulated forward into out, the second operand). The reversed
    accumulate keeps the earlier zero on a tie, but its maxima never decrease,
    so its zeros are one run, each set to its first: the window's last zero.
    """
    wl, wh = min(max(ml, -n), n), min(max(mh, -n), n)
    count = wh - wl + 1
    if count <= _FILTER_CUTOVER:
        def fold(u: _ZeroPadded) -> np.ndarray:
            run, k = u.shift(wl, n + count - 1), 1
            while 2 * k < count:
                run, k = np.maximum(run[:-k], run[k:]), 2 * k
            return np.maximum(run[:n], run[count - k : count - k + n])

        return [(wl, wl, 0.0), (wh, wh, 0.0)], fold

    def blocked(u: _ZeroPadded) -> np.ndarray:
        s, out = u.samples, np.zeros(n)
        span = _nonzero_span(s.view(np.int64) != 0)  # -0 has nonzero bits
        if span is None:
            return out
        rev, ext = np.empty(count), np.empty(count)

        def read(k: int, size: int) -> np.ndarray:  # samples k .. k + size - 1, +0 off the grid
            if 0 <= k and k + size <= n:
                return s[k : k + size]
            a, b = min(max(k, 0), n), min(max(k + size, 0), n)
            ext[:size] = 0.0
            ext[a - k : b - k] = s[a:b]
            return ext[:size]

        hi = min(n, span[1] - wl)
        for i in range(max(0, span[0] - wh), hi, count):
            np.maximum.accumulate(read(i + wl, count)[::-1], out=rev)  # rev[j]: max of the window's last j + 1 terms
            i0, i1 = np.searchsorted(rev, 0.0, "left"), np.searchsorted(rev, 0.0, "right")
            rev[i0:i1] = rev[i0 : i0 + 1]
            later = out[i : min(i + count, hi)]
            np.maximum.accumulate(read(i + wl + count - 1, len(later)), out=later)
            np.maximum(rev[count - len(later) :][::-1], later, out=later)
        return out

    return [], blocked


def _window_plan(points: Sequence[float], connected: bool, dx: float, n: int) -> _Plan:
    """u -> a fresh array: at each node x, the sup of the interpolant of u
    over x + the increasing points, on n nodes of spacing dx; `connected`
    adds the integer offsets ml..mh between the first and the last point.

    A point that snaps to one of those offsets is a term of the integer max
    already and is left out. The rest are folded in order, then as
    max(max of the points, integer max): np.maximum keeps its second operand
    on a tie between +0 and -0, so this order gives the bits of the max over
    all candidates. A window with the one offset m (a sub-cell window) maxes
    shift m into the points' max in place, or copies it. Every shift is a
    view of u held in one `_ZeroPadded`, clamped to [-n, n] (farther shifts
    read only zeros); the offsets, the point splits and the padding width
    are worked out here, once."""
    ml = math.ceil(points[0] / dx - _SNAP_TOL)
    mh = math.floor(points[-1] / dx + _SNAP_TOL) if connected else ml - 1  # no offset between the points
    splits = [(_shift_split(p, dx), _clamped_split(p, dx, n)) for p in points]
    interps = [split for (k, frac), split in splits if frac or not ml <= k <= mh]
    reads, int_max, one = interps, None, None
    if ml == mh:
        one = min(max(ml, -n), n)
        reads = interps + [(one, one, 0.0)]
    elif ml < mh:
        int_reads, int_max = _int_max_plan(n, ml, mh)
        reads = interps + int_reads
    width = _ZeroPadded.width_for(reads)

    def window(u: np.ndarray) -> np.ndarray:
        held = _ZeroPadded(width, n, u)
        top = None
        for split in interps:  # each point into a fresh array, which the maxes below may write
            cand = held.interp(split, np.empty(n))
            top = cand if top is None else np.maximum(top, cand, out=top)
        if one is not None:
            return held.shift(one).copy() if top is None else np.maximum(top, held.shift(one), out=top)
        if int_max is None:  # no node offset in the window: the points are the candidates
            return top
        out = int_max(held)
        return out if top is None else np.maximum(top, out, out=out)

    # the padded copy, each point, the last max and the fold's passes; the block
    # maximum's few passes are priced as the fold's at the cutover, 13 over n + 4096
    folded = max(0, min(mh - ml + 1, 2 * n + 1, _FILTER_CUTOVER)) if ml < mh else 0
    return _Plan(window, (3 + 4 * len(interps)) * (n + _CALL_WORK) + folded.bit_length() * (n + folded + _CALL_WORK))


# ---------------------------------------------------------------------------
# One-step supremum and partition composition


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _step_plan(fam: KernelFamily, h: float, dx: float, n: int) -> _Plan:
    """The `_Plan` of `step_J` at step h on n nodes of spacing dx: arr -> a
    fresh array, and its work. Cached per (family, h, dx, n)."""
    lset = fam.lambda_set
    base = fam._profile_plan(h, dx, n)
    if base is not None:  # translates of one profile: the window maximum over the offsets lam*h
        window = _window_plan([lam * h for lam in lset.candidates], lset._connected, dx, n)
        return _Plan(lambda arr: window.run(base.run(arr)), base.work + window.work)
    rows = _member_plan(fam, lset.candidates, h, dx, n)  # compound Poisson: a row per candidate
    return _Plan(lambda arr: np.maximum.reduce(rows.run(arr)), rows.work + len(lset.candidates) * (n + _CALL_WORK))


def step_J(fam: KernelFamily, h: float, f: GridFunction) -> GridFunction:
    """One-step supremum over the family: sup over the uncertainty set of the
    members applied at time h.

    A translate family's members (Gaussian drift, pure shift) are one
    function, f heat-smoothed or f itself, shifted by lam*h, so the step is a
    window maximum (`_window_plan`) over the offsets lam*h of a finite set,
    or every offset between an interval's ends. Compound Poisson members
    share one chain of jump powers; the step is the nodewise max over the
    rows of a finite set's members (`kernels._member_plan`), and an interval
    takes the rows of its two ends: its generators A + lam B are affine in
    lam, so both sets have one supremum generator, and one envelope, since a
    convex C_0-semigroup is determined by its generator. Each call runs the
    plan of `_step_plan` and wraps its fresh result: a chain of one step.
    """
    return _chain(fam, h, 1, f)


def apply_partition(fam: KernelFamily, pi: Partition, f: GridFunction) -> GridFunction:
    """Compose one-step suprema along the partition, last gap applied first."""
    out = f
    for h in reversed(pi.gaps()):
        out = step_J(fam, h, out)
    return out


# ---------------------------------------------------------------------------
# Dyadic refinement


def _boundary_leakage(f: GridFunction, norm: PNorm) -> float:
    """L^p mass in the outer 10% of the domain (5% per side)."""
    masked = f.samples.copy()
    sl = f.grid.interior_slice(0.05)
    masked[sl] = 0.0
    return lp_norm(GridFunction._wrap(f.grid, masked), norm)


def _level(t: float, level: int) -> tuple[float, int]:
    """(h, m) of dyadic level `level` of [0, t]: m = 2^level steps of exactly h = t / 2^level."""
    m = 1 << level
    return t / m, m


def _chain(fam: KernelFamily, h: float, m: int, f: GridFunction) -> GridFunction:
    """J_h^m f: m >= 1 one-step suprema of exactly h > 0 from f, on one step
    plan. Each step's fresh array is checked finite, the last one as it is
    wrapped. f is held no longer than its first step needs it."""
    if not h > 0:
        raise UsageError(f"step size must be > 0, got {h}")
    grid, arr = f.grid, f.samples
    run = _step_plan(fam, h, grid.dx, grid.n_nodes).run
    del f
    for _ in range(m - 1):
        arr = run(arr)
        if not np.isfinite(arr).all():
            raise UsageError("samples must all be finite")
    return GridFunction._wrap(grid, run(arr))


def nisio_dyadic(
    fam: KernelFamily,
    t: float,
    f: GridFunction,
    tol_rel: float,
    n_max: int,
    norm: PNorm,
    *,
    n_min: int = 0,
    chains: dict | None = None,
) -> EnvelopeResult:
    """Envelope approximation along nested dyadic partitions of [0, t].

    Computes T_n f for n = 0, 1, ... until the L^p increment between levels
    drops below tol_rel * ||f||_p (not before level n_min) or n_max is hit.
    Level n is its own chain J_h^m f of (h, m) = `_level(t, n)`, so
    monotonicity diagnostics compare independently constructed iterates.
    Non-convergence at n_max is reported, not raised; f must pass
    `funcspace._checked_lp_norm`.

    `chains` shares one trajectory between runs at increasing horizons: it
    maps (h, m) to J_h^m f, the iterates that the run before left. Level
    n >= 1 takes the chain (h, 2^(n-1)) from it when that key is there (the
    run at t/2 made it, at level n - 1) and runs the other 2^(n-1) steps;
    otherwise it runs (h, 2^n) from f. Every iterate so has the bits of an
    own run. Entries are dropped once read, the rest when this run ends; the
    run then leaves its own levels below n_max, the ones a run at 2t can read.
    `_levels` lists the chains that a run makes.
    """
    if not t > 0:
        raise UsageError(f"time horizon must be > 0, got {t}")
    if not tol_rel > 0:
        raise UsageError(f"tol_rel must be > 0, got {tol_rel}")
    threshold = tol_rel * _checked_lp_norm(f, norm)
    held = {}
    if chains is not None:
        held = chains.copy()
        chains.clear()

    rows: list[tuple[int, float, float]] = []
    drops: list[float] = []
    prev: GridFunction | None = None
    current = f
    converged = False
    level = 0
    for level in range(n_max + 1):
        h, m = _level(t, level)
        half = (h, m >> 1)  # never held at level 0: no run leaves a chain of 0 steps
        # a popped start goes straight to `_chain`, which frees it with its first step
        current = _chain(fam, h, m >> 1, held.pop(half)) if half in held else _chain(fam, h, m, f)
        if chains is not None and level < n_max:
            chains[h, m] = current
        if prev is None:
            rows.append((level, lp_norm(current, norm), math.nan))
        else:
            diff = current - prev
            inc = lp_norm(diff, norm)
            rows.append((level, lp_norm(current, norm), inc))
            drops.append(float(np.min(diff.samples)))
            if level >= n_min and inc <= threshold:
                converged = True
                break
        prev = current

    return EnvelopeResult(
        final=current,
        iterates_norms=rows,
        levels_used=level,
        converged=converged,
        boundary_leakage=_boundary_leakage(current, norm),
        min_increments=drops,
    )


def _levels(t: float, n_max: int, prior: float | None = None) -> list[tuple[float, int]]:
    """The chains (h, m) that `nisio_dyadic` runs to t at levels 0..n_max
    when none converges. Level L is `_level(t, L)`; after a run to `prior` on
    the same `chains` and n_max, level L >= 1 runs only its last half when
    that run's level L - 1 is its first half (the lookup `half in held`)."""
    chains = []
    for level in range(n_max + 1):
        h, m = _level(t, level)
        shared = level and prior is not None and _level(prior, level - 1) == (h, m >> 1)
        chains.append((h, m >> 1 if shared else m))
    return chains
