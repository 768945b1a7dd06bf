"""Fixed-size microbenchmarks through public nisioenv calls.

Each case reports the median per-call time in microseconds over a few
batches of about 20 ms, after one warm-up call that sizes the batch. The two
n = 2400001 cases also report computed bytes moved and operations per byte
for the code path at this commit: the counts come from the array sizes of
each NumPy pass and ignore caches. No bandwidth or roofline ratio is
claimed, because a 19 MB array fits in the machine's shared last-level
cache.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

BIG = 2400001


def _time_us(fn, reps: int, target_s: float = 0.02) -> float:
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    per_batch = max(1, int(target_s / max(once, 1e-9)))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - t0) / per_batch * 1e6)
    return statistics.median(samples)


def computed_traffic(n: int) -> dict[str, float]:
    """Computed bytes moved and operations for the two large-n cases.

    lp_norm, p = 2: `f * f` (read 2n, write n doubles), `* dx` (read n, write
    n), `tolist()` (read n doubles, write n list slots and n 24-byte float
    objects), `sum` (read n slots and n objects); 3n flops.

    step_J on a pure shift over [-0.5, 0.5] at h = 0.5 with dx = 2.5e-6:
    both window ends are whole-node shifts (`zeros` + copy: write n, read n,
    write n, twice); the 400001-wide integer window pads to P = n + 2w
    (read n, write P) and runs maximum_filter1d (read P, write P, about 3
    comparisons per element); `np.maximum.reduce` over the three candidates
    stacks them (read 3n, write 3n) and reduces (read 3n, write n, 2n
    comparisons). w = 200000 is the padding on each side.
    """
    d, obj = 8, 24
    lp_bytes = (3 * n + 2 * n) * d + (n * d + n * (d + obj)) + n * (d + obj)
    padded = n + 2 * 200000
    shift_bytes = 2 * 3 * n * d
    shift_bytes += (n + padded) * d + 2 * padded * d
    shift_bytes += (6 * n + 4 * n) * d
    shift_ops = 3 * padded + 2 * n
    return {
        "funcspace.lp_norm.n2400001.bytes": float(lp_bytes),
        "funcspace.lp_norm.n2400001.ops_per_byte": 3.0 * n / lp_bytes,
        "envelope.step_J.shift.n2400001.bytes": float(shift_bytes),
        "envelope.step_J.shift.n2400001.ops_per_byte": shift_ops / shift_bytes,
    }


def run_micro(nisioenv, root: Path, reps: int = 5) -> dict[str, float]:
    fs, kn, env, ref, cli = (nisioenv.funcspace, nisioenv.kernels, nisioenv.envelope,
                             nisioenv.reference, nisioenv.cli)
    grid = fs.make_grid(-10.0, 10.0, 2049)
    f = fs.bump(grid, radius=1.0)
    norm = fs.PNorm(2.0)
    gauss = kn.GaussianDrift(kn.LambdaInterval(-1.0, 1.0))
    shift = kn.PureShift(kn.LambdaInterval(-1.0, 1.0))
    jumps = kn.JumpDistribution(((1.0, 1.0),))
    cp_grid = fs.make_grid(-10.0, 10.0, 2001)
    f_cp = fs.bump(cp_grid, radius=1.0)
    cp_interval = kn.CompoundPoisson(kn.LambdaInterval(0.0, 1.0), jumps)
    cp_list = kn.CompoundPoisson(kn.LambdaValues((0.0, 1.0)), jumps)
    big_grid = fs.make_grid(-3.0, 3.0, BIG)
    pole = ref.pole_initial_condition(big_grid, 2.0, 1e-5)
    u = f.samples.copy()
    dt_hjb = 0.9 / (1.0 / grid.dx**2 + 1.0 / grid.dx)
    pi10 = env.Partition.dyadic(0.5, 10)
    config = root / "configs" / "envelope_gaussian.json"

    cases = {
        "kernels.heat_convolve.lvl0.us": lambda: kn.heat_convolve(f, 0.5),
        "kernels.heat_convolve.lvl10.us": lambda: kn.heat_convolve(f, 0.5 / 1024),
        "envelope.step_J.gauss.lvl0.us": lambda: env.step_J(gauss, 0.5, f),
        "envelope.step_J.gauss.lvl10.us": lambda: env.step_J(gauss, 0.5 / 1024, f),
        "envelope.step_J.shift.lvl0.us": lambda: env.step_J(shift, 0.5, f),
        "envelope.step_J.shift.n2400001.us": lambda: env.step_J(shift, 0.5, pole),
        "envelope.step_J.cp_interval.us": lambda: env.step_J(cp_interval, 1.0, f_cp),
        "envelope.step_J.cp_list.us": lambda: env.step_J(cp_list, 1.0, f_cp),
        "envelope.apply_partition.gauss.lvl10.us": lambda: env.apply_partition(gauss, pi10, f),
        "envelope.nisio_dyadic.gauss.us": lambda: env.nisio_dyadic(gauss, 0.5, f, 1e-4, 10, norm),
        "funcspace.lp_norm.n2049.us": lambda: fs.lp_norm(f, norm),
        "funcspace.lp_norm.n2400001.us": lambda: fs.lp_norm(pole, norm),
        "reference.hjb_step.n2049.us": lambda: ref.hjb_step(u, dt_hjb, grid.dx, 1.0),
        "kernels.sup_generator.cp.us": lambda: kn.sup_generator(cp_list, f_cp),
        "cli.load_config.us": lambda: cli.load_config(config),
    }
    out = {name: _time_us(fn, reps) for name, fn in cases.items()}
    out.update(computed_traffic(BIG))
    return out
