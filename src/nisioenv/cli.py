"""Experiment orchestration: configs, subcommands, verification suite, reports.

Subcommands wire the library together on a JSON experiment configuration;
``SUBCOMMANDS`` declares each once: its pre-flight, the family its oracle
needs and the files it writes.

Exit codes: 0 all checks passed, 1 a check failed (report still written),
2 configuration error (nothing written). Reports are byte-identical for
identical (config, seed, version); wall-clock timings go to a separate file
so the determinism contract holds for report.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from . import calculus, envelope, funcspace, kernels, reference
from .calculus import _random_smooth
from .errors import ConfigurationError, UsageError
from .funcspace import GridFunction, PNorm, _write_rows_csv, lp_norm, make_grid, pointwise_max
from .kernels import (
    CompoundPoisson,
    GaussianDrift,
    JumpDistribution,
    LambdaInterval,
    LambdaValues,
    PureShift,
)

# Caps on one config. Its memory: the largest grid any shipped config uses (the pure-shift scan)
# and the default dyadic level (a level-L run makes 2^(L+1) - 1 one-step suprema). Its time: the
# node operations `_check_work` predicts, 3.2 times the heaviest of any shipped run or benchmark job
# (2.52e10, `derivative` on counterexample_shift.json, which runs every level; `generator` there
# predicts 2.16e10 and stops at converged levels).
_MAX_NODES = 2_400_001
_MAX_LEVEL = 12
_MAX_WORK = 8e10
_SCALES = ("small", "full")  # of `verify`


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class ExperimentConfig:
    raw: dict
    grid: funcspace.Grid
    norm: PNorm
    family: kernels.KernelFamily
    _initial: Callable[[], GridFunction] = field(repr=False)
    t: float
    tol_rel: float
    n_max: int
    seed: int
    output_dir: str
    options: dict = field(default_factory=dict)

    @cached_property
    def initial(self) -> GridFunction:
        """The initial data, checked at load and evaluated on first read."""
        return self._initial()


class _Section(dict):
    """A config object that records the keys the parser asks for: every read
    tests `key in section` first, and every other key is unknown (see
    `_check_keys`). A key given twice is an error, where JSON keeps the last."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.asked: set = set()
        if len(self) < len(pairs):
            seen: set = set()
            twice = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise ConfigurationError(f"key `{twice}` is given twice in one object")

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)


def _check_keys(raw: _Section) -> None:
    """Reject every key the parser did not ask for, in the top level and in
    each section it read; a section it never asked about (the options of
    another subcommand) is not checked."""
    unknown, todo = [], [("", raw)]
    while todo:
        prefix, section = todo.pop()
        unknown += [prefix + key for key in section if key not in section.asked]
        todo += [(f"{prefix}{key}.", val) for key, val in section.items()
                 if key in section.asked and isinstance(val, _Section) and val.asked]
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigurationError(f"missing key `{context}{key}`")
    return mapping[key]


def _object(mapping: dict, key: str, context: str) -> dict:
    val = _require(mapping, key, context)
    if not isinstance(val, dict):
        raise ConfigurationError(f"key `{context}{key}` must be an object")
    return val


def _finite(val, name: str) -> float:
    # `not abs(val) <= max` also rejects NaN, and ints beyond the float range
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= sys.float_info.max:
        raise ConfigurationError(f"key `{name}` must be a finite number, got {val!r}")
    return float(val)


def _number(mapping: dict, key: str, context: str, default=None) -> float:
    if default is not None and key not in mapping:
        return default
    return _finite(_require(mapping, key, context), context + key)


def _list(mapping: dict, key: str, context: str, of: str = "") -> list:
    val = _require(mapping, key, context)
    if not isinstance(val, list) or not val:
        raise ConfigurationError(f"key `{context}{key}` must be a nonempty list{of}")
    return val


def _positive(mapping: dict, key: str, context: str, default=None) -> float:
    val = _number(mapping, key, context, default)
    if val <= 0:
        raise ConfigurationError(f"key `{context}{key}` must be > 0, got {val}")
    return val


def _count(mapping: dict, key: str, context: str, default=None, least: int = 0, most: float = math.inf) -> int:
    val = _number(mapping, key, context, default)
    if val != int(val) or val < least:
        raise ConfigurationError(f"key `{context}{key}` must be an integer >= {least}, got {val}")
    if val > most:
        raise ConfigurationError(
            f"key `{context}{key}` must be at most {most} (a cap on memory), got {val:.12g}")
    return int(val)


def _keyed(keys: str, rule: Callable, *args, errors=(UsageError, ConfigurationError)):
    """rule(*args), a rule of the library whose message names no config key: an `errors` it raises becomes a
    ConfigurationError that begins with `keys`."""
    try:
        return rule(*args)
    except errors as exc:
        raise ConfigurationError(f"{keys}: {exc}") from None


def build_family(spec: dict) -> kernels.KernelFamily:
    name = _require(spec, "family", "family.")
    if name not in ("gaussian_drift", "compound_poisson", "pure_shift"):
        raise ConfigurationError(f"key `family.family` must be one of gaussian_drift, compound_poisson, pure_shift; got {name!r}")
    has_interval, has_list = "lambda_interval" in spec, "lambda_list" in spec
    if has_interval == has_list:
        raise ConfigurationError("`family.` needs exactly one of lambda_interval or lambda_list")
    try:
        if has_interval:
            lo, hi = (_finite(v, "family.lambda_interval") for v in spec["lambda_interval"])
            lset: kernels.LambdaSet = _keyed("`family.lambda_interval`", LambdaInterval, lo, hi)
        else:
            values = _list(spec, "lambda_list", "family.")
            lset = _keyed("`family.lambda_list`", LambdaValues, tuple(_finite(v, "family.lambda_list") for v in values))
        if name == "gaussian_drift":
            return GaussianDrift(lset)
        if name == "pure_shift":
            return PureShift(lset)
        atoms = tuple((_finite(y, "family.jump_atoms"), _finite(w, "family.jump_atoms"))
                      for y, w in _list(spec, "jump_atoms", "family.", " of [offset, weight]"))
        mu = _keyed("`family.jump_atoms`", JumpDistribution, atoms)
        return _keyed("`family.lambda_interval` / `family.lambda_list`", CompoundPoisson, lset, mu)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid `family.` specification: {exc}") from exc


def build_initial(spec: dict, grid: funcspace.Grid) -> Callable[[], GridFunction]:
    """Check the `initial.` section on the grid and return the function that
    evaluates it, which then cannot fail: a bump is finite for finite
    parameters, a Gaussian once 2 sigma^2 is a positive float, and a ramp,
    monotone along the grid, once it is at both end nodes. A CSV is read."""
    kind = _require(spec, "kind", "initial.")
    params = _object(spec, "params", "initial.") if "params" in spec else {}
    if kind == "bump":
        return partial(funcspace.bump, grid, center=_number(params, "center", "initial.params.", 0.0),
                       radius=_positive(params, "radius", "initial.params.", 1.0),
                       height=_number(params, "height", "initial.params.", 1.0))
    if kind == "gaussian":
        center = _number(params, "center", "initial.params.", 0.0)
        sigma = _positive(params, "sigma", "initial.params.", 1.0)
        if not 0.0 < 2.0 * (sigma * sigma) < math.inf:  # the profile's denominator, as it rounds it
            raise ConfigurationError(f"key `initial.params.sigma`: 2 sigma^2 leaves the float range, got {sigma}")
        return partial(funcspace.gaussian_profile, grid, center=center, sigma=sigma,
                       height=_number(params, "height", "initial.params.", 1.0))
    if kind == "ramp":
        slope = _number(params, "slope", "initial.params.", 1.0)
        intercept = _number(params, "intercept", "initial.params.", 0.0)
        if not all(math.isfinite(slope * x + intercept) for x in (grid.lower, float(grid.nodes(grid.n_nodes - 1)[0]))):
            raise ConfigurationError("keys `initial.params.slope` and `intercept`: the ramp leaves the float range")
        return partial(funcspace.ramp, grid, slope=slope, intercept=intercept)
    if kind == "custom_csv":
        path = _require(params, "path", "initial.params.")
        if not isinstance(path, str):
            raise ConfigurationError(f"key `initial.params.path` must be a string, got {path!r}")
        if not Path(path).is_file():
            raise ConfigurationError(f"key `initial.params.path`: file not found: {path}")
        f = _keyed("`initial.params.path`", funcspace.read_csv, path)
        if f.grid != grid:
            raise ConfigurationError("key `initial.params.path`: CSV grid does not match the configured grid")
        return lambda: f
    raise ConfigurationError(f"key `initial.kind` must be one of bump, gaussian, ramp, custom_csv; got {kind!r}")


_OPTION_KEYS = ("generator", "derivative", "ode", "counterexample")


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment configuration.

    Every numeric field is checked against the target module preconditions
    before any computation; errors name the offending key, and so does a key
    the parser does not read.
    """
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:  # a ValueError: bad JSON or text that is not UTF-8; a RecursionError: nesting too deep
        raw = json.loads(cfg_path.read_text(encoding="utf-8"), object_pairs_hook=_Section)
    except ConfigurationError:  # a key given twice
        raise
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")

    gspec = _object(raw, "grid", "")
    grid = _keyed("`grid`", make_grid, _number(gspec, "lower", "grid."), _number(gspec, "upper", "grid."),
                  _count(gspec, "n_nodes", "grid.", least=4, most=_MAX_NODES))  # the difference stencils need 4
    norm = _keyed("`norm.p`", PNorm, _number(_object(raw, "norm", ""), "p", "norm."))
    family = build_family(_object(raw, "family", ""))
    initial = build_initial(_object(raw, "initial", ""), grid)
    tspec = _object(raw, "time", "")
    t = _positive(tspec, "t", "time.")
    tol_rel = _positive(tspec, "tol_rel", "time.", 1e-4)
    n_max = _count(tspec, "n_max", "time.", 12, most=_MAX_LEVEL)
    seed = _count(raw, "seeds", "", 0)
    output_dir = raw["output_dir"] if "output_dir" in raw else "out"
    if not isinstance(output_dir, str):
        raise ConfigurationError("key `output_dir` must be a string")

    options = {k: _object(raw, k, "") for k in _OPTION_KEYS if k in raw}
    _check_keys(raw)
    return ExperimentConfig(
        raw=raw, grid=grid, norm=norm, family=family,
        _initial=initial, t=t, tol_rel=tol_rel, n_max=n_max, seed=seed,
        output_dir=output_dir, options=options,
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def to_json_dict(self) -> dict:
        def finite_or_none(v):
            return v if isinstance(v, float) and math.isfinite(v) else None

        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": finite_or_none(self.measured),
            "tolerance": finite_or_none(self.tolerance),
        }


def _write_json(path: Path, doc: dict) -> None:
    """The one JSON artifact format: sorted keys, two-space indent, final newline."""
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands. Each pre-flight (cfg, scale, stage_ms) parses and range-checks
# the options of its subcommand and prices its work before anything is
# written, and returns the run with those values bound: outdir -> checks,
# which writes the artifacts. `verify` reads `scale`, and the compare runs put
# the time of their stages into `stage_ms`.


def _check_work(cfg: ExperimentConfig, fam: kernels.KernelFamily, keys: str, chains: Callable,
                passes: Callable = lambda: 0) -> None:
    """A ConfigurationError naming `keys` past `_MAX_WORK` predicted node
    operations (see `kernels._Plan`): first an oracle's array `passes()` and
    the one-step suprema of the `chains()` (h, m), each a chain of m steps of
    exactly h planned for `fam` and listed as often as it is made, then the
    step of each chain, largest first. Once all of it fits, the finest h must
    be a normal float: below that, h keeps too few bits for m steps of it to
    add up to m h.
    A rule that `passes()` or `chains()` breaks is the same error."""
    keys = f"`family.lambda_interval` / `family.lambda_list`, `grid`, {keys}"
    try:
        work = passes() * (cfg.grid.n_nodes + kernels._CALL_WORK)
        chains = sorted(chains())
        work += sum(m for _, m in chains) * kernels._CALL_WORK
        if work <= _MAX_WORK:
            for h, m in reversed(chains):
                work += m * envelope._step_plan(fam, h, cfg.grid.dx, cfg.grid.n_nodes).work
                if work > _MAX_WORK:
                    break
            else:
                if not chains[0][0] >= sys.float_info.min:
                    raise UsageError(f"the finest step {chains[0][0]:g} rounds to 0 or below the normal floats")
    except (UsageError, OverflowError) as exc:  # an OverflowError: a window lam*h past the float range
        raise ConfigurationError(f"{keys}: {exc}") from None
    if work > _MAX_WORK:
        raise ConfigurationError(f"{keys} ask for at least {work:.3g} node operations; "
                                 f"at most {_MAX_WORK:.3g} (the work budget)")


_LEVEL_KEYS = "`time.t`, `time.n_max`"


def _check_initial(cfg: ExperimentConfig) -> None:
    """The initial data's L^p norm must be finite and its L^p terms must not underflow, for a pre-flight that reads
    the data: a run resolves differences of samples down to 2^-52 max|f|, so |x|^p dx of that x, and |x|^p before
    it, must be a normal float, or an increment or error sums to 0. f = 0 has no such term."""
    with np.errstate(over="ignore"):  # an overflow is the error reported here
        f_norm = lp_norm(cfg.initial, cfg.norm)
    if not math.isfinite(f_norm):
        raise ConfigurationError("keys `initial` and `norm.p`: the L^p norm of the initial data overflows")
    top, eps, tiny = cfg.initial.max_abs(), math.log2(sys.float_info.epsilon), math.log2(sys.float_info.min)
    if top and cfg.norm.p * (math.log2(top) + eps) + min(0.0, math.log2(cfg.grid.dx)) < tiny:
        raise ConfigurationError(f"keys `initial` and `norm.p`: the L^p term |x|^p dx of x = 2^{eps:g} max|f| = "
                                 f"{top * sys.float_info.epsilon:.3g} underflows below the normal floats")


def _check_direction(cfg: ExperimentConfig, t: float = 1.0) -> None:
    """The supremum generator Bf of the initial data, times t >= 1, must have a finite L^p norm: `generator`
    measures quotients of the size of Bf, and `derivative` also its integral over [0, t] (t = max(1, `time.t`))."""
    try:
        with np.errstate(over="ignore"):  # an overflow is the error reported here
            size = lp_norm(t * kernels.sup_generator(cfg.family, cfg.initial), cfg.norm)
    except UsageError:  # a sample of Bf or t Bf past the float range
        size = math.inf
    if not math.isfinite(size):
        keys = "`family.`, `initial`, `norm.p`" + (", `time.t`" if t > 1.0 else "")
        raise ConfigurationError(f"keys {keys}: the supremum generator Bf of the initial data, times {t:g}, or its "
                                 "L^p norm leaves the float range")


def _envelope(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    _check_initial(cfg)
    # `envelope` certifies against C(t): a UsageError where there is none (one past the floats names its keys)
    _keyed("`family.family`, `norm.p`", kernels.upper_bound_norm_factor, cfg.family, cfg.t, cfg.norm, errors=UsageError)
    # the levels, and C(t)f as one more level-0 step
    _check_work(cfg, cfg.family, _LEVEL_KEYS, lambda: [*envelope._levels(cfg.t, cfg.n_max), (cfg.t, 1)])

    def job(outdir: Path) -> list[CheckResult]:
        res = envelope.nisio_dyadic(cfg.family, cfg.t, cfg.initial, cfg.tol_rel, cfg.n_max, cfg.norm)
        try:  # the certificate: the worst nodewise excess of the final iterate over C(t)f
            margin = _excess(res.final, kernels.upper_bound_C(cfg.family, cfg.t, cfg.initial, cfg.norm))
        except UsageError:  # C(t)f leaves the float range, and nothing is certified
            margin = None
        _write_json(outdir / "envelope_result.json", {**res.to_json_dict(), "upper_bound_margin": margin})
        funcspace.write_csv(res.final, outdir / "final.csv")
        _write_rows_csv(outdir / "convergence.csv", "level,steps,h,increment_lp,norm_lp", res.convergence_rows(cfg.t))
        top = cfg.initial.max_abs()
        tol = 1e-6 * (1.0 + top)
        # exact one-steps (compound Poisson: shared jump powers) make the iterates increase to roundoff,
        # relative to max|f| as J_h(cf) = c J_h f for c > 0; steps resampling translates are monotone
        # only up to the O(dx^2) interpolation commutator
        drop_tol = -1e-9 * top if cfg.family._exact_steps else -(1e-9 + 4.0 * cfg.grid.dx**2 * top)
        worst_drop = min(res.min_increments) if res.min_increments else 0.0
        return [CheckResult("upper_bound_certificate", margin is not None and margin <= tol, margin, tol),
                CheckResult("dyadic_monotone_increase", worst_drop >= drop_tol, worst_drop, drop_tol)]
    return job


def _generator(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    _check_initial(cfg)
    h0, k_steps = 0.1, _count(cfg.options.get("generator", {}), "k_steps", "generator.", 6)
    n = max(cfg.n_max, 2)  # each S(h)f runs to level 2 at least

    def chains():  # smallest h first, each run on the trajectory of the one before
        hs = calculus.geometric_schedule(h0, k_steps)[::-1]
        return [chain for prior, h in zip([None, *hs], hs) for chain in envelope._levels(h, n, prior)]

    _check_work(cfg, cfg.family, "`generator.k_steps`, `time.n_max`", chains)
    _check_direction(cfg)

    def job(outdir: Path) -> list[CheckResult]:
        est = calculus.generator_fd(cfg.family, cfg.initial, h0, k_steps, cfg.tol_rel, cfg.n_max, cfg.norm)
        _write_rows_csv(outdir / "generator.csv", "h,error_lp", list(zip(est.h_schedule, est.errors_vs_B)))
        decreasing = all(b < a for a, b in zip(est.errors_vs_B, est.errors_vs_B[1:]))
        final_ratio = est.errors_vs_B[-1] / max(est.errors_vs_B[0], 1e-300)
        return [CheckResult("generator_errors_decreasing", decreasing, final_ratio, 1.0),
                CheckResult("generator_final_error_ratio", final_ratio <= 0.1, final_ratio, 0.1)]
    return job


def _derivative(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    _check_initial(cfg)
    opts = cfg.options.get("derivative", {})
    quad_nodes = _count(opts, "quad_nodes", "derivative.", 33)
    path_steps = _keyed("`derivative.quad_nodes`", calculus._integral_path, quad_nodes, cfg.n_max)[1]
    t, h = cfg.t, calculus.QUOTIENT_STEP  # h: the forward quotient's step
    _check_work(cfg, cfg.family, "`derivative.quad_nodes`, " + _LEVEL_KEYS,  # S(t) thrice, S(t + h), two paths
                lambda: [envelope._level(t, cfg.n_max)] * 3 + [envelope._level(t + h, cfg.n_max)]
                + [(t / path_steps, path_steps)] * 2)
    _check_direction(cfg, max(t, 1.0))
    identity_tol, integral_tol = 5e-2, 2e-2

    def job(outdir: Path) -> list[CheckResult]:
        gaps = calculus.derivative_identity_check(cfg.family, t, cfg.initial, cfg.norm, cfg.n_max)
        deviation = calculus.integral_identity_check(cfg.family, t, cfg.initial, quad_nodes, cfg.norm, cfg.n_max)
        worst_gap = max(gaps.values())
        doc = {"t": t, "gaps": gaps, "integral_deviation": deviation, "integral_path_steps": path_steps,
               "identity_tol": identity_tol, "integral_tol": integral_tol,
               "pass": bool(worst_gap <= identity_tol and deviation <= integral_tol)}
        _write_json(outdir / "derivative_report.json", doc)
        return [CheckResult("derivative_identity_gaps", worst_gap <= identity_tol, worst_gap, identity_tol),
                CheckResult("integral_identity_deviation", deviation <= integral_tol, deviation, integral_tol)]
    return job


def _compare(cfg: ExperimentConfig, stage_ms: dict, name: str, check: str, tol: float, oracle: Callable) -> Callable:
    """The run that compares the envelope with the oracle solution `oracle()`, written as `<name>.csv`, over the
    window of `reference.compare` and passes at a relative error of at most tol; it puts the time of each into
    `stage_ms` as the spans `envelope` and `oracle`."""
    def job(outdir: Path) -> list[CheckResult]:
        t0 = time.perf_counter()
        res = envelope.nisio_dyadic(cfg.family, cfg.t, cfg.initial, cfg.tol_rel, cfg.n_max, cfg.norm)
        t1 = time.perf_counter()
        solution = oracle()
        stage_ms.update(envelope=(t1 - t0) * 1000.0, oracle=(time.perf_counter() - t1) * 1000.0)
        comp = reference.compare(res.final, solution, cfg.norm)
        _write_json(outdir / "comparison.json", comp.to_json_dict())
        funcspace.write_csv(res.final, outdir / "envelope.csv")
        funcspace.write_csv(solution, outdir / f"{name}.csv")
        return [CheckResult(check, comp.rel_err <= tol, comp.rel_err, tol)]
    return job


def _compare_hjb(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    _check_initial(cfg)
    lams = cfg.family.lambda_set.candidates  # increasing: a list has the supremum generator of its hull
    _check_work(cfg, cfg.family, _LEVEL_KEYS, lambda: envelope._levels(cfg.t, cfg.n_max),
                lambda: reference._upwind_passes(cfg.t, cfg.grid.dx, cfg.family.lambda_set.sup_abs, reference._CFL))
    return _compare(cfg, stage_ms, "hjb", "envelope_vs_hjb_rel_l2", 5e-2,
                    lambda: reference.hjb_upwind(cfg.initial, cfg.t, lams[0], lams[-1]))


def _compare_ode(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    _check_initial(cfg)
    dt = _positive(cfg.options.get("ode", {}), "dt", "ode.", 1e-3)
    _check_work(cfg, cfg.family, _LEVEL_KEYS + ", `ode.dt`", lambda: envelope._levels(cfg.t, cfg.n_max),
                lambda: reference._rk4_passes(cfg.family, cfg.t, dt))
    return _compare(cfg, stage_ms, "ode", "envelope_vs_ode_rel_lp", 1e-2,
                    lambda: reference.ode_reference(cfg.family, cfg.initial, cfg.t, dt))


def _counterexample(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    opts = cfg.options.get("counterexample", {})
    t = _number(opts, "t", "counterexample.", min(cfg.t, 0.5))
    epsilons = ([_finite(e, "counterexample.epsilons") for e in _list(opts, "epsilons", "counterexample.")]
                if "epsilons" in opts else None)
    keys = "`counterexample.t`, `counterexample.epsilons`"
    epsilons = _keyed(keys, reference.scan_epsilons, cfg.grid, t, epsilons)
    _check_work(cfg, reference._SCAN_FAMILY, keys,
                lambda: [(t, 1)] * len(epsilons), lambda: len(epsilons) * reference._SCAN_PASSES)

    def job(outdir: Path) -> list[CheckResult]:
        table = reference.counterexample_scan(cfg.grid, cfg.norm.p, t, epsilons)
        _write_rows_csv(outdir / "scan.csv", "epsilon,norm_lp", table)
        ratios = [b / a for (_, a), (_, b) in zip(table, table[1:])]  # at least one: see `scan_epsilons`
        return [CheckResult("counterexample_norm_growth", all(r >= 1.5 for r in ratios), min(ratios), 1.5)]
    return job


def _verify(cfg: ExperimentConfig, scale: str, stage_ms: dict) -> Callable:
    """Every registered invariant in order, then the Lipschitz, directional and growth probes of the drift family,
    all on one context (the probes seed their own generator)."""
    if scale not in _SCALES:
        raise ConfigurationError(f"scale must be {' or '.join(_SCALES)}, got {scale!r}")

    def job(outdir: Path) -> list[CheckResult]:
        ctx = _verify_context(scale, cfg.seed)
        checks = [check for inv in _INVARIANTS for check in inv.run(ctx)]
        fam, f0, norm, t = ctx.gauss, ctx.f0, ctx.norm, 0.25
        lip = calculus.lipschitz_probe(fam, t, f0, 1.0, 8 if scale == "small" else 24, ctx.tol_rel, ctx.n_max, norm,
                                       seed=cfg.seed)
        probe = calculus.directional_derivative(
            fam, t, f0, kernels.sup_generator(fam, f0), calculus.geometric_schedule(0.1, 3), norm, ctx.n_max)
        M, omega = calculus.growth_bound_estimate(fam, [0.125, 0.25, 0.5], [f0], ctx.tol_rel, ctx.n_max, norm)
        quotient_monotone = probe.monotonicity_violation <= calculus.QUOTIENT_TOL
        passed = bool(lip.lemma_ok and quotient_monotone and math.isfinite(lip.L))
        _write_json(outdir / "probes.json", {"t": t, "gap": probe.gap, "L_estimate": lip.L, "M": M, "omega": omega,
                                             "pass": passed})
        # sublinear + bounded gives a global Lipschitz cap 2||S(t)||_1, and the
        # operator norm is dominated by the norm growth of C(t)
        lip_cap = 2.0 * kernels.upper_bound_norm_factor(fam, t, ctx.norm)
        checks.append(CheckResult("calculus.sampled_probes", passed and lip.L <= lip_cap, lip.L, lip_cap))
        return checks
    return job


@dataclass(frozen=True)
class _Subcommand:
    preflight: Callable
    family: str | None  # the `family.family` its oracle needs
    artifacts: tuple  # the files it writes besides report.json and timings.json


SUBCOMMANDS = {
    # dyadic envelope run + upper-bound certificate
    "envelope": _Subcommand(_envelope, None, ("envelope_result.json", "final.csv", "convergence.csv")),
    # difference-quotient table against the supremum generator
    "generator": _Subcommand(_generator, None, ("generator.csv",)),
    # derivative + integral identity checks
    "derivative": _Subcommand(_derivative, None, ("derivative_report.json",)),
    # envelope vs. the upwind PDE oracle
    "compare-hjb": _Subcommand(_compare_hjb, "gaussian_drift", ("comparison.json", "envelope.csv", "hjb.csv")),
    # envelope vs. the RK4 integrator
    "compare-ode": _Subcommand(_compare_ode, "compound_poisson", ("comparison.json", "envelope.csv", "ode.csv")),
    # blow-up scan for the uncertain shift family
    "counterexample": _Subcommand(_counterexample, None, ("scan.csv",)),
    # the full invariant suite at small or full scale
    "verify": _Subcommand(_verify, None, ("probes.json",)),
}


def _preflight(cfg: ExperimentConfig, subcommand: str, scale: str, stage_ms: dict) -> Callable:
    """Check the family the oracle of `subcommand` needs, then run its pre-flight."""
    sub = SUBCOMMANDS[subcommand]
    if sub.family not in (None, cfg.raw["family"]["family"]):
        raise ConfigurationError(f"key `family.family`: {subcommand} needs {sub.family}")
    return sub.preflight(cfg, scale, stage_ms)


def run(subcommand: str, config_path, out_dir=None, seed=None, scale: str = "small") -> int:
    """Execute one subcommand; returns the process exit code (0/1/2)."""
    if subcommand not in SUBCOMMANDS:
        print(f"configuration error: unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    stage_ms = {}  # the spans a handler times within its run, next to the subcommand's total
    try:  # the one place where a rule broken by the config becomes exit 2
        cfg = load_config(config_path)
        if out_dir is not None:
            cfg.output_dir = str(out_dir)
        if seed is not None:
            cfg.seed = _count({"seed": seed}, "seed", "--")
        job = _preflight(cfg, subcommand, scale, stage_ms)
        _check_keys(cfg.raw)
        outdir = Path(cfg.output_dir)
        taken = [name for name in ("report.json", "timings.json", *SUBCOMMANDS[subcommand].artifacts)
                 if (outdir / name).is_dir()]
        if taken:
            raise ConfigurationError(f"key `output_dir` / `--out`: {outdir} holds a directory where a file is written: "
                                     f"{', '.join(taken)}")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # the path is, or runs through, a file
            raise ConfigurationError(f"key `output_dir` / `--out`: cannot make the directory: {exc}") from None
    except (ConfigurationError, UsageError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    checks = job(outdir)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    passed = all(c.passed for c in checks)
    echo = {k: v for k, v in cfg.raw.items() if k != "output_dir"}
    _write_json(outdir / "report.json", {"subcommand": subcommand, "config": {**echo, "seeds": cfg.seed},
                                         "checks": [c.to_json_dict() for c in checks],
                                         "provenance": {"version": __version__, "seed": cfg.seed}, "passed": passed})
    _write_json(outdir / "timings.json", {"stage_ms": {subcommand: elapsed_ms, **stage_ms}})
    n_pass = sum(1 for c in checks if c.passed)
    print(f"[{subcommand}] {'PASS' if passed else 'FAIL'} ({n_pass}/{len(checks)} checks) -> {outdir}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Verification suite: one ordered registry of invariants. `verify` runs
# every entry in order on one shared context; the tests run each entry on a
# context of its own.


def monotone_stepper_violation(stepper, grid: funcspace.Grid, rng, pairs: int, dt: float, steps: int) -> float:
    """Worst order violation of an explicit stepper on random ordered pairs.

    The stepper maps (samples, dt, dx) to new samples; a monotone scheme
    keeps f0 <= g0 ordered, so the returned violation is <= 0 up to roundoff.
    """
    worst = -math.inf
    for _ in range(pairs):
        f = _random_smooth(grid, rng).samples
        g = f + np.abs(_random_smooth(grid, rng).samples)
        for _ in range(steps):
            f = stepper(f, dt, grid.dx)
            g = stepper(g, dt, grid.dx)
        worst = max(worst, float(np.max(f - g)))
    return worst


def _verify_context(scale: str, seed: int) -> SimpleNamespace:
    """What the invariants and the sampled probes share: grid, norm, seeded
    generator, repetitions, the drift and compound Poisson test families, the
    bump f0, and the calculus probes' tol_rel and n_max (the fixed level of the quotients)."""
    grid, norm = make_grid(-8.0, 8.0, 257 if scale == "small" else 1025), PNorm(2.0)
    return SimpleNamespace(
        scale=scale, grid=grid, norm=norm, rng=np.random.default_rng(seed),
        reps=20 if scale == "small" else 100, gauss=GaussianDrift(LambdaInterval(-1.0, 1.0)),
        cp=CompoundPoisson(LambdaValues((0.0, 1.0)), JumpDistribution(((1.0, 1.0),))),
        f0=funcspace.bump(grid, radius=1.0), tol_rel=1e-4, n_max=4)


@dataclass(frozen=True)
class _Invariant:
    """A measure of the context and the (name, tolerance) checks it feeds.

    The measure returns one value per check, which passes when it is <= the
    tolerance; a tolerance may be a function of the context. A verdict
    measure returns pass/fail instead, reported as measured 0.0.
    """

    measure: Callable
    checks: tuple
    verdict: bool

    def run(self, ctx) -> list[CheckResult]:
        out = []
        for (name, tol), value in zip(self.checks, self.measure(ctx), strict=True):
            tol = float(tol(ctx) if callable(tol) else tol)
            out.append(CheckResult(name, bool(value), 0.0, tol) if self.verdict
                       else CheckResult(name, bool(value <= tol), float(value), tol))
        return out


_INVARIANTS: list[_Invariant] = []  # in the order `verify` runs them


def _invariant(*checks, verdict: bool = False):
    def register(measure):
        _INVARIANTS.append(_Invariant(measure, checks, verdict))
        return measure
    return register


def _excess(f: GridFunction, g: GridFunction) -> float:
    """max(f - g) over the nodes: <= 0 exactly when f <= g."""
    return float(np.max(f.samples - g.samples))


def _rel_lp(diff: GridFunction, ref: GridFunction, norm: PNorm) -> float:
    return lp_norm(diff, norm) / max(lp_norm(ref, norm), 1e-300)


# funcspace: interpolation order and linearity, norm scaling, the lattice max


@_invariant(("funcspace.interp_shift_monotone", 0.0), ("funcspace.interp_shift_linear_ulps", 4.0))
def _interp_shift_order_and_linearity(ctx):
    worst, lin = -math.inf, 0.0
    for _ in range(ctx.reps):
        f = _random_smooth(ctx.grid, ctx.rng)
        g = f + abs(_random_smooth(ctx.grid, ctx.rng))
        d = ctx.rng.uniform(-2, 2)
        worst = max(worst, _excess(funcspace.interp_shift(f, d), funcspace.interp_shift(g, d)))
        a, b = ctx.rng.uniform(-2, 2, size=2)
        combo = funcspace.interp_shift(a * f + b * g, d)
        split = a * funcspace.interp_shift(f, d) + b * funcspace.interp_shift(g, d)
        scale_arr = (abs(a) * funcspace.interp_shift(abs(f), d)
                     + abs(b) * funcspace.interp_shift(abs(g), d)).samples
        lin = max(lin, float(np.max(np.abs(combo.samples - split.samples) / (4.0 * np.spacing(scale_arr + 1e-300)))))
    return worst, lin


@_invariant(("funcspace.interp_shift_ramp_exact", 1e-12))
def _interp_shift_ramp_exact(ctx):
    # linear interpolation is exact on a ramp, and a ramp is not symmetric
    # under x -> -x as every other invariant is: this fixes the shift direction
    ramp, sl = funcspace.ramp(ctx.grid), ctx.grid.interior_slice(0.25)
    return (max(float(np.max(np.abs(funcspace.interp_shift(ramp, d).samples - (ramp.samples + d))[sl]))
                for d in (0.3, -0.3)),)


@_invariant(("funcspace.norm_scaling", 1e-12), ("funcspace.max_permutation_bitexact", 0.0),
            ("funcspace.max_least_upper_bound", 0.0))
def _norm_scaling_and_max_lattice(ctx):
    f, c, norm = _random_smooth(ctx.grid, ctx.rng), 3.7, ctx.norm
    scaling = abs(lp_norm(c * f, norm) - abs(c) * lp_norm(f, norm)) / max(abs(c) * lp_norm(f, norm), 1e-300)
    fs = [_random_smooth(ctx.grid, ctx.rng) for _ in range(5)]
    m_all = pointwise_max(fs)
    perm = pointwise_max([fs[i] for i in (3, 1, 4, 0, 2)])
    return (scaling, 0.0 if np.array_equal(m_all.samples, perm.samples) else 1.0,
            _excess(pointwise_max(fs[:-1]), m_all))


# kernels: linearity, monotonicity, mass conservation, domination, C flow


@_invariant(("kernels.apply_member_linear", 1e-10), ("kernels.apply_member_monotone", 0.0),
            ("kernels.mass_conservation_interior", 1e-10))
def _member_linear_monotone_mass(ctx):
    # the mass check's interior margin of 4 units must exceed the operator
    # reach, so the compound Poisson family here uses quarter-unit jumps
    grid, rng = ctx.grid, ctx.rng
    cp_small = CompoundPoisson(LambdaValues((0.0, 1.0)), JumpDistribution(((0.25, 1.0),)))
    lin = worst = mass = 0.0
    for fam, lam, t in ((ctx.gauss, 0.7, 0.25), (cp_small, 1.0, 0.25)):
        fa, fb = _random_smooth(grid, rng), _random_smooth(grid, rng)
        a, b = 1.3, -0.4
        combo = kernels.apply_member(fam, lam, t, a * fa + b * fb)
        split = a * kernels.apply_member(fam, lam, t, fa) + b * kernels.apply_member(fam, lam, t, fb)
        lin = max(lin, _rel_lp(combo - split, split, ctx.norm))
        g = fa + abs(_random_smooth(grid, rng))
        worst = max(worst, _excess(kernels.apply_member(fam, lam, t, fa), kernels.apply_member(fam, lam, t, g)))
        moved = kernels.apply_member(fam, lam, t, GridFunction(grid, np.ones(grid.n_nodes)))
        mass = max(mass, float(np.max(np.abs(moved.samples[grid.interior_slice(0.25)] - 1.0))))
    return lin, worst, mass


@_invariant(("kernels.member_below_C", 1e-9), ("kernels.C_flow_property", 1e-6))
def _C_dominates_and_flows(ctx):
    dom, flow, f0, norm = -math.inf, 0.0, ctx.f0, ctx.norm
    for fam, lams in ((ctx.gauss, ctx.gauss.lambda_set.samples(5)), (ctx.cp, ctx.cp.lambda_set.values)):
        bound = kernels.upper_bound_C(fam, 0.25, f0, norm)
        dom = max(dom, *(_excess(kernels.apply_member(fam, float(lam), 0.25, f0), bound) for lam in lams))
        two = kernels.upper_bound_C(fam, 0.1, kernels.upper_bound_C(fam, 0.15, f0, norm), norm)
        flow = max(flow, _rel_lp(two - bound, bound, norm))
    return dom, flow


@_invariant(("kernels.member_semigroup_refines", 1.0))
def _member_semigroup_refines(ctx):
    errs = []
    for n_nodes in (257, 513):
        fb = funcspace.bump(make_grid(-8.0, 8.0, n_nodes), radius=1.0)
        lhs = kernels.apply_member(ctx.gauss, 0.5, 0.3, fb)
        rhs = kernels.apply_member(ctx.gauss, 0.5, 0.18, kernels.apply_member(ctx.gauss, 0.5, 0.12, fb))
        errs.append(lp_norm(lhs - rhs, ctx.norm))
    return (errs[1] / max(errs[0], 1e-300),)


@_invariant(("kernels.sup_generator_in_lp", 1.0), ("kernels.C_boundary_mass_decay", 1.0), verdict=True)
def _generator_in_lp_and_C_mass_decay(ctx):
    # the supremum generator lands in L^p (finite norm) for smooth compact
    # data, and the upper-bound mass outside an enlarged support is o(h)
    in_lp = math.isfinite(lp_norm(kernels.sup_generator(ctx.gauss, ctx.f0), ctx.norm))
    decay = []
    for h in (0.2, 0.1, 0.05):
        outside = kernels.upper_bound_C(ctx.gauss, h, ctx.f0, ctx.norm).samples.copy()
        outside[np.abs(ctx.grid.nodes()) <= 2.0] = 0.0
        decay.append(lp_norm(GridFunction(ctx.grid, outside), ctx.norm) ** ctx.norm.p / h)
    return in_lp, decay[2] < decay[1] < decay[0]


# envelope: monotone/convex/homogeneous steps, refinement, no exceedance, singleton step


@_invariant(("envelope.step_monotone", 0.0), ("envelope.step_convex", 1e-10), ("envelope.step_homogeneous", 1e-10))
def _step_monotone_convex_homogeneous(ctx):
    def J(f):
        return envelope.step_J(ctx.gauss, 0.2, f)

    worst = conv = hom = 0.0
    for _ in range(ctx.reps):
        fa = _random_smooth(ctx.grid, ctx.rng)
        fb = fa + abs(_random_smooth(ctx.grid, ctx.rng))
        worst = max(worst, _excess(J(fa), J(fb)))
        alpha = ctx.rng.uniform(0.1, 0.9)
        conv = max(conv, _excess(J(alpha * fa + (1 - alpha) * fb), alpha * J(fa) + (1 - alpha) * J(fb)))
        cpos = ctx.rng.uniform(0.2, 3.0)
        scaled = J(cpos * fa)
        hom = max(hom, _rel_lp(scaled - cpos * J(fa), scaled, ctx.norm))
    return worst, conv, hom


@_invariant(("envelope.refinement_monotone_cp", 1e-9),
            ("envelope.random_partition_no_exceedance", lambda ctx: 1e-4 * lp_norm(ctx.f0, ctx.norm)),
            ("envelope.singleton_step_bitexact", 0.0))
def _envelope_construction(ctx):
    # nested partitions increase the iterates (compound Poisson composes
    # exactly), no partition exceeds the dyadic envelope, and the one-step
    # supremum of a one-member family is that member
    nested = -math.inf
    for _ in range(ctx.reps):
        times = np.sort(ctx.rng.choice(np.arange(1, 16), size=4, replace=False)) * (0.5 / 16.0)
        pi1 = envelope.Partition((0.0, *times.tolist()))
        extra = np.sort(ctx.rng.choice(np.arange(1, 16), size=3, replace=False)) * (0.5 / 16.0)
        pi2 = envelope.Partition(tuple(sorted({*pi1.times, *extra.tolist()})))
        nested = max(nested, _excess(envelope.apply_partition(ctx.cp, pi1, ctx.f0),
                                     envelope.apply_partition(ctx.cp, pi2, ctx.f0)))
    res = envelope.nisio_dyadic(ctx.gauss, 0.5, ctx.f0, 1e-4, 6, ctx.norm)
    exceed = -math.inf
    for _ in range(ctx.reps):
        times = np.sort(ctx.rng.uniform(0.0, 0.5, size=int(ctx.rng.integers(1, 8))))
        pi = envelope.Partition((0.0, *[float(v) for v in times if v > 1e-3], 0.5))
        exceed = max(exceed, _excess(envelope.apply_partition(ctx.gauss, pi, ctx.f0), res.final))
    single = GaussianDrift(LambdaValues((0.4,)))
    direct = kernels.apply_member(single, 0.4, 0.3, ctx.f0)
    return nested, exceed, 0.0 if np.array_equal(envelope.step_J(single, 0.3, ctx.f0).samples, direct.samples) else 1.0


@_invariant(("envelope.equivalent_generators_converge", 1.0 / 16.0))
def _equivalent_generators_converge(ctx):
    # the members' generators are affine in lam, so the lists {0.2, 3} and
    # {0.2, 1.6, 3} have one supremum generator, hence one envelope: the gap
    # of their iterates falls at first order, 16x from level 2 to level 6
    # (82x measured). Levels between are not gated: with lam in [0, 1] the
    # gap can reach exactly 0 at one level and not at the next
    f, mu = funcspace.bump(make_grid(-8.0, 8.0, 257), radius=1.0), JumpDistribution(((1.0, 1.0),))
    ends, three = (CompoundPoisson(LambdaValues(lams), mu) for lams in ((0.2, 3.0), (0.2, 1.6, 3.0)))
    gaps = [lp_norm(calculus._S(ends, 1.0, f, level) - calculus._S(three, 1.0, f, level), ctx.norm)
            for level in (2, 6)]
    return (gaps[1] / max(gaps[0], 1e-300),)


# calculus: quotient orderings and scaling


@_invariant(("calculus.plus_quotient_monotone", calculus.QUOTIENT_TOL),
            ("calculus.minus_below_plus", calculus.QUOTIENT_TOL), ("calculus.quotient_scaling", 1e-10))
def _quotient_orderings_and_scaling(ctx):
    schedule = calculus.geometric_schedule(0.2, 3)
    worst = gap = 0.0
    for _ in range(max(3, ctx.reps // 4)):
        x = _random_smooth(ctx.grid, ctx.rng)
        y = _random_smooth(ctx.grid, ctx.rng)
        probe = calculus.directional_derivative(ctx.gauss, 0.25, x, y, schedule, ctx.norm, ctx.n_max)
        worst = max(worst, probe.monotonicity_violation)
        gap = max(gap, _excess(probe.minus, probe.plus))
    f0, c = ctx.f0, 2.5
    q1 = (calculus._S(ctx.gauss, 0.2, f0, 3) - f0) / 0.2
    qc = (calculus._S(ctx.gauss, 0.2, c * f0, 3) - c * f0) / 0.2
    return worst, gap, _rel_lp(qc - c * q1, qc, ctx.norm)


# reference: monotone upwind scheme, interior constants, scan growth


@_invariant(("reference.hjb_monotone", 1e-12), ("reference.hjb_constants_interior", 1e-12))
def _hjb_monotone_and_constants(ctx):
    viol = monotone_stepper_violation(lambda u, dt, dx: reference.hjb_step(u, dt, dx, -1.0, 1.0), ctx.grid,
                                      ctx.rng, max(5, ctx.reps // 4), dt=0.4 * ctx.grid.dx**2, steps=20)
    sol = reference.hjb_upwind(GridFunction(ctx.grid, np.ones(ctx.grid.n_nodes)), 0.01, -1.0, 1.0)
    return viol, float(np.max(np.abs(sol.samples[ctx.grid.interior_slice(0.25)] - 1.0)))


@_invariant(("reference.scan_norms_increase", 1.0), verdict=True)
def _scan_norms_increase(ctx):
    scan_grid = make_grid(-2.0, 2.0, 8001 if ctx.scale == "small" else 80001)
    eps_list = [0.1, 0.01] if ctx.scale == "small" else [0.1, 0.01, 0.001]
    table = reference.counterexample_scan(scan_grid, 2.0, 0.5, eps_list)
    return (all(b > a for (_, a), (_, b) in zip(table, table[1:])),)


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="nisioenv", description="Semigroup envelopes of convolution families on a discretized L^p line.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    parser.add_argument("--scale", choices=_SCALES, default="small")
    args = parser.parse_args(argv)
    sys.exit(run(args.subcommand, args.config, out_dir=args.out, seed=args.seed, scale=args.scale))


if __name__ == "__main__":
    main()
