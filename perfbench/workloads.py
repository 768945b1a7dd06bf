"""Seeded job lists for the four benchmark workloads.

A job is one in-process call of ``nisioenv.cli.run(subcommand, config,
out_dir=...)``. Every workload runs its shipped config from ``configs/``
verbatim, plus variants drawn from the ``--seed`` argument. Variants change
only the shape of the inputs (centre, width, height, drift radius, jump
offsets and weights, norm exponent, epsilon ladder); the grid, the time
block and the number of members, atoms and levels are fixed per slot, so
the work a job does is the same for every seed and timings compare across
seeds. The known defects stay visible: the shipped ``generator`` gate FAILs
(final/initial error ratio 0.184 against 0.1) and the shipped ``compare-ode``
run reports PASS without converging (increment 1.1e-3 against tol_rel 1e-6).

Only the standard library is used here, so run.py can import this file
before numpy is loaded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Why each workload exists (also the `why` strings of BENCHMARK.json).
WHY = {
    "gauss-hjb": "core Nisio path: Gaussian drift envelope, HJB oracle and verify; heat kernels at dyadic levels 0-10, both window-sup branches",
    "poisson-ode": "compound Poisson: interval jobs rebuild the Poisson series 11x per step, list jobs bypass it; RK4 oracle",
    "calculus-identities": "derivative and generator identities: thousands of short fixed-level chains over nested horizons, repeated (h, dx) heat kernels, no oracle",
    "shift-blowup": "pure-shift blow-up scan on 2.4M nodes: 19 MB arrays, lp_norm and the large window supremum",
}

# File each subcommand writes that the correctness digest covers, next to
# report.json.
PRIMARY_ARTIFACT = {
    "envelope": "final.csv",
    "compare-hjb": "envelope.csv",
    "compare-ode": "envelope.csv",
    "counterexample": "scan.csv",
    "derivative": "derivative_report.json",
    "generator": "generator.csv",
    "verify": "probes.json",
}

# File holding the workload's reference error, and the key inside it.
REFERENCE_ERROR = {
    "compare-hjb": ("comparison.json", "rel_err"),
    "compare-ode": ("comparison.json", "rel_err"),
    "derivative": ("derivative_report.json", "integral_deviation"),
}

# Gaussian variants run every level up to n_max: tol_rel is below the
# level-10 increment, so the cost does not depend on where a shape converges.
_GAUSS_TIME = {"t": 0.5, "tol_rel": 1e-6, "n_max": 10}


@dataclass(frozen=True)
class Job:
    name: str          # stable within a workload, e.g. "v1-bump/envelope"
    subcommand: str
    config: str        # path of the config file, relative to the checkout
    scale: str = "small"


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _weights(rng: random.Random, k: int) -> list[float]:
    raw = [rng.uniform(1.0, 3.0) for _ in range(k)]
    head = [round(w / sum(raw), 4) for w in raw[:-1]]
    return head + [round(1.0 - sum(head), 10)]


def _gauss_variants(rng: random.Random, base: dict) -> dict[str, dict]:
    out = {}
    for slot, kind in (("v1-bump", "bump"), ("v2-list", "gaussian")):
        cfg = json.loads(json.dumps(base))
        a = _u(rng, 0.5, 1.5)
        if slot == "v2-list":
            cfg["family"] = {"family": "gaussian_drift", "lambda_list": [-a, a]}
        else:
            cfg["family"] = {"family": "gaussian_drift", "lambda_interval": [-a, a]}
        centre = _u(rng, -1.5, 1.5)
        if kind == "bump":
            params = {"center": centre, "radius": _u(rng, 0.7, 1.6), "height": _u(rng, 0.5, 2.0)}
        else:
            params = {"center": centre, "sigma": _u(rng, 0.4, 1.0), "height": _u(rng, 0.5, 2.0)}
        cfg["initial"] = {"kind": kind, "params": params}
        cfg["time"] = dict(_GAUSS_TIME)
        out[slot] = cfg
    return out


def _poisson_variants(rng: random.Random, base: dict) -> dict[str, dict]:
    out = {}
    for slot, lkind, atoms in (("v1-interval", "lambda_interval", 1), ("v2-list", "lambda_list", 2),
                               ("v3-interval", "lambda_interval", 2), ("v4-list", "lambda_list", 3)):
        cfg = json.loads(json.dumps(base))
        offsets = [_u(rng, 0.3, 1.5) * rng.choice((-1.0, 1.0)) for _ in range(atoms)]
        cfg["family"] = {"family": "compound_poisson", lkind: [0.0, 1.0],
                         "jump_atoms": [[y, w] for y, w in zip(offsets, _weights(rng, atoms))]}
        cfg["initial"] = {"kind": "bump", "params": {
            "center": _u(rng, -2.0, 2.0), "radius": _u(rng, 0.7, 1.5), "height": _u(rng, 0.5, 2.0)}}
        cfg["time"]["n_max"] = 7
        out[slot] = cfg
    return out


def _calculus_gauss(rng: random.Random, base: dict) -> dict:
    cfg = json.loads(json.dumps(base))
    cfg["initial"] = {"kind": "bump", "params": {
        "center": _u(rng, -1.0, 1.0), "radius": _u(rng, 0.8, 1.3), "height": 1.0}}
    cfg["time"]["n_max"] = 6
    return cfg


def _calculus_cp(rng: random.Random, base: dict) -> dict:
    cfg = json.loads(json.dumps(base))
    cfg["family"] = {"family": "compound_poisson", "lambda_interval": [0.0, 1.0],
                     "jump_atoms": [[_u(rng, 0.5, 1.2), 1.0]]}
    cfg["initial"] = {"kind": "bump", "params": {
        "center": _u(rng, -1.0, 1.0), "radius": _u(rng, 0.8, 1.4), "height": 1.0}}
    cfg["time"] = {"t": 0.5, "tol_rel": 1e-4, "n_max": 4}
    return cfg


def _shift_variant(rng: random.Random, base: dict) -> dict:
    cfg = json.loads(json.dumps(base))
    # p stays off 1 and 2 (lp_norm fast paths) and below ~2, where the
    # norm ratio per decade stays above the 1.5 growth gate
    cfg["norm"] = {"p": _u(rng, 1.25, 1.75)}
    eps0 = _u(rng, 0.01, 0.04)
    cfg["counterexample"] = {"t": 0.5, "epsilons": [eps0 * 10.0**-k for k in range(4)]}
    return cfg


def _shrink(cfg: dict, workload: str) -> dict:
    """Tiny-size copy of a config for the smoke test: same code paths."""
    cfg = json.loads(json.dumps(cfg))
    if workload == "shift-blowup":
        cfg["grid"]["n_nodes"] = 4001
        cfg["counterexample"]["epsilons"] = [0.1, 0.01]
        return cfg
    cfg["grid"]["n_nodes"] = 257
    cfg["time"]["n_max"] = min(cfg["time"]["n_max"], 3)
    cfg["derivative"] = {"quad_nodes": 3}
    cfg["generator"] = {"k_steps": 2}
    if "ode" in cfg:
        cfg["ode"] = {"dt": 1e-2}
    return cfg


def _configs(workload: str, seed: int, root: Path) -> dict[str, tuple[dict | None, Path | None]]:
    """Config name -> (generated config, or None with the shipped path)."""
    rng = random.Random(f"{workload}/{seed}")
    configs = root / "configs"
    if workload == "gauss-hjb":
        path = configs / "envelope_gaussian.json"
        variants = _gauss_variants(rng, json.loads(path.read_text()))
    elif workload == "poisson-ode":
        path = configs / "compare_ode_compound_poisson.json"
        variants = _poisson_variants(rng, json.loads(path.read_text()))
    elif workload == "calculus-identities":
        path = configs / "envelope_gaussian.json"
        cp_base = json.loads((configs / "compare_ode_compound_poisson.json").read_text())
        variants = {"gauss-l6": _calculus_gauss(rng, json.loads(path.read_text())),
                    "cp-interval": _calculus_cp(rng, cp_base)}
    elif workload == "shift-blowup":
        path = configs / "counterexample_shift.json"
        variants = {"v1-eps-p": _shift_variant(rng, json.loads(path.read_text()))}
    else:
        raise KeyError(workload)
    out: dict[str, tuple[dict | None, Path | None]] = {"shipped": (None, path)}
    out.update({name: (cfg, None) for name, cfg in variants.items()})
    return out


SUBCOMMANDS = {
    "gauss-hjb": {"shipped": ("envelope", "compare-hjb", "verify"), "*": ("envelope", "compare-hjb")},
    "poisson-ode": {"*": ("envelope", "compare-ode")},
    "calculus-identities": {"shipped": ("generator",), "*": ("derivative", "generator")},
    "shift-blowup": {"*": ("counterexample",)},
}


def build_jobs(workload: str, seed: int, root: Path, work: Path, tiny: bool = False) -> list[Job]:
    """Write the workload's configs under `work` and return its job list.

    Shipped configs are referenced in place, unmodified (unless `tiny`).
    Paths in the returned jobs are relative to `root`, the checkout.
    """
    work.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, (cfg, shipped) in _configs(workload, seed, root).items():
        if tiny:
            cfg = _shrink(cfg if cfg is not None else json.loads(shipped.read_text()), workload)
            shipped = None
        if shipped is not None:
            path = shipped
        else:
            path = work / f"{name}.json"
            path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")
        subs = SUBCOMMANDS[workload]
        for sub in subs.get(name, subs["*"]):
            jobs.append(Job(f"{name}/{sub}", sub, str(path.relative_to(root))))
    return jobs
