import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nisioenv import cli, envelope, funcspace, kernels
from nisioenv.cli import load_config, main, run
from nisioenv.errors import ConfigurationError, UsageError
from nisioenv.funcspace import bump, make_grid, write_csv
from nisioenv.kernels import GaussianDrift


def base_config(out_dir, **overrides):
    cfg = {
        "grid": {"lower": -8.0, "upper": 8.0, "n_nodes": 513},
        "norm": {"p": 2},
        "family": {"family": "gaussian_drift", "lambda_interval": [-1.0, 1.0]},
        "initial": {"kind": "bump", "params": {"radius": 1.0}},
        "time": {"t": 0.25, "tol_rel": 1e-4, "n_max": 6},
        "seeds": 0,
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.grid.n_nodes == 513
        assert cfg.norm.p == 2.0
        assert isinstance(cfg.family, GaussianDrift)

    def test_missing_key_named(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["grid"]
        with pytest.raises(ConfigurationError, match="grid"):
            load_config(write_config(tmp_path, cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out", extra_field=1)
        with pytest.raises(ConfigurationError, match="extra_field"):
            load_config(write_config(tmp_path, cfg))

    def test_empty_lambda_list_named(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["family"] = {"family": "gaussian_drift", "lambda_list": []}
        with pytest.raises(ConfigurationError, match="lambda_list"):
            load_config(write_config(tmp_path, cfg))

    def test_both_lambda_specs_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["family"] = {
            "family": "gaussian_drift",
            "lambda_list": [0.0],
            "lambda_interval": [-1.0, 1.0],
        }
        with pytest.raises(ConfigurationError):
            load_config(write_config(tmp_path, cfg))

    def test_custom_csv_initial(self, tmp_path):
        grid = make_grid(-8.0, 8.0, 513)
        f = bump(grid, radius=1.0)
        csv_path = tmp_path / "initial.csv"
        write_csv(f, csv_path)
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {"kind": "custom_csv", "params": {"path": str(csv_path)}}
        loaded = load_config(write_config(tmp_path, cfg))
        assert np.array_equal(loaded.initial.samples, f.samples)

    def test_custom_csv_missing_file(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["initial"] = {"kind": "custom_csv", "params": {"path": str(tmp_path / "nope.csv")}}
        with pytest.raises(ConfigurationError, match="path"):
            load_config(write_config(tmp_path, cfg))


def _set(cfg, path, value):
    *head, last = path.split(".")
    node = cfg
    for key in head:
        node = node.setdefault(key, {})
    node[last] = value
    return cfg


# presets of the edits below
CP = {"family": {"family": "compound_poisson", "lambda_list": [0.0, 1.0], "jump_atoms": [[1.0, 1.0]]}}
SHIFT = {"family": {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}}
SCAN = {**SHIFT, "grid": {"lower": -3.0, "upper": 3.0, "n_nodes": 2401}}
HUGE_GRID = {"grid": {"lower": -10.0, "upper": 10.0, "n_nodes": 2_400_001}}
BUDGET = "(the work budget)"
NAN, INF = float("nan"), float("inf")

# Every config that must exit 2 with nothing written, one row each: (subcommand, edits of base_config applied in
# order, a dotted key setting one leaf, words stderr must hold besides "configuration error")
EXIT_2 = [
    # non-finite, non-integer, out-of-range and wrongly typed leaves
    *[("envelope", {path: value}, (f"`{path}`",)) for path, value in [
        ("time.t", NAN), ("time.t", INF), ("time.t", -INF), ("time.t", -1.0), ("time.tol_rel", NAN),
        ("initial.params.radius", NAN), ("grid.upper", INF), ("norm.p", NAN), ("grid.n_nodes", 257.9),
        ("grid.n_nodes", 3), ("grid.n_nodes", 1e300), ("time.n_max", 2.7), ("time.n_max", 13), ("seeds", 0.5)]],
    *[("envelope", {**CP, "family.jump_atoms": [atom]}, ("`family.jump_atoms`",))
      for atom in ([1.0, NAN], [NAN, 1.0])],
    # the family's own rules: an interval with lo <= hi, jump weights > 0 that sum to 1, intensities >= 0
    ("envelope", {"family.lambda_interval": [1.0, -1.0]}, ("`family.lambda_interval`", "finite lo <= hi")),
    ("envelope", {**CP, "family.jump_atoms": [[1.0, 0.5]]}, ("`family.jump_atoms`", "sum to 1")),
    ("envelope", {**CP, "family.jump_atoms": [[1.0, 0.0], [0.5, 1.0]]}, ("`family.jump_atoms`", "positive")),
    ("envelope", {**CP, "family.lambda_list": [-1.0, 1.0]}, ("`family.lambda_list`", "intensities must be >= 0")),
    *[("envelope", {"initial": {"kind": "custom_csv", "params": {"path": path}}}, ("`initial.params.path`",))
      for path in (5, [], None)],
    # counterexample never reads the initial data, yet every check on it runs when the config loads
    ("counterexample", {**SCAN, "initial": {"kind": "custom_csv", "params": {"path": "no-such-initial.csv"}}},
     ("`initial.params.path`", "file not found")),
    # keys the parser does not read (jump_atoms is read for compound_poisson only)
    ("envelope", {"time.nmax": 2}, ("time.nmax",)),
    ("envelope", {"initial.params.radiuss": 2.0}, ("initial.params.radiuss",)),
    ("envelope", {"family.jump_atoms": [[1.0, 1.0]]}, ("family.jump_atoms",)),
    ("generator", {"generator.k_step": 3}, ("generator.k_step",)),
    # the options of each subcommand
    ("generator", {"generator.k_steps": 2.5}, ("`generator.k_steps`",)),
    ("derivative", {"derivative.quad_nodes": 4}, ("quad_nodes must be odd",)),
    ("derivative", {"derivative.quad_nodes": 1}, ("quad_nodes must be odd",)),
    ("compare-ode", {**CP, "ode.dt": 0}, ("`ode.dt`",)),
    ("counterexample", {**SCAN, "counterexample.epsilons": [0.01, 0.1]}, ("strictly decreasing",)),
    # one epsilon gives no ratio for the growth gate to check
    ("counterexample", {**SCAN, "counterexample.epsilons": [0.1]},
     ("`counterexample.epsilons`", "at least two epsilons")),
    ("counterexample", {**SCAN, "counterexample.epsilons": ["x"]}, ("`counterexample.epsilons`",)),
    ("counterexample", {**SCAN, "counterexample.t": 1.0}, ("scan time t",)),
    ("verify", {"generator": [1]}, ("`generator`",)),
    # the first step of the `generator` schedule and the CFL factor of the upwind oracle are the program's: a
    # config that sets one, here to the value the program uses, is refused (no subcommand reads an `hjb` section)
    ("generator", {"generator.h0": 0.1}, ("unknown config keys: ['generator.h0']",)),
    ("compare-hjb", {"hjb.cfl": 0.9}, ("unknown config keys: ['hjb']",)),
    # the gates and the comparison window are the program's: a config that sets one, here to pass anything, is
    # refused (no subcommand reads a `compare` section)
    ("compare-ode", {**CP, "compare.tolerance": 1e9}, ("unknown config keys: ['compare']",)),
    ("compare-hjb", {"compare.boundary_margin": 0.49}, ("unknown config keys: ['compare']",)),
    ("derivative", {"derivative.identity_tol": 1e9}, ("unknown config keys: ['derivative.identity_tol']",)),
    ("derivative", {"derivative.integral_tol": 1e9}, ("unknown config keys: ['derivative.integral_tol']",)),
    # the default ladder resolves one decade on 601 nodes, and 1e-6 is below 4 dx
    ("counterexample", {**SCAN, "grid.n_nodes": 601}, ("under-resolved",)),
    ("counterexample", {**SHIFT, "counterexample": {"t": 0.5, "epsilons": [1e-5, 1e-6]}}, ("under-resolved",)),
    # no envelope bound for a pure shift or a Gaussian drift at p = 1, and compare-ode on a Gaussian drift
    ("envelope", SHIFT, ("no envelope bound available", "counterexample")),
    ("envelope", {"norm.p": 1}, ("p > 1",)),
    ("envelope", {"norm.p": 0.5}, ("`norm.p`", "must be in [1, inf)")),
    ("compare-ode", {}, ("compare-ode needs compound_poisson",)),
    # work past the budget, refused before anything is built past it: 2 400 001 nodes at t = 1e-3 and n_max 12
    # (the level-0 heat kernel alone has 60 717 weights, about 2 h for the run), 3 000 epsilons of the blow-up
    # scan, 2.5e8 RK4 steps, 1.2e9 upwind steps, and 2e6 and 2e12 integral path steps
    ("envelope", {**HUGE_GRID, "time.t": 1e-3, "time.n_max": 12, "time.tol_rel": 1e-12},
     (BUDGET, "`grid`", "`time.t`", "`time.n_max`")),
    ("counterexample", {**SHIFT, "grid": {"lower": -3.0, "upper": 3.0, "n_nodes": 2_400_001},
                        "counterexample": {"t": 0.5, "epsilons": [1e-2 * 0.998**k for k in range(3000)]}},
     (BUDGET, "`grid`", "`counterexample.epsilons`")),
    ("compare-ode", {**CP, "ode.dt": 1e-9}, (BUDGET, "`grid`", "`ode.dt`", "`time.t`")),
    ("compare-hjb", {"time.t": 1e6}, (BUDGET, "`grid`", "`time.t`")),
    ("derivative", {"derivative.quad_nodes": 1_000_001}, (BUDGET, "`grid`", "`derivative.quad_nodes`")),
    ("derivative", {"derivative.quad_nodes": 10**12 + 1}, (BUDGET, "`grid`", "`derivative.quad_nodes`")),
    # 1e308 RK4 steps are a finite count whose passes overflow to inf
    ("compare-ode", {**CP, "time.t": 1e300, "ode.dt": 1e-8}, (BUDGET, "`ode.dt`", "`time.t`")),
    # the oracles' step rules: t / dt is inf; t / dt overflows the upwind count; lam / dx is inf in the upwind step
    ("compare-ode", {**CP, "ode.dt": 1e-320}, ("RK4 step count", "is not finite", "`ode.dt`", "`time.t`")),
    ("compare-hjb", {"time.t": 1e306}, ("upwind step count", "is not finite", "`time.t`", "`grid`")),
    ("compare-hjb", {"family.lambda_interval": [-1e307, 1e307]},
     ("upwind step count", "is not finite", "`family.lambda_interval`")),
    # dx^2 of 2.5e-301 underflows to 0, and the C(h) factor exp((q-1) t lam^2 / 2) is exp(900)
    ("compare-hjb", {"grid": {"lower": 0.0, "upper": 1e-300, "n_nodes": 5}}, ("dx^2 underflows",)),
    # dx^2 overflows: dx = 3.9e297, and dx = inf on a width past the float range, where node 0 is NaN
    ("envelope", {"grid.lower": -8.0, "grid.upper": 1e300, "grid.n_nodes": 257}, ("dx^2 overflows",)),
    *[(sub, {"grid.lower": -1e308, "grid.upper": 1e308}, ("dx^2 overflows",))
      for sub in ("compare-hjb", "counterexample", "derivative")],
    ("envelope", {"family.lambda_interval": [-60.0, 60.0], "time.t": 0.5},
     ("C(h) growth factor", "`family.lambda_interval`")),
    # the one float-range rule of the data: ||f||_1 of a bump of radius 5 and height 1e308 is 2.2e308
    *[(sub, {**(CP if sub == "compare-ode" else {}), "norm.p": 1, "initial.params": {"radius": 5.0, "height": 1e308}},
       ("`initial`", "`norm.p`", "the L^p norm of the data overflows"))
      for sub in ("envelope", "generator", "derivative", "compare-hjb", "compare-ode")],
    # the supremum generator Bf that `generator` and `derivative` measure against, or the L^p norm of Bf (and of
    # t Bf, the size of the integral identity), leaves the float range: Bf of a bump of height 1e307 at p = 1, and
    # t Bf of a pure shift at t = 1.7e308
    *[(sub, {"norm.p": 1, "initial.params.height": 1e307}, ("`initial`", "`norm.p`", "supremum generator"))
      for sub in ("generator", "derivative")],
    ("derivative", {**SHIFT, "time.t": 1.7e308}, ("`time.t`", "supremum generator")),
    # the Poisson weights of the largest compound Poisson step start from e^-(lambda h) = 0: at h = t, at the
    # first step 0.1 of the generator schedule, and for derivative at (t + h) / 2^n_max, h its forward quotient's step
    ("envelope", {**CP, "family.lambda_list": [800.0], "time.t": 1.0},
     ("Poisson rate 800", "`family.lambda_list`", "`time.t`")),
    ("compare-ode", {**CP, "family.lambda_list": [0.0, 800.0], "time.t": 1.0}, ("Poisson rate 800", "`time.t`")),
    ("generator", {**CP, "family.lambda_list": [0.0, 8000.0], "generator.k_steps": 0},
     ("Poisson rate 800", "`family.lambda_list`", "`generator.k_steps`")),
    ("derivative", {**CP, "family.lambda_list": [0.0, 710.0], "time.t": 1.0, "time.n_max": 0},
     ("Poisson rate 711.1", "`time.t`", "`time.n_max`")),
    # a heat kernel past its cap: of variance 0.1, the generator's first step, on 2 400 001 nodes (6.1e5
    # weights), and of variance 1e12 at t with no drift (5e8 weights, 4 GB)
    ("generator", HUGE_GRID, ("heat kernel", "`grid`", "`generator.k_steps`")),
    ("envelope", {"time.t": 1e12, "family": {"family": "gaussian_drift", "lambda_interval": [0.0, 0.0]}},
     ("heat kernel", "`grid`", "`time.t`")),
    # a pure shift window lam * h = 1e300 * 1e20 / 2^6 leaves the float range
    ("derivative", {"time.t": 1e20, "family": {"family": "pure_shift", "lambda_interval": [-1e300, 1e300]}},
     ("`family.lambda_interval`", "`time.t`")),
    # 1100 and 10^12 halvings of h0 = 0.1 reach a step of 0, and t = 5e-324 split in four rounds to a step of
    # 0; at t = 1.2e-322 the steps t / 16 and t / 32 round to 1e-323 and 5e-324, below the normal floats, so 16
    # and 32 of them run to 1.6e-322, 1.35 t (the last levels and the integral path); 1017 halvings of 0.1 and
    # two levels more (0.1 / 2^1019 = 1.8e-308) and a scan time of 1e-320 are steps below the normal floats too
    ("generator", {"generator.k_steps": 1100, "time.n_max": 2}, ("`generator.k_steps`", "h0 / 2^halvings > 0")),
    ("generator", {"generator.k_steps": 10**12}, ("`generator.k_steps`", "h0 / 2^halvings > 0")),
    ("envelope", {"time.t": 5e-324, "time.n_max": 2}, ("`time.t`", "`time.n_max`", "rounds to 0")),
    ("derivative", {"time.t": 5e-324, "time.n_max": 2}, ("`time.t`", "`time.n_max`", "rounds to 0")),
    ("derivative", {"time.t": 1.2e-322, "time.n_max": 2},
     ("`derivative.quad_nodes`", "`time.t`", "`time.n_max`", "below the normal floats")),
    *[(sub, {"time.n_max": 5, "time.t": 1.2e-322}, ("`time.t`", "`time.n_max`", "below the normal floats"))
      for sub in ("envelope", "compare-hjb")],
    ("compare-ode", {**CP, "time.n_max": 5, "time.t": 1.2e-322}, ("`time.t`", "below the normal floats")),
    ("generator", {"time.n_max": 0, "generator.k_steps": 1017}, ("`generator.k_steps`", "below the normal floats")),
    ("counterexample", {"counterexample.t": 1e-320, **SCAN}, ("`counterexample.t`", "below the normal floats")),
    # 200 Poisson intensities on 2 400 001 nodes: member rows of 3.6 GiB, refused before they are allocated
    ("envelope", {"family": {**CP["family"], "lambda_list": [k / 100.0 for k in range(200)]},
                  **HUGE_GRID, "time.t": 1e-5, "time.n_max": 0},
     ("`family.lambda_list`", "`grid`", "the cap on one plan's rows")),
]

# The wrong-type fuzz and the README's key table take their leaves from the parser: base_config and its variants,
# each with every option section present as {} so that the parser records what it asks of it, are run through the
# pre-flight of every subcommand that accepts them.
VARIANTS = {
    "base": {}, "cp": CP, "scan": SCAN,
    "gaussian": {"initial": {"kind": "gaussian", "params": {"sigma": 0.5}}},
    "ramp": {"initial": {"kind": "ramp", "params": {"slope": 0.5}}},
}
_ABSENT = object()


def _asked_leaves(section, prefix=""):
    """(dotted key, value or _ABSENT) of each leaf the parser asked for, in every section it read."""
    for key in sorted(section.asked):
        val = section.get(key, _ABSENT)  # dict.get: not a read the section records
        if not isinstance(val, cli._Section):
            yield prefix + key, val
        elif val.asked:  # a section of another subcommand's options is not read
            yield from _asked_leaves(val, f"{prefix}{key}.")


@pytest.fixture(scope="module")
def asked_leaves(tmp_path_factory):
    """{subcommand: [(config, leaf, value or _ABSENT)]} over every variant the subcommand's pre-flight accepts."""
    tmp = tmp_path_factory.mktemp("leaves")
    write_csv(bump(make_grid(-8.0, 8.0, 513), radius=1.0), tmp / "initial.csv")
    custom_csv = {"initial": {"kind": "custom_csv", "params": {"path": str(tmp / "initial.csv")}}}
    cases = {sub: [] for sub in cli.SUBCOMMANDS}
    for name, edits in {**VARIANTS, "custom_csv": custom_csv}.items():
        cfg = base_config(tmp / "out", **{key: {} for key in cli._OPTION_KEYS}, **copy.deepcopy(edits))
        path = write_config(tmp, cfg, f"{name}.json")
        for sub in cli.SUBCOMMANDS:
            loaded = load_config(path)  # a fresh record of the keys asked for
            try:
                cli._preflight(loaded, sub, "small", {})
            except (ConfigurationError, UsageError):
                continue
            cases[sub] += [(cfg, leaf, val) for leaf, val in _asked_leaves(loaded.raw)]
    return cases


_LISTS = st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3)
_OBJECTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
# a value of another kind than the leaf's: a leaf the config leaves out (its default, or the lambda set not given)
# draws what no kind of leaf accepts
WRONG = {"number": st.one_of(st.none(), st.booleans(), st.text(max_size=5), _LISTS, _OBJECTS),
         "string": st.one_of(st.none(), st.booleans(), _NUMBERS, _LISTS, _OBJECTS),
         "list": st.one_of(st.none(), st.booleans(), st.text(max_size=5), _NUMBERS, _OBJECTS),
         "absent": st.one_of(st.none(), st.booleans(), _OBJECTS)}


def _kind(val):
    if val is _ABSENT:
        return "absent"
    return {str: "string", list: "list"}.get(type(val), "number")


class TestInvalidConfigsWriteNothing:
    @pytest.mark.parametrize("subcommand, edits, words", EXIT_2,
                             ids=[f"{sub}:{','.join(edits)}" for sub, edits, _ in EXIT_2])
    def test_exit_2(self, tmp_path, monkeypatch, capsys, subcommand, edits, words):
        monkeypatch.chdir(tmp_path)  # the rows' relative paths resolve in an empty directory
        cfg = base_config("out")
        for path, value in copy.deepcopy(edits).items():  # a preset's dicts stay as written
            _set(cfg, path, value)
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--config", str(write_config(tmp_path, cfg)), "--out", "out"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and not (tmp_path / "out").exists(), err
        assert all(word in err for word in ("configuration error", *words)), err
        # the error names the keys to change: a backticked one, or those the parser does not read
        assert re.search(r"`[a-z_][a-z0-9_.]*`", err) or "unknown config keys" in err, err

    @pytest.mark.parametrize("text", [b'{"grid": "\xff\xfe"}', b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf-8", "nested-100000-deep"])
    def test_unreadable_config_text(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(text)
        with pytest.raises(SystemExit) as exc:
            main(["envelope", "--config", "config.json", "--out", "out"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and not (tmp_path / "out").exists(), err
        assert "configuration error: config is not valid JSON" in err, err

    @pytest.mark.parametrize("key, once, twice", [("n_max", '"n_max": 6', '"n_max": 10, "n_max": 3'),
                                                  ("seeds", '"seeds": 0', '"seeds": 0, "seeds": 1')],
                             ids=["time.n_max", "seeds"])
    def test_key_given_twice(self, tmp_path, monkeypatch, capsys, key, once, twice):
        # JSON keeps the last of two values of one key, so report.json would echo a config unlike the file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(base_config("out")).replace(once, twice))
        with pytest.raises(SystemExit) as exc:
            main(["envelope", "--config", "config.json", "--out", "out"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and not (tmp_path / "out").exists(), err
        assert f"configuration error: key `{key}` is given twice in one object" in err, err

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_path_through_a_file(self, tmp_path, monkeypatch, capsys, out):
        # the directory is made in the pre-flight: a path that is, or runs
        # through, a file is a configuration error, and the file is kept
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        config = write_config(tmp_path, base_config("out"))
        with pytest.raises(SystemExit) as exc:
            main(["envelope", "--config", str(config), "--out", out])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "configuration error: key `output_dir` / `--out`" in err, err
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "config.json"]

    @pytest.mark.parametrize("subcommand, name", [("envelope", "report.json"), ("envelope", "final.csv"),
                                                  ("generator", "timings.json")])
    def test_output_dir_holding_a_directory_named_like_an_artifact(self, tmp_path, monkeypatch, capsys,
                                                                   subcommand, name):
        # found before the run, not when the artifact is written after it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out" / name).mkdir(parents=True)
        config = write_config(tmp_path, base_config("out"))
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--config", str(config), "--out", "out"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "configuration error: key `output_dir` / `--out`" in err and name in err, err
        assert [path.name for path in (tmp_path / "out").iterdir()] == [name]
        assert not any((tmp_path / "out" / name).iterdir())

    def test_work_caps(self, tmp_path):
        # every shipped config and the largest admitted values load; one more
        # is a configuration error that names the cap
        for path in (Path(__file__).parents[1] / "configs").glob("*.json"):
            load_config(path)
        cfg = base_config(tmp_path / "out", grid={"lower": -3.0, "upper": 3.0, "n_nodes": cli._MAX_NODES})
        cfg["time"]["n_max"] = cli._MAX_LEVEL
        load_config(write_config(tmp_path, cfg))
        for leaf, cap in (("grid.n_nodes", cli._MAX_NODES), ("time.n_max", cli._MAX_LEVEL)):
            with pytest.raises(ConfigurationError, match=f"at most {cap} "):
                load_config(write_config(tmp_path, _set(json.loads(json.dumps(cfg)), leaf, cap + 1)))

    def test_shipped_runs_fit_the_budget_with_margin(self, monkeypatch):
        # every subcommand a shipped config accepts fits half the budget: the
        # heaviest, derivative on the 2 400 001-node scan grid, predicts 2.52e10
        monkeypatch.setattr(cli, "_MAX_WORK", cli._MAX_WORK / 2)
        accepted = set()
        for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")):
            for sub in cli.SUBCOMMANDS:
                try:
                    cli._preflight(load_config(path), sub, "small", {})
                except (ConfigurationError, UsageError) as exc:
                    assert "(the work budget)" not in str(exc), (path.stem, sub, exc)
                    continue
                accepted.add((path.stem, sub))
        assert accepted == {("envelope_gaussian", sub) for sub in ("envelope", "generator", "derivative",
                                                                    "compare-hjb", "verify")} | {
            ("compare_ode_compound_poisson", sub) for sub in ("envelope", "generator", "derivative",
                                                               "compare-ode", "verify")} | {
            ("counterexample_shift", sub) for sub in ("generator", "derivative", "counterexample", "verify")}

    @pytest.mark.parametrize("row", ["-4.5,abc", "-4.5,nan", "-4.5,inf", "-4.49,0"])
    def test_custom_csv_bad_data(self, tmp_path, capsys, row):
        # a value that is not a finite number, or an x off the uniform grid
        csv_path = tmp_path / "initial.csv"
        write_csv(bump(make_grid(-8.0, 8.0, 513), radius=1.0), csv_path)
        lines = csv_path.read_text().splitlines()
        lines[113] = row  # node 112 of the 1/32 mesh, after the header line
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        cfg = base_config(out, initial={"kind": "custom_csv", "params": {"path": str(csv_path)}})
        code = run("envelope", write_config(tmp_path, cfg))
        assert code == 2
        assert not out.exists()
        assert "configuration error: `initial.params.path`: " in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", list(cli.SUBCOMMANDS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_wrongly_typed_leaf(self, asked_leaves, subcommand, data):
        cfg, leaf, val = data.draw(st.sampled_from(asked_leaves[subcommand]), label="leaf")
        value = data.draw(WRONG[_kind(val)], label="value")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = _set(copy.deepcopy(cfg), leaf, value)
            cfg["output_dir"] = cfg["output_dir"] if leaf == "output_dir" else str(tmp / "out")
            assert run(subcommand, write_config(tmp, cfg)) == 2
            assert not (tmp / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2.5, "x"])
    def test_seed_override(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        code = run("verify", write_config(tmp_path, base_config(out)), seed=seed)
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err


README = Path(__file__).parents[1] / "README.md"


def _key_rows() -> dict:
    """{`key`: its row} of README's key table."""
    return {line.split("|")[1].strip(): line for line in README.read_text().splitlines() if line.startswith("| `")}


def test_readme_names_every_key_and_subcommand(asked_leaves):
    # one row of the key table per leaf the parser asks for, and an option key's row names each subcommand
    # that reads it
    readme, rows = README.read_text(), _key_rows()
    readers = {}
    for sub, cases in asked_leaves.items():
        for _, leaf, _ in cases:
            readers.setdefault(leaf, set()).add(sub)
    assert sorted(f"`{leaf}`" for leaf in readers) == sorted(rows)
    for leaf, subs in readers.items():
        if leaf.split(".")[0] in cli._OPTION_KEYS:
            assert all(f"`{sub}`" in rows[f"`{leaf}`"].split("|")[-2] for sub in subs), (leaf, subs)
    assert all(f"`{sub}`" in readme for sub in cli.SUBCOMMANDS)


# The values a numeric leaf draws: both zeros, the smallest subnormal, the edge of the float range and 1e+-300, of
# either sign, and the ends of the leaf's range in README's key table with the nearest values past them (an end 0
# is among the first)
EXTREMES = [v for x in (0.0, 5e-324, 1.7e308, 1e300, 1e-300) for v in (x, -x)]
RANGE_ENDS = {"grid.n_nodes": [4, 3, 2_400_001, 2_400_002], "norm.p": [1, math.nextafter(1.0, 0.0)],
              "time.n_max": [0, 12, 13], "seeds": [-1], "generator.k_steps": [-1], "derivative.quad_nodes": [3, 2, 4],
              "counterexample.t": [1, math.nextafter(1.0, 0.0)]}


@pytest.fixture(scope="module")
def numeric_leaves(asked_leaves):
    """{subcommand: [(config, leaf)]}, the leaves of `asked_leaves` that README's key table gives as a number or an
    integer."""
    kinds = {key: row.split("|")[2].strip() for key, row in _key_rows().items()}
    return {sub: [(cfg, leaf) for cfg, leaf, _ in cases if kinds[f"`{leaf}`"] in ("number", "integer")]
            for sub, cases in asked_leaves.items()}


@pytest.mark.parametrize("subcommand", list(cli.SUBCOMMANDS))
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_extreme_numeric_leaf(numeric_leaves, subcommand, data):
    # one numeric leaf at an extreme value: exit 2 with nothing written, or exit 0 or 1 with exactly the files of
    # the subcommand, and never an exception; a run that exits 0 or 1 exits so again into a sibling directory, and
    # writes the same bytes but for timings.json. A hundredth of the work budget keeps every accepted run short
    cfg, leaf = data.draw(st.sampled_from(numeric_leaves[subcommand]), label="leaf")
    value = data.draw(st.sampled_from(EXTREMES + RANGE_ENDS.get(leaf, [])), label="value")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_MAX_WORK", cli._MAX_WORK / 100)
        outs = [Path(tmp) / "out", Path(tmp) / "again"]
        config = write_config(Path(tmp), {**_set(copy.deepcopy(cfg), leaf, value), "output_dir": str(outs[0])})
        code = run(subcommand, config)
        written = sorted(path.name for path in outs[0].iterdir()) if outs[0].exists() else None
        if code != 2:
            assert run(subcommand, config, out_dir=outs[1]) == code
            files = [{p.name: p.read_bytes() for p in out.iterdir() if p.name != "timings.json"} for out in outs]
            assert files[0] == files[1], (leaf, value)
    assert code in (0, 1, 2)
    assert written == (None if code == 2 else sorted(("report.json", "timings.json",
                                                      *cli.SUBCOMMANDS[subcommand].artifacts)))


class TestRunEnvelope:
    def test_happy_path_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        code = run("envelope", path)
        assert code == 0
        for name in ("report.json", "envelope_result.json", "final.csv", "convergence.csv", "timings.json"):
            assert (out / name).is_file(), name
        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header == "level,steps,h,increment_lp,norm_lp"
        summary = capsys.readouterr().out
        assert "[envelope] PASS" in summary

    @pytest.mark.parametrize("height", [1.0, 1e8, 1e-8])
    def test_compound_poisson_drop_tolerance_scales_with_height(self, tmp_path, height):
        # J_h(c f) = c J_h f for c > 0: the worst dyadic drop scales with the
        # height of f (about -2.1e-12 at height 1), and so does its tolerance
        out = tmp_path / "out"
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "compare_ode_compound_poisson.json").read_text())
        cfg["family"]["lambda_interval"] = [0.2, 3.0]
        del cfg["family"]["lambda_list"]
        cfg["time"]["n_max"] = 6
        cfg["initial"]["params"]["height"] = height
        cfg["output_dir"] = str(out)
        run("envelope", write_config(tmp_path, cfg))
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        drop = checks["dyadic_monotone_increase"]
        assert drop["passed"] and drop["tolerance"] == -1e-9 * height

    def test_bound_beyond_float_range_fails_the_certificate(self, tmp_path):
        # ||f||_2 is finite, but C(t)f = e^700 f overflows: nothing is
        # certified, so the certificate fails with a null margin
        out = tmp_path / "out"
        cfg = base_config(out, family={"family": "compound_poisson", "lambda_list": [0.0, 700.0],
                                       "jump_atoms": [[0.0, 1.0]]})
        cfg["initial"]["params"]["height"] = 1e150
        cfg["time"]["t"] = 1.0
        assert run("envelope", write_config(tmp_path, cfg)) == 1
        assert json.loads((out / "envelope_result.json").read_text())["upper_bound_margin"] is None
        check = json.loads((out / "report.json").read_text())["checks"][0]
        assert check["name"] == "upper_bound_certificate" and not check["passed"] and check["measured"] is None

    def test_sections_of_other_subcommands_allowed(self, tmp_path):
        # `envelope` reads no option section, so keys only `compare-ode` and `generator` read stay allowed
        cfg = base_config(tmp_path / "out", ode={"dt": 1e-3}, generator={"k_steps": 3})
        assert run("envelope", write_config(tmp_path, cfg)) == 0

    def test_heat_kernel_wider_than_grid(self, tmp_path):
        # 8 sqrt(t) / dx exceeds half the grid: every heat step is a zero
        # extension, and the run still ends in a verdict
        out = tmp_path / "out"
        cfg = base_config(out, grid={"lower": -4.0, "upper": 4.0, "n_nodes": 257})
        cfg["time"] = {"t": 0.5, "tol_rel": 1e-4, "n_max": 4}
        code = run("envelope", write_config(tmp_path, cfg))
        assert code in (0, 1)
        assert json.loads((out / "report.json").read_text())["passed"] is (code == 0)

    def test_determinism_byte_identical_reports(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        path = write_config(tmp_path, base_config(out1))
        assert run("envelope", path) == 0
        assert run("envelope", path, out_dir=out2) == 0
        r1 = (out1 / "report.json").read_bytes()
        r2 = (out2 / "report.json").read_bytes()
        assert r1 == r2


# Runs on base_config at n_max 5 and tol_rel 1e-300 (every level runs) plus the edits: (subcommand, edits, whether
# the one-step calls counted equal the pre-flight's prediction, step size by step size, or are a part of it).
# `envelope` prices C(t)f as one more level-0 step (63 of 64); with tol_rel 1e-4, `generator` stops at converged
# levels (139 of 255). `generator` runs each horizon to level 2 at least, and its first horizon shares no chain.
COUNTED = [
    ("envelope", {}, False),
    ("compare-hjb", {}, True),
    ("generator", {}, True),
    ("generator", {"time.tol_rel": 1e-4}, False),
    ("generator", {"time.n_max": 0}, True),
    ("generator", {"time.n_max": 1}, True),
    ("generator", {"generator.k_steps": 0}, True),
    ("derivative", {}, True),
    ("derivative", CP, True),
    ("compare-ode", CP, True),
    ("counterexample", {**SCAN, "counterexample": {"t": 0.5, "epsilons": [0.1, 0.01]}}, True),
]


class TestRunOtherSubcommands:
    @pytest.mark.parametrize("subcommand, edits, exact", COUNTED,
                             ids=[f"{sub}:{','.join(edits)}" for sub, edits, _ in COUNTED])
    def test_counted_steps_within_prediction(self, tmp_path, monkeypatch, step_J_calls, subcommand, edits, exact):
        predicted = []
        real = cli._check_work

        def recording(cfg, fam, keys, chains, *args):
            predicted.append(Counter())  # one-step calls per step size
            for h, m in chains():
                predicted[-1][h] += m
            return real(cfg, fam, keys, chains, *args)

        monkeypatch.setattr(cli, "_check_work", recording)
        cfg = base_config(tmp_path / "out")
        for path, value in {"time.n_max": 5, "time.tol_rel": 1e-300, **copy.deepcopy(edits)}.items():
            _set(cfg, path, value)
        assert run(subcommand, write_config(tmp_path, cfg)) in (0, 1)
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == sorted(
            ("report.json", "timings.json", *cli.SUBCOMMANDS[subcommand].artifacts))
        assert len(predicted) == 1
        counted = len(step_J_calls)
        assert counted == predicted[0].total() if exact else counted <= predicted[0].total(), (counted, predicted)
        steps = Counter(step_J_calls)  # and each step size as often as predicted, or no more often
        assert steps == predicted[0] if exact else steps <= predicted[0], (steps, predicted)

    def test_generator(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, generator={"k_steps": 3})
        cfg["initial"]["params"]["radius"] = 2.0
        code = run("generator", write_config(tmp_path, cfg))
        assert (out / "generator.csv").is_file()
        assert code in (0, 1)
        rows = (out / "generator.csv").read_text().splitlines()
        assert rows[0] == "h,error_lp" and len(rows) == 5

    def test_derivative(self, tmp_path):
        # a coarse grid that passes both gates of the program; desk-scale runs live in test_acceptance
        out = tmp_path / "out"
        cfg = base_config(out, derivative={"quad_nodes": 17})
        cfg["grid"]["n_nodes"] = 1025
        code = run("derivative", write_config(tmp_path, cfg))
        assert code == 0
        doc = json.loads((out / "derivative_report.json").read_text())
        assert doc["pass"] and set(doc["gaps"]) == {"forward_vs_plus", "forward_vs_minus", "plus_vs_minus"}

    def test_derivative_step_J_calls(self, tmp_path, step_J_calls):
        # four level-L chains (S(t)f, S(t+h)f, S(t)(f +- h Bf)) for the
        # derivative identity, two M-step paths for the integral identity
        out = tmp_path / "out"
        cfg = base_config(out, derivative={"quad_nodes": 5})
        cfg["time"]["n_max"] = 3
        assert run("derivative", write_config(tmp_path, cfg)) in (0, 1)
        path_steps = 4 * 4  # m = ceil(2^(3+1)/(5 - 1)) = 4 steps per node interval
        assert len(step_J_calls) == 4 * 2**3 + 2 * path_steps
        assert json.loads((out / "derivative_report.json").read_text())["integral_path_steps"] == path_steps

    def test_compare_hjb(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert run("compare-hjb", path) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["rel_err"] <= 5e-2

    @pytest.mark.parametrize("family", [{"lambda_interval": [0.0, 1.0]}, {"lambda_list": [0.5]}],
                             ids=["interval-0-1", "list-0.5"])
    def test_compare_hjb_asymmetric_drift_set(self, tmp_path, family):
        # the oracle solves the envelope PDE of the set's hull [min, max], so a drift set not
        # symmetric about 0 passes on the shipped settings; a second run writes the same bytes
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "envelope_gaussian.json").read_text())
        cfg["family"] = {"family": "gaussian_drift", **family}
        for out in ("out1", "out2"):
            with pytest.raises(SystemExit) as exc:
                main(["compare-hjb", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / out)])
            assert exc.value.code == 0
        assert json.loads((tmp_path / "out1" / "comparison.json").read_text())["rel_err"] < 5e-2
        for name in ("hjb.csv", "comparison.json"):
            assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes(), name

    def test_compare_ode(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, ode={"dt": 1e-3})
        cfg["family"] = {
            "family": "compound_poisson",
            "lambda_list": [0.0, 1.0],
            "jump_atoms": [[1.0, 1.0]],
        }
        cfg["grid"] = {"lower": -8.0, "upper": 8.0, "n_nodes": 801}
        cfg["time"] = {"t": 0.5, "tol_rel": 1e-6, "n_max": 7}
        assert run("compare-ode", write_config(tmp_path, cfg)) == 0

    def test_compare_hjb_at_the_highest_admitted_p(self, tmp_path, capsys):
        # at norm.p 19.5 the unscaled L^p terms of 2^-52 times the envelope's peak of about 0.7 underflow, which
        # was the highest p the pre-flight admitted for the shipped bump; the comparison reads its relative error
        # and passes
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "envelope_gaussian.json").read_text())
        cfg["norm"]["p"] = 19.5
        out = tmp_path / "out"
        assert run("compare-hjb", write_config(tmp_path, {**cfg, "output_dir": str(out)})) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "comparison.json").read_text())["rel_err"] < 5e-2

    @pytest.mark.parametrize("height", [1.0, 1e-136])
    def test_compare_ode_window_far_below_the_data(self, tmp_path, capsys, height):
        # a gaussian in the left margin: over the window its envelope peaks at 2.5e-20 of its height, 2.5e-156 at
        # height 1e-136, where the unscaled L^p terms underflowed and the comparison was refused. Both heights now
        # read the error: envelope and RK4 agree there bit for bit, and rel_err is 0 with every file written
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "compare_ode_compound_poisson.json").read_text())
        cfg["initial"] = {"kind": "gaussian", "params": {"center": -9.95, "sigma": 0.1, "height": height}}
        out = tmp_path / "out"
        assert run("compare-ode", write_config(tmp_path, {**cfg, "output_dir": str(out)})) == 0
        assert capsys.readouterr().err == ""
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ("report.json", "timings.json", *cli.SUBCOMMANDS["compare-ode"].artifacts))
        assert json.loads((out / "comparison.json").read_text())["rel_err"] == 0.0

    @pytest.mark.parametrize("subcommand, shipped", [("envelope", "envelope_gaussian"),
                                                     ("compare-hjb", "envelope_gaussian"),
                                                     ("compare-ode", "compare_ode_compound_poisson")])
    def test_repeat_in_process_writes_the_same_bytes(self, tmp_path, subcommand, shipped):
        # the second run reads its step plans from the warm cache; every
        # artifact but timings.json has the bytes of the first, and a compare
        # run times its envelope and oracle next to the subcommand's total
        cfg = json.loads((Path(__file__).parents[1] / "configs" / f"{shipped}.json").read_text())
        cfg["grid"]["n_nodes"] = (cfg["grid"]["n_nodes"] - 1) // 4 + 1
        cfg["time"]["n_max"] = 6
        path, files = write_config(tmp_path, cfg), []
        for out in ("out1", "out2"):
            assert run(subcommand, path, out_dir=tmp_path / out) in (0, 1)
            files.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir() if p.name != "timings.json"})
            stages = json.loads((tmp_path / out / "timings.json").read_text())["stage_ms"]
            spans = {"envelope", "oracle"} if subcommand.startswith("compare") else set()
            assert set(stages) == {subcommand} | spans and all(v >= 0.0 for v in stages.values())
        assert sorted(files[0]) == sorted(("report.json", *cli.SUBCOMMANDS[subcommand].artifacts))
        assert files[0] == files[1]

    def test_compare_ode_interval_is_its_endpoint_list(self, tmp_path):
        # a compound Poisson interval steps over its two ends, and the oracle's sup is over them too
        outs = {}
        for kind in ("lambda_interval", "lambda_list"):
            outs[kind] = out = tmp_path / kind
            cfg = base_config(out, ode={"dt": 1e-2}, family={"family": "compound_poisson", kind: [0.2, 3.0],
                                                             "jump_atoms": [[0.37, 0.6], [-0.8, 0.4]]})
            cfg["time"] = {"t": 0.5, "tol_rel": 1e-6, "n_max": 5}
            assert run("compare-ode", write_config(tmp_path, cfg, f"{kind}.json")) in (0, 1)
        for name in ("envelope.csv", "comparison.json", "ode.csv"):
            assert (outs["lambda_interval"] / name).read_bytes() == (outs["lambda_list"] / name).read_bytes(), name

    def test_compare_ode_jump_atom_beyond_the_grid(self, tmp_path):
        # an atom at 1e12 reads only zero padding: its stencil index is clamped
        # to the grid size, so no padding of 1e14 nodes is built
        out = tmp_path / "out"
        cfg = base_config(out, ode={"dt": 1e-2}, family={"family": "compound_poisson", "lambda_list": [0.0, 1.0],
                                                         "jump_atoms": [[1.0, 0.5], [1e12, 0.5]]})
        cfg["time"] = {"t": 0.5, "tol_rel": 1e-6, "n_max": 5}
        assert run("compare-ode", write_config(tmp_path, cfg)) in (0, 1)
        assert json.loads((out / "report.json").read_text())["checks"]

    def test_counterexample(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, counterexample={"t": 0.5, "epsilons": [1e-1, 1e-2]})
        cfg["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
        cfg["grid"] = {"lower": -3.0, "upper": 3.0, "n_nodes": 24001}
        code = run("counterexample", write_config(tmp_path, cfg))
        assert code in (0, 1)
        rows = (out / "scan.csv").read_text().splitlines()
        assert rows[0] == "epsilon,norm_lp" and len(rows) == 3

    def test_counterexample_default_ladder(self, tmp_path):
        # without epsilons the scan runs the decades the grid resolves
        out = tmp_path / "out"
        cfg = base_config(out, counterexample={"t": 0.5})
        cfg["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
        cfg["grid"] = {"lower": -3.0, "upper": 3.0, "n_nodes": 2401}
        assert run("counterexample", write_config(tmp_path, cfg)) in (0, 1)
        rows = (out / "scan.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.1, 0.01]

    @pytest.mark.parametrize("subcommand, calls, code", [("envelope", 1, 0), ("compare-hjb", 0, 0), ("generator", 0, 1),
                                                         ("derivative", 0, 1), ("verify", 0, 0)])
    def test_certificate_computed_when_read(self, tmp_path, monkeypatch, subcommand, calls, code):
        # C(t)f of the envelope certificate, on the config's grid, is computed once by `envelope`, which reports
        # the margin, and never by the runs that do not; `verify` computes C(h) of its own on grids of its own.
        # `generator` and `derivative` fail a gate on this coarse grid
        grid, counted = make_grid(-8.0, 8.0, 513), []
        real = kernels.upper_bound_C

        def counting(fam, h, f, norm):
            counted.append(f.grid == grid)
            return real(fam, h, f, norm)

        monkeypatch.setattr(kernels, "upper_bound_C", counting)
        assert run(subcommand, write_config(tmp_path, base_config(tmp_path / "out"))) == code
        assert sum(counted) == calls and (subcommand != "verify" or counted)

    @pytest.mark.parametrize("initial", [
        None,
        {"kind": "custom_csv", "params": {"path": "missing.csv"}},
        {"kind": "bump", "params": {"radius": 0.0}},
        {"kind": "gaussian", "params": {"sigma": 1e200}},
        {"kind": "gaussian", "params": {"sigma": 1e-200}},
        {"kind": "ramp", "params": {"slope": 1e308}},
        {"kind": "ramp", "params": {"slope": -1e308, "intercept": -1e308}},
    ])
    @pytest.mark.parametrize("subcommand", ["counterexample", "verify"])
    def test_unread_initial_data_checked_not_evaluated(self, tmp_path, monkeypatch, capsys, subcommand, initial):
        # neither subcommand reads the initial data: no bump is evaluated on
        # the config's grid, yet every check on it still runs at load time,
        # so an invalid one exits 2 with nothing written
        grids = []
        real = funcspace.bump

        def counting(grid, *args, **kwargs):
            grids.append(grid)
            return real(grid, *args, **kwargs)

        monkeypatch.setattr(funcspace, "bump", counting)
        out = tmp_path / "out"
        cfg = base_config(out, counterexample={"t": 0.5, "epsilons": [1e-1, 1e-2]})
        cfg["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
        cfg["grid"] = {"lower": -3.0, "upper": 3.0, "n_nodes": 2401}
        if initial is not None:
            cfg["initial"] = initial
        code = run(subcommand, write_config(tmp_path, cfg))
        if initial is None:
            assert code in (0, 1) and out.exists()
        else:
            assert code == 2 and not out.exists()
            assert "configuration error" in capsys.readouterr().err
        assert not [g for g in grids if g == make_grid(-3.0, 3.0, 2401)]

    def test_runs_on_numpy_alone(self, tmp_path):
        # numpy is the one dependency: in a process whose imports refuse
        # every package outside the standard library, numpy and nisioenv, a
        # blow-up scan whose window is past `envelope._FILTER_CUTOVER` offsets
        # and a Gaussian envelope each give a verdict, with nothing on stderr
        root = Path(__file__).parents[1]
        scan = base_config(tmp_path / "scan", counterexample={"t": 0.5, "epsilons": [1e-1, 1e-2]})
        scan["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
        scan["grid"] = {"lower": -3.0, "upper": 3.0, "n_nodes": 48001}
        assert make_grid(-3.0, 3.0, 48001).dx <= 2 * 0.5 / envelope._FILTER_CUTOVER
        script = (
            "import sys\n"
            "allowed = sys.stdlib_module_names | {'numpy', 'nisioenv'}\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] not in allowed:\n"
            "            raise ImportError(f'{name} is refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "import nisioenv\n"
            "from nisioenv import cli\n"
            "print([cli.run('counterexample', sys.argv[1]), cli.run('envelope', sys.argv[2])])\n"
        )
        paths = [write_config(tmp_path, scan, "scan.json"),
                 write_config(tmp_path, base_config(tmp_path / "envelope"), "envelope.json")]
        proc = subprocess.run([sys.executable, "-c", script, *map(str, paths)],
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        codes = json.loads(proc.stdout.splitlines()[-1])
        assert len(codes) == 2 and all(code in (0, 1) for code in codes), codes

    def test_unknown_subcommand(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert run("frobnicate", path) == 2

    def test_main_entry_point(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        with pytest.raises(SystemExit) as exc:
            main(["envelope", "--config", str(path), "--seed", "3"])
        assert exc.value.code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["provenance"]["seed"] == 3


def _report(tmp, subcommand, edits, out="out"):
    """(exit code, checks of report.json or None) of a run on base_config with the edits, into tmp / out."""
    cfg = base_config(str(tmp / out))
    for path, value in copy.deepcopy(edits).items():
        _set(cfg, path, value)
    code = run(subcommand, write_config(tmp, cfg, f"{out}.json"))
    report = tmp / out / "report.json"
    return code, json.loads(report.read_text())["checks"] if report.exists() else None


# The scale property. Every family is a supremum of linear semigroups, so the envelope, C(t) and both oracles are
# positively homogeneous, and multiplying data by 2^k is exact in floats while every sample stays normal: at bump
# height 2^k a run exits as at height 1, with the same verdicts, the same bits of its relative measured values and
# gates, and the absolute ones of `envelope` (certificate margin, worst drop, both gates) exactly 2^k times as large.
# k is drawn from [-900, 900]: on base_config every value held bit for bit from -970 to 1010 (in steps of 10). Below
# that the envelope's tails turn subnormal, and from 1020 on the supremum generator Bf leaves the floats (exit 2)
SCALED = {"envelope": {}, "compare-hjb": {}, "compare-ode": CP, "generator": {}, "derivative": {}}


@pytest.fixture(scope="module")
def height_one(tmp_path_factory):
    """{subcommand: (exit code, checks)} of the SCALED runs at bump height 1."""
    tmp = tmp_path_factory.mktemp("height-one")
    return {sub: _report(tmp, sub, edits, sub) for sub, edits in SCALED.items()}


@pytest.mark.parametrize("subcommand", list(SCALED))
@given(k=st.integers(-900, 900))
@example(k=-900)
@example(k=-70)
@example(k=900)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_verdicts_do_not_depend_on_the_height(height_one, subcommand, k):
    code, checks = height_one[subcommand]
    with tempfile.TemporaryDirectory() as tmp:
        scaled = _report(Path(tmp), subcommand, {**SCALED[subcommand], "initial.params.height": math.ldexp(1.0, k)})
    if subcommand == "envelope":
        checks = [{**c, "measured": math.ldexp(c["measured"], k), "tolerance": math.ldexp(c["tolerance"], k)}
                  for c in checks]
    assert scaled == (code, checks), k


@pytest.mark.parametrize("subcommand, edits", [("compare-hjb", {}), ("compare-ode", CP)])
@pytest.mark.parametrize("height", [1.0, 2.0**-70])
def test_zero_oracle_fails(tmp_path, monkeypatch, subcommand, edits, height):
    # an oracle that returns 0 reads rel_err 1 at every height (at 2^-70 it passed at 1e-7 while rel_err divided
    # by max(||a||, 1e-14))
    def zero(f0, *args):
        return funcspace.GridFunction(f0.grid, np.zeros(f0.grid.n_nodes))

    monkeypatch.setattr(cli.reference, "hjb_upwind", zero)
    monkeypatch.setattr(cli.reference, "ode_reference", lambda fam, f0, *args: zero(f0))
    code, checks = _report(tmp_path, subcommand, {**edits, "initial.params.height": height})
    assert code == 1 and checks[0]["measured"] == 1.0 and not checks[0]["passed"]


# Runs that exited 2 while the norm summed unscaled terms |x|^p dx, which underflowed (p = 1e300; height 1e-170 at
# p = 2) or overflowed (height 1e30 at p = 10; height -1.7e308, where the certificate's f - C(t)f is -inf; a bump of
# height 1e308 on one node; t Bf of a pure shift at t = 1e300), and now reach a verdict: (subcommand, edits)
PAST_THE_OLD_TERMS = [
    *[(sub, {"norm.p": 1e300}) for sub in ("envelope", "compare-hjb", "generator", "derivative")],
    *[(sub, {"initial.params.height": 1e-170}) for sub in ("envelope", "compare-hjb")],
    ("envelope", {"initial.params.height": -1.7e308}),
    *[(sub, {"initial.params.height": 1e30, "norm.p": 10}) for sub in ("generator", "derivative")],
    *[(sub, {**(CP if sub == "compare-ode" else {}), "initial.params": {"radius": 1e-300, "height": 1e308}})
      for sub in ("envelope", "compare-hjb", "compare-ode")],
    ("derivative", {**SHIFT, "time.t": 1e300}),
]


@pytest.mark.parametrize("subcommand, edits", PAST_THE_OLD_TERMS,
                         ids=[f"{sub}:{','.join(edits)}" for sub, edits in PAST_THE_OLD_TERMS])
def test_past_the_old_term_range_reaches_a_verdict(tmp_path, capsys, subcommand, edits):
    # every file, nothing on stderr and a finite measured value for every check. The norm is accurate: at p = 1e300
    # it is the sup, so the envelope's last norm_lp is max|final| and compare-hjb's abs_err is its max_err; a run at
    # height 1e-170 or 1e30 gives the verdicts of height 1
    code, checks = _report(tmp_path, subcommand, edits)
    out = tmp_path / "out"
    assert code in (0, 1) and capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == sorted(("report.json", "timings.json",
                                                            *cli.SUBCOMMANDS[subcommand].artifacts))
    assert all(c["measured"] is not None for c in checks), checks
    if edits.get("norm.p") == 1e300 and subcommand == "envelope":
        norm_lp = float((out / "convergence.csv").read_text().splitlines()[-1].split(",")[-1])
        assert norm_lp == max(abs(float(row.split(",")[1])) for row in (out / "final.csv").read_text().split()[1:])
    if edits.get("norm.p") == 1e300 and subcommand == "compare-hjb":
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["abs_err"] == comparison["max_err"]
    if "initial.params.height" in edits:
        one = _report(tmp_path, subcommand, {**edits, "initial.params.height": 1.0}, "one")
        assert (code, [c["passed"] for c in checks]) == (one[0], [c["passed"] for c in one[1]])


# the ordered (name, tolerance) pairs of `verify --scale small`
VERIFY_CHECKS = [
    ("funcspace.interp_shift_monotone", 0.0),
    ("funcspace.interp_shift_linear_ulps", 4.0),
    ("funcspace.interp_shift_ramp_exact", 1e-12),
    ("funcspace.norm_scaling", 1e-12),
    ("funcspace.max_permutation_bitexact", 0.0),
    ("funcspace.max_least_upper_bound", 0.0),
    ("kernels.apply_member_linear", 1e-10),
    ("kernels.apply_member_monotone", 0.0),
    ("kernels.mass_conservation_interior", 1e-10),
    ("kernels.member_below_C", 1e-09),
    ("kernels.C_flow_property", 1e-06),
    ("kernels.member_semigroup_refines", 1.0),
    ("kernels.sup_generator_in_lp", 1.0),
    ("kernels.C_boundary_mass_decay", 1.0),
    ("envelope.step_monotone", 0.0),
    ("envelope.step_convex", 1e-10),
    ("envelope.step_homogeneous", 1e-10),
    ("envelope.step_homogeneous_pow2", 0.0),
    ("envelope.refinement_monotone_cp", 1e-09),
    ("envelope.random_partition_no_exceedance", 9.916552644963352e-05),
    ("envelope.singleton_step_bitexact", 0.0),
    ("envelope.equivalent_generators_converge", 0.0625),
    ("calculus.plus_quotient_monotone", 1e-09),
    ("calculus.minus_below_plus", 1e-09),
    ("calculus.quotient_scaling", 1e-10),
    ("reference.hjb_monotone", 1e-12),
    ("reference.hjb_constants_interior", 1e-12),
    ("reference.scan_norms_increase", 1.0),
    ("calculus.sampled_probes", 2.2662969061336526),
]


class TestVerifySuite:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("invariant", cli._INVARIANTS, ids=lambda inv: inv.checks[0][0])
    def test_invariant(self, invariant, seed):
        failed = [c for c in invariant.run(cli._verify_context("small", seed)) if not c.passed]
        assert not failed, failed

    def test_invalid_scale(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("verify", write_config(tmp_path, base_config(out)), scale="huge") == 2
        assert not out.exists()
        assert "scale must be small or full" in capsys.readouterr().err

    def test_verify_subcommand(self, tmp_path, monkeypatch):
        made = []  # the contexts built: one per run, shared by the invariants and the probes
        real = cli._verify_context
        monkeypatch.setattr(cli, "_verify_context", lambda *args: made.append(args) or real(*args))
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert run("verify", path, scale="small") == 0
        assert made == [("small", 0)]
        doc = json.loads((out / "report.json").read_text())
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [name for name, _ in VERIFY_CHECKS]
        assert [c["tolerance"] for c in doc["checks"]] == pytest.approx([tol for _, tol in VERIFY_CHECKS],
                                                                         rel=1e-12, abs=0.0)
        assert sorted(path.name for path in out.iterdir()) == sorted(("report.json", "timings.json",
                                                                     *cli.SUBCOMMANDS["verify"].artifacts))
        probes = json.loads((out / "probes.json").read_text())
        assert set(probes) == {"t", "gap", "L_estimate", "M", "omega", "pass"}
        assert probes["pass"] is True
