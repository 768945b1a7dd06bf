import copy
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisioenv import cli, envelope, funcspace
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
    ("generator", {"generator.h0": "x"}, ("`generator.h0`",)),
    ("generator", {"generator.h0": -1}, ("`generator.h0`",)),
    ("generator", {"generator.k_steps": 2.5}, ("`generator.k_steps`",)),
    ("derivative", {"derivative.quad_nodes": 4}, ("quad_nodes must be odd",)),
    ("derivative", {"derivative.quad_nodes": 1}, ("quad_nodes must be odd",)),
    ("derivative", {"derivative.integral_tol": NAN}, ("`derivative.integral_tol`",)),
    ("compare-hjb", {"hjb.cfl": 2.0}, ("`hjb.cfl`",)),
    ("compare-hjb", {"compare.boundary_margin": 0.5}, ("`compare.boundary_margin`",)),
    ("compare-ode", {**CP, "ode.dt": 0}, ("`ode.dt`",)),
    ("counterexample", {**SCAN, "counterexample.epsilons": [0.01, 0.1]}, ("strictly decreasing",)),
    ("counterexample", {**SCAN, "counterexample.epsilons": ["x"]}, ("`counterexample.epsilons`",)),
    ("counterexample", {**SCAN, "counterexample.t": 1.0}, ("scan time t",)),
    ("verify", {"generator": [1]}, ("`generator`",)),
    # the default ladder resolves one decade on 601 nodes, and 1e-6 is below 4 dx
    ("counterexample", {**SCAN, "grid.n_nodes": 601}, ("under-resolved",)),
    ("counterexample", {**SHIFT, "counterexample": {"t": 0.5, "epsilons": [1e-6]}}, ("under-resolved",)),
    # no envelope bound for a pure shift or a Gaussian drift at p = 1, and compare-ode on a Gaussian drift
    ("envelope", SHIFT, ("no envelope bound available", "counterexample")),
    ("envelope", {"norm.p": 1}, ("p > 1",)),
    ("compare-ode", {}, ("compare-ode needs compound_poisson",)),
    # the upwind oracle solves u_t = u_xx / 2 + max|lam| |u_x|, the envelope PDE of a symmetric drift set only
    ("compare-hjb", {"family.lambda_interval": [0.0, 1.0]},
     ("`family.lambda_interval`", "symmetric", "min 0 and max 1")),
    ("compare-hjb", {"family": {"family": "gaussian_drift", "lambda_list": [0.5]}},
     ("`family.lambda_list`", "symmetric", "min 0.5 and max 0.5")),
    # work past the budget, refused before anything is built past it: 2 400 001 nodes at t = 1e-3 and n_max 12
    # (the level-0 heat kernel alone has 60 717 weights, about 2 h for the run), 3 000 epsilons of the blow-up
    # scan, 2.5e8 RK4 steps, 1.2e9 upwind steps, and 2e6 and 2e12 integral path steps
    ("envelope", {**HUGE_GRID, "time.t": 1e-3, "time.n_max": 12, "time.tol_rel": 1e-12},
     (BUDGET, "`grid`", "`time.t`", "`time.n_max`")),
    ("counterexample", {**SHIFT, "grid": {"lower": -3.0, "upper": 3.0, "n_nodes": 2_400_001},
                        "counterexample": {"t": 0.5, "epsilons": [1e-2 * 0.998**k for k in range(3000)]}},
     (BUDGET, "`grid`", "`counterexample.epsilons`")),
    ("compare-ode", {**CP, "ode.dt": 1e-9}, (BUDGET, "`grid`", "`ode.dt`", "`time.t`")),
    ("compare-hjb", {"time.t": 1e6}, (BUDGET, "`grid`", "`time.t`", "`hjb.cfl`")),
    ("derivative", {"derivative.quad_nodes": 1_000_001}, (BUDGET, "`grid`", "`derivative.quad_nodes`")),
    ("derivative", {"derivative.quad_nodes": 10**12 + 1}, (BUDGET, "`grid`", "`derivative.quad_nodes`")),
    # t / dt is inf; t / dt overflows the upwind count; lam / dx is inf in the upwind step
    ("compare-ode", {**CP, "ode.dt": 1e-320}, (BUDGET, "`ode.dt`", "`time.t`")),
    ("compare-hjb", {"time.t": 1e306}, (BUDGET, "`time.t`", "`grid`")),
    ("compare-hjb", {"family.lambda_interval": [-1e307, 1e307]},
     (BUDGET + "; the upwind steps are not a finite count", "`family.lambda_interval`")),
    # dx^2 of 2.5e-301 underflows to 0, and the C(h) factor exp((q-1) t lam^2 / 2) is exp(900)
    ("compare-hjb", {"grid": {"lower": 0.0, "upper": 1e-300, "n_nodes": 5}}, ("dx^2 underflows",)),
    ("envelope", {"family.lambda_interval": [-60.0, 60.0], "time.t": 0.5},
     ("C(h) growth factor", "`family.lambda_interval`")),
    # ||f||_2 overflows: a bump of height 1e308 on the one node at its centre
    *[(sub, {**(CP if sub == "compare-ode" else {}), "initial.params": {"radius": 1e-300, "height": 1e308}},
       ("`initial`", "`norm.p`")) for sub in ("envelope", "generator", "derivative", "compare-hjb", "compare-ode")],
    # the Poisson weights of the largest compound Poisson step start from e^-(lambda h) = 0: at h = t, at
    # generator.h0, and for derivative at (t + h) / 2^n_max, h its forward quotient's step
    ("envelope", {**CP, "family.lambda_list": [800.0], "time.t": 1.0},
     ("Poisson rate 800", "`family.lambda_list`", "`time.t`")),
    ("compare-ode", {**CP, "family.lambda_list": [0.0, 800.0], "time.t": 1.0}, ("Poisson rate 800", "`time.t`")),
    ("generator", {**CP, "generator.h0": 800.0, "generator.k_steps": 0},
     ("Poisson rate 800", "`family.lambda_list`", "`generator.h0`")),
    ("derivative", {**CP, "family.lambda_list": [0.0, 710.0], "time.t": 1.0, "time.n_max": 0},
     ("Poisson rate 711.1", "`time.t`", "`time.n_max`")),
    # a heat kernel of variance 1e12 would need 5e8 weights (4 GB): at generator.h0, and at t with no drift
    ("generator", {"generator.h0": 1e12}, ("heat kernel", "`grid`", "`generator.h0`")),
    ("envelope", {"time.t": 1e12, "family": {"family": "gaussian_drift", "lambda_interval": [0.0, 0.0]}},
     ("heat kernel", "`grid`", "`time.t`")),
    # a pure shift window lam * h0 = 1e310 leaves the float range
    ("generator", {"family": {"family": "pure_shift", "lambda_interval": [-1e300, 1e300]}, "generator.h0": 1e10},
     ("`family.lambda_interval`", "`generator.h0`")),
    # 1100 and 10^12 halvings of h0 = 0.1 reach a step of 0, and t = 5e-324 split in four rounds to a step of
    # 0; at t = 1.2e-322 the steps t / 16 and t / 32 round to 1e-323 and 5e-324, below the normal floats, so 16
    # and 32 of them run to 1.6e-322, 1.35 t (the last levels and the integral path); `generator.h0` 1e-310 and
    # a scan time of 1e-320 are steps below the normal floats too
    ("generator", {"generator.k_steps": 1100, "time.n_max": 2}, ("`generator.k_steps`", "h0 / 2^halvings > 0")),
    ("generator", {"generator.k_steps": 10**12}, ("`generator.k_steps`", "h0 / 2^halvings > 0")),
    ("envelope", {"time.t": 5e-324, "time.n_max": 2}, ("`time.t`", "`time.n_max`", "rounds to 0")),
    ("derivative", {"time.t": 5e-324, "time.n_max": 2}, ("`time.t`", "`time.n_max`", "rounds to 0")),
    ("derivative", {"time.t": 1.2e-322, "time.n_max": 2},
     ("`derivative.quad_nodes`", "`time.t`", "`time.n_max`", "below the normal floats")),
    *[(sub, {"time.n_max": 5, "time.t": 1.2e-322}, ("`time.t`", "`time.n_max`", "below the normal floats"))
      for sub in ("envelope", "compare-hjb")],
    ("compare-ode", {**CP, "time.n_max": 5, "time.t": 1.2e-322}, ("`time.t`", "below the normal floats")),
    ("generator", {"generator.h0": 1e-310, "generator.k_steps": 0}, ("`generator.h0`", "below the normal floats")),
    ("counterexample", {"counterexample.t": 1e-320, **SCAN}, ("`counterexample.t`", "below the normal floats")),
    # 200 drifts on 2 400 001 nodes: member rows of 3.6 GiB, refused before they are allocated
    ("envelope", {"family": {"family": "gaussian_drift", "lambda_list": [k / 100.0 for k in range(200)]},
                  **HUGE_GRID, "time.t": 1e-5, "time.n_max": 0},
     ("`family.lambda_list`", "`grid`", "the cap on one plan's rows")),
]

# leaves of base_config for the wrong-type fuzz; the path leaf is set on a
# custom_csv initial condition
NUMERIC_LEAVES = ["grid.lower", "grid.upper", "grid.n_nodes", "norm.p", "time.t", "time.tol_rel",
                  "time.n_max", "initial.params.radius", "seeds"]
STRING_LEAVES = ["output_dir", "initial.params.path"]
_LISTS = st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3)
_OBJECTS = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=5), _LISTS, _OBJECTS)
NOT_A_STRING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                         _LISTS, _OBJECTS)


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
                    cli._subcommand_job(load_config(path), sub, "small")
                except (ConfigurationError, UsageError) as exc:
                    assert "(the work budget)" not in str(exc), (path.stem, sub, exc)
                    continue
                accepted.add((path.stem, sub))
        assert accepted == {("envelope_gaussian", sub) for sub in ("envelope", "generator", "derivative",
                                                                    "compare-hjb", "verify")} | {
            ("compare_ode_compound_poisson", sub) for sub in ("envelope", "generator", "derivative",
                                                               "compare-ode", "verify")} | {
            ("counterexample_shift", sub) for sub in ("generator", "derivative", "counterexample", "verify")}

    @pytest.mark.parametrize("row", ["-4.5,abc", "-4.5,nan", "-4.5,inf"])
    def test_custom_csv_bad_data(self, tmp_path, capsys, row):
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
        assert "configuration error" in capsys.readouterr().err

    @given(leaf=st.sampled_from(NUMERIC_LEAVES + STRING_LEAVES), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_wrongly_typed_leaf(self, leaf, data):
        value = data.draw(NOT_A_NUMBER if leaf in NUMERIC_LEAVES else NOT_A_STRING, label="value")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            out = tmp / "out"
            cfg = base_config(out)
            if leaf == "initial.params.path":
                write_csv(bump(make_grid(-8.0, 8.0, 513), radius=1.0), tmp / "initial.csv")
                cfg["initial"] = {"kind": "custom_csv", "params": {"path": str(tmp / "initial.csv")}}
            code = run("envelope", write_config(tmp, _set(cfg, leaf, value)))
            assert code == 2
            assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2.5, "x"])
    def test_seed_override(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        code = run("verify", write_config(tmp_path, base_config(out)), seed=seed)
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err


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
        # `envelope` reads no option section, so keys only `compare-ode` reads stay allowed
        cfg = base_config(tmp_path / "out", ode={"dt": 1e-3}, compare={"tolerance": 1e-2})
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
# levels (139 of 255).
COUNTED = [
    ("envelope", {}, False),
    ("compare-hjb", {}, True),
    ("generator", {}, True),
    ("generator", {"time.tol_rel": 1e-4}, False),
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
            for h, m, repeats in chains():
                predicted[-1][h] += m * repeats
            return real(cfg, fam, keys, chains, *args)

        monkeypatch.setattr(cli, "_check_work", recording)
        cfg = base_config(tmp_path / "out")
        for path, value in {"time.n_max": 5, "time.tol_rel": 1e-300, **copy.deepcopy(edits)}.items():
            _set(cfg, path, value)
        assert run(subcommand, write_config(tmp_path, cfg)) in (0, 1)
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == sorted(
            ("report.json", "timings.json", *cli._ARTIFACTS[subcommand]))
        assert len(predicted) == 1
        counted = len(step_J_calls)
        assert counted == predicted[0].total() if exact else counted <= predicted[0].total(), (counted, predicted)
        steps = Counter(step_J_calls)  # and each step size as often as predicted, or no more often
        assert steps == predicted[0] if exact else steps <= predicted[0], (steps, predicted)

    def test_generator(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, generator={"h0": 0.05, "k_steps": 3})
        cfg["initial"]["params"]["radius"] = 2.0
        code = run("generator", write_config(tmp_path, cfg))
        assert (out / "generator.csv").is_file()
        assert code in (0, 1)
        rows = (out / "generator.csv").read_text().splitlines()
        assert rows[0] == "h,error_lp" and len(rows) == 5

    def test_derivative(self, tmp_path):
        # coarse-grid smoke run; desk-scale tolerances live in test_acceptance
        out = tmp_path / "out"
        cfg = base_config(out, derivative={"quad_nodes": 9, "integral_tol": 6e-2})
        cfg["time"]["n_max"] = 5
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

    @pytest.mark.parametrize("subcommand, calls", [("envelope", 1), ("compare-hjb", 0), ("verify", 0)])
    def test_certificate_computed_when_read(self, tmp_path, monkeypatch, subcommand, calls):
        # C(t)f of the envelope certificate is computed once by `envelope`,
        # which reads the margin, and never by runs that do not read it
        counted = []
        real = envelope.upper_bound_C

        def counting(*args):
            counted.append(1)
            return real(*args)

        monkeypatch.setattr(envelope, "upper_bound_C", counting)
        assert run(subcommand, write_config(tmp_path, base_config(tmp_path / "out"))) == 0
        assert len(counted) == calls

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

    def test_shipped_runs_leave_scipy_unloaded(self, tmp_path):
        # scipy is imported on first use, by a window supremum past
        # `envelope._FILTER_CUTOVER` offsets, which none of these runs reaches
        root = Path(__file__).parents[1]
        script = (
            "import json, sys\n"
            "from nisioenv import cli\n"
            "seen = [['import', 0, 'scipy' in sys.modules]]\n"
            "for sub, name in [('envelope', 'envelope_gaussian'), ('compare-hjb', 'envelope_gaussian'),\n"
            "                  ('compare-ode', 'compare_ode_compound_poisson')]:\n"
            "    code = cli.run(sub, f'{sys.argv[1]}/{name}.json', out_dir=f'{sys.argv[2]}/{sub}')\n"
            "    seen.append([sub, code, 'scipy' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(root / "configs"), str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              capture_output=True, text=True, check=True)
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert [name for name, _, _ in seen] == ["import", "envelope", "compare-hjb", "compare-ode"]
        assert all(code in (0, 1) for _, code, _ in seen)
        assert not any(loaded for _, _, loaded in seen), seen

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
                                                                     *cli._ARTIFACTS["verify"]))
        probes = json.loads((out / "probes.json").read_text())
        assert set(probes) == {"t", "gap", "L_estimate", "M", "omega", "pass"}
        assert probes["pass"] is True
