import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisioenv import cli, envelope, funcspace
from nisioenv.cli import load_config, main, run, verify_suite
from nisioenv.errors import ConfigurationError
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


CP_FAMILY = {"family": "compound_poisson", "lambda_list": [0.0, 1.0], "jump_atoms": [[1.0, 1.0]]}

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
    @pytest.mark.parametrize("path, value", [
        ("time.t", float("nan")),
        ("time.t", float("inf")),
        ("time.t", float("-inf")),
        ("time.tol_rel", float("nan")),
        ("initial.params.radius", float("nan")),
        ("grid.upper", float("inf")),
        ("norm.p", float("nan")),
        ("grid.n_nodes", 257.9),
        ("grid.n_nodes", 3),
        ("grid.n_nodes", 1e300),
        ("time.n_max", 2.7),
        ("time.n_max", 13),
        ("seeds", 0.5),
        ("family.jump_atoms", [[1.0, float("nan")]]),
        ("family.jump_atoms", [[float("nan"), 1.0]]),
        ("initial.params.path", 5),
        ("initial.params.path", []),
        ("initial.params.path", None),
    ])
    def test_non_finite_and_non_integer(self, tmp_path, capsys, path, value):
        out = tmp_path / "out"
        cfg = base_config(out)
        if path.startswith("family."):
            cfg["family"] = dict(CP_FAMILY)
        if path == "initial.params.path":
            cfg["initial"] = {"kind": "custom_csv"}
        code = run("envelope", write_config(tmp_path, _set(cfg, path, value)))
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("subcommand, path, value, cap", [
        ("compare-ode", "ode.dt", 1e-9, "_MAX_RK4_STEPS"),  # 2.5e8 RK4 steps
        ("compare-hjb", "time.t", 1e6, "_MAX_UPWIND_STEPS"),  # 1.2e9 upwind steps
        ("derivative", "derivative.quad_nodes", 1_000_001, "_MAX_PATH_STEPS"),  # 1e6 path steps
    ])
    def test_oracle_step_caps(self, tmp_path, capsys, subcommand, path, value, cap):
        out = tmp_path / "out"
        cfg = base_config(out)
        if subcommand == "compare-ode":
            cfg["family"] = dict(CP_FAMILY)
        code = run(subcommand, write_config(tmp_path, _set(cfg, path, value)))
        assert code == 2
        assert not out.exists()
        assert f"at most {getattr(cli, cap)} " in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, edits, words", [
        # t / dt is inf; t / dt overflows the upwind count
        ("compare-ode", {"ode.dt": 1e-320}, ("not a finite count", "`ode.dt`", "`time.t`")),
        ("compare-hjb", {"time.t": 1e306}, ("not a finite count", "`time.t`", "`grid`")),
        # ||f||_2 overflows: a bump of height 1e308 on the one node at its centre
        *[(sub, {"initial.params": {"radius": 1e-300, "height": 1e308}}, ("`initial`", "`norm.p`"))
          for sub in ("envelope", "generator", "derivative", "compare-hjb", "compare-ode")],
        # the Poisson weights of the largest compound Poisson step start from
        # e^-(lambda h) = 0: at h = t, at generator.h0, and for derivative at
        # (t + h) / 2^n_max, h its forward quotient's step
        ("envelope", {"family.lambda_list": [800.0], "time.t": 1.0},
         ("Poisson rate 800", "`family.lambda_list`", "`time.t`")),
        ("compare-ode", {"family.lambda_list": [0.0, 800.0], "time.t": 1.0}, ("Poisson rate 800", "`time.t`")),
        ("generator", {"family.lambda_list": [0.0, 1.0], "generator.h0": 800.0, "generator.k_steps": 0},
         ("Poisson rate 800", "`family.lambda_list`", "`generator.h0`")),
        ("derivative", {"family.lambda_list": [0.0, 710.0], "time.t": 1.0, "time.n_max": 0},
         ("Poisson rate 711.1", "`time.t`", "`time.n_max`")),
    ])
    def test_beyond_float_range(self, tmp_path, capsys, subcommand, edits, words):
        out = tmp_path / "out"
        cfg = base_config(out)
        if subcommand == "compare-ode" or any(path.startswith("family.") for path in edits):
            cfg["family"] = dict(CP_FAMILY)
        for path, value in edits.items():
            _set(cfg, path, value)
        assert run(subcommand, write_config(tmp_path, cfg)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert all(word in err for word in words)

    def test_grid_spacing_underflow(self, tmp_path, capsys):
        # dx^2 of 2.5e-301 underflows to 0; the step formula divides by it
        out = tmp_path / "out"
        cfg = base_config(out, grid={"lower": 0.0, "upper": 1e-300, "n_nodes": 5})
        assert run("compare-hjb", write_config(tmp_path, cfg)) == 2
        assert not out.exists()
        assert "dx^2 underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, bound, t, message", [
        ("envelope", 60.0, 0.5, "C(h) growth factor"),  # exp((q-1) t lam^2 / 2) = exp(900)
        ("compare-hjb", 1e307, 0.25, "upwind step"),  # lam / dx overflows, the step is 0
    ])
    def test_drift_bound_beyond_float_range(self, tmp_path, capsys, subcommand, bound, t, message):
        out = tmp_path / "out"
        cfg = _set(_set(base_config(out), "family.lambda_interval", [-bound, bound]), "time.t", t)
        assert run(subcommand, write_config(tmp_path, cfg)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "`family.lambda_interval`" in err

    @pytest.mark.parametrize("subcommand, path, value", [
        ("generator", "generator.h0", "x"),
        ("generator", "generator.h0", -1),
        ("generator", "generator.k_steps", 2.5),
        ("derivative", "derivative.quad_nodes", 4),
        ("derivative", "derivative.quad_nodes", 1),
        ("derivative", "derivative.integral_tol", float("nan")),
        ("compare-hjb", "hjb.cfl", 2.0),
        ("compare-hjb", "compare.boundary_margin", 0.5),
        ("compare-ode", "ode.dt", 0),
        ("counterexample", "counterexample.epsilons", [0.01, 0.1]),
        ("counterexample", "counterexample.epsilons", ["x"]),
        ("counterexample", "counterexample.t", 1.0),
        ("verify", "generator", [1]),
        ("counterexample", "grid.n_nodes", 601),  # the default ladder resolves one decade
    ])
    def test_subcommand_options(self, tmp_path, subcommand, path, value):
        out = tmp_path / "out"
        cfg = base_config(out)
        if subcommand == "compare-ode":
            cfg["family"] = dict(CP_FAMILY)
        if subcommand == "counterexample":
            cfg["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
            cfg["grid"] = {"lower": -3.0, "upper": 3.0, "n_nodes": 2401}
        code = run(subcommand, write_config(tmp_path, _set(cfg, path, value)))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, path, value", [
        ("envelope", "time.nmax", 2),
        ("envelope", "initial.params.radiuss", 2.0),
        ("envelope", "family.jump_atoms", [[1.0, 1.0]]),  # read for compound_poisson only
        ("generator", "generator.k_step", 3),
    ])
    def test_unknown_key_in_section(self, tmp_path, capsys, subcommand, path, value):
        out = tmp_path / "out"
        code = run(subcommand, write_config(tmp_path, _set(base_config(out), path, value)))
        assert code == 2
        assert not out.exists()
        assert path in capsys.readouterr().err

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

    def test_pure_shift_rejected_with_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
        code = run("envelope", write_config(tmp_path, cfg))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "no envelope bound available" in err and "counterexample" in err

    def test_gaussian_p1_rejected_with_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out, norm={"p": 1})
        code = run("envelope", write_config(tmp_path, cfg))
        assert code == 2
        assert not out.exists()
        assert "p > 1" in capsys.readouterr().err

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

    def test_no_artifacts_on_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["time"]["t"] = -1.0
        code = run("envelope", write_config(tmp_path, cfg))
        assert code == 2
        assert not out.exists()


class TestRunOtherSubcommands:
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

    def test_compare_ode_wrong_family_exit_2(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert run("compare-ode", path) == 2

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

    def test_counterexample_under_resolved_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, counterexample={"t": 0.5, "epsilons": [1e-6]})
        cfg["family"] = {"family": "pure_shift", "lambda_interval": [-1.0, 1.0]}
        code = run("counterexample", write_config(tmp_path, cfg))
        assert code == 2
        assert not out.exists()

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

    def test_small_scale_all_pass(self):
        report = verify_suite("small", seed=0)
        failed = [c.name for c in report.checks if not c.passed]
        assert not failed, failed
        assert len(report.checks) >= 20

    def test_invalid_scale(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("verify", write_config(tmp_path, base_config(out)), scale="huge") == 2
        assert not out.exists()
        assert "scale must be small or full" in capsys.readouterr().err

    def test_verify_subcommand(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert run("verify", path, scale="small") == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [name for name, _ in VERIFY_CHECKS]
        assert [c["tolerance"] for c in doc["checks"]] == pytest.approx([tol for _, tol in VERIFY_CHECKS],
                                                                         rel=1e-12, abs=0.0)
        probes = json.loads((out / "probes.json").read_text())
        assert set(probes) == {"t", "gap", "L_estimate", "M", "omega", "pass"}
        assert probes["pass"] is True
