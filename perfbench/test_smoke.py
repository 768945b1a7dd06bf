"""Smoke test of the benchmark at a tiny size.

Every named metric appears with its unit, the outputs check out, the
environment is recorded, the spans nest under `cli.run`, and the benchmark
refuses to run without the program. From the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _load_spans(path: Path) -> dict[int, list[list]]:
    passes: dict[int, list[list]] = {}
    for line in path.read_text().splitlines()[1:]:
        k, name, start, end, parent, job = line.split(",")
        passes.setdefault(int(k), []).append(
            [name, float(start), float(end), int(parent), None if job == "None" else int(job)])
    return passes


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_appears_with_its_unit(workload, trace):
    result, text = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    # the per-subcommand medians, the reference error and the failure share are printed by name
    subs = {sub for per in workloads.SUBCOMMANDS[workload].values() for sub in per}
    for sub in subs:
        assert f"\n{sub.replace('-', '_')}_s = " in text
    assert "ref_err_max" in text and "failed_frac = " in text

    work = ROOT / ".perfbench_work" / f"{workload}-seed{SEED}-trace{trace}"
    env = json.loads((work / "result.json").read_text())["environment"]
    assert env["python"] and env["numpy"] and env["scipy"] and env["nproc"] >= 1
    assert set(env["threads"].values()) == {"1"}

    if trace:
        passes = _load_spans(work / "spans.csv")
        assert sorted(passes) == [0, 1]
        n_jobs = len(json.loads((work / "result.json").read_text())["jobs"])
        for spans in passes.values():
            assert tracing.check_nesting(spans) == []
            roots = [s for s in spans if s[tracing.PARENT] < 0]
            assert [s[tracing.JOB] for s in roots] == list(range(n_jobs))
            assert len(spans) > len(roots)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss-hjb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
