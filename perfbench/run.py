"""Benchmark entry point: time to a verdict per nisioenv subcommand.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gauss-hjb --seed 1 --seconds 25 --trace 0

Workloads: gauss-hjb, poisson-ode, calculus-identities, shift-blowup (see
workloads.py for why each exists). It pins the BLAS/OpenMP thread
variables to 1, times set-up in fresh interpreters, runs the workload's job
list in a closed loop in one more fresh interpreter (worker.py), checks the
outputs and prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json; with `--trace 1` the per-layer
ones, from two traced passes plus microbenchmarks.

`--record N` instead runs every workload once for seeds 0..N-1 and writes
the exit codes and sha256 digests of their outputs to expected.json.

Everything is written under .perfbench_work/ in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_SAMPLES = 3          # fresh interpreters timed for set-up only; the run adds one more
DEADLINE_S = 170.0         # every run ends well inside 180 s
NEEDED = ("src/nisioenv/__init__.py", "configs/envelope_gaussian.json",
          "configs/compare_ode_compound_poisson.json", "configs/counterexample_shift.json")


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> float | None:
    """Run worker.py to its end; return the seconds from its start until it
    printed `ready <monotonic clock>` (the clock is system-wide on Linux)."""
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args[:4])} ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:4])} exited with {proc.returncode}")
    ready = [float(line.split()[1]) - t0 for line in out.splitlines() if line.startswith("ready ")]
    return ready[0] if ready else None


def bench(args, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    setup = []
    for k in range(1 if args.tiny else SETUP_SAMPLES):
        setup.append(_worker(["--mode", "setup", *common, "--work", str(work / f"setup{k}")], deadline))
    setup.append(_worker(["--mode", "run", *common, "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--work", str(work)], deadline))
    if None in setup:
        raise BenchError("a worker ended without reporting `ready`")
    res = json.loads((work / "result.json").read_text())
    res["setup_s"] = statistics.median(setup)
    res["setup_samples_s"] = setup
    (work / "result.json").write_text(json.dumps(res, indent=1, sort_keys=True))
    return res


def report(args, res: dict) -> dict:
    """Print every metric by name and unit; return the final JSON object."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = res["environment"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# why: {workloads.WHY[args.workload]}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"threads pinned {env['threads']}  loop: {env['loop']}")
    print(f"# {res['passes']} pass(es) over {len(res['jobs'])} jobs; verdicts {res['verdicts']}")
    for sub, st in sorted(res["per_subcommand"].items()):
        print(f"{sub.replace('-', '_')}_s = {st['median_s']:.6f} s  (median of {st['n']} calls)")
    print(f"wall_s = {res['wall_s']:.6f} s  (job list, mean of {res['passes']} passes)")
    print(f"cal_s = {res['cal_s']:.6f} s  (calibration kernel, mean of {res['attempted']} samples)")
    print(f"wall_cal = {res['wall_cal']:.3f} cal  (wall_s / cal_s)")
    print(f"setup_s = {res['setup_s']:.6f} s  (median of {len(res['setup_samples_s'])} fresh interpreters)")
    print(f"peak_rss_mb = {res['peak_rss_mb']:.1f} MB")
    if res["ref_err_max"] is None:
        print("ref_err_max: absent (no reference on this workload)")
    else:
        print(f"ref_err_max = {res['ref_err_max']:.6g} 1")
    print(f"failed_frac = {res['failed_frac']:.6g} 1  ({res['failed']} of {res['attempted']} jobs)")
    d = res["drift"]
    print(f"# against expected.json: {d['digests_changed']} digest(s) changed, "
          f"{d['verdicts_changed']} verdict(s) changed, {d['unrecorded']} job(s) unrecorded")
    for line in d["changed_jobs"]:
        print(f"#   {line}")
    for p in res["problems"]:
        print(f"# PROBLEM {p}")

    if args.trace:
        layer = res["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print("# bytes and ops_per_byte are computed from array sizes, not measured")
    else:
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def record(n: int, root: Path) -> None:
    jobs = {}
    for w in sorted(workloads.WHY):
        work = root / ".perfbench_work" / f"record-{w}"
        shutil.rmtree(work, ignore_errors=True)
        _worker(["--mode", "record", "--workload", w, "--seeds", *map(str, range(n)), "--work", str(work)],
                time.monotonic() + 3600.0)
        jobs.update(json.loads((work / "result.json").read_text()))
    doc = {"about": "exit code and sha256 of report.json and of the primary artifact per job, keyed by "
                    f"workload|subcommand|scale|sha256(config)[:16]; seeds 0..{n - 1}",
           "jobs": jobs}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description="nisioenv benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--record", type=int, metavar="N", help="write expected.json for seeds 0..N-1")
    args = ap.parse_args()

    root = Path.cwd()
    missing = [p for p in NEEDED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of a nisioenv checkout; missing {missing}", file=sys.stderr)
        return 2
    if args.record:
        record(args.record, root)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    try:
        res = bench(args, root)
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
