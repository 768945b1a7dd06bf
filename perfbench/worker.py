"""One benchmark process: set up, run the closed loop, write result.json.

Started by ``run.py`` in a fresh interpreter with the BLAS/OpenMP thread
variables pinned to 1. Modes:

* ``setup``  import nisioenv, write the workload's inputs, load the first
  config, print ``ready`` and exit (one set-up sample);
* ``run``    the same set-up, then passes over the job list until
  ``--seconds`` is used up; with ``--trace 1`` two traced passes and the
  microbenchmarks follow;
* ``record`` one pass per seed, writing the digests and exit codes that
  ``expected.json`` holds.

One client, one process, one thread: each job is a blocking in-process call
of ``nisioenv.cli.run`` and the next starts when it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import nisioenv  # noqa: E402
from nisioenv import cli  # noqa: E402

import micro  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def job_key(workload: str, job: workloads.Job) -> str:
    """Content address of a job: the same config gives the same key, whatever seed made it."""
    digest = hashlib.sha256((ROOT / job.config).read_bytes()).hexdigest()[:16]
    return f"{workload}|{job.subcommand}|{job.scale}|{digest}"


def _csv_problems(path: Path, rows: int | None) -> list[str]:
    lines = path.read_text().splitlines()
    body = lines[1:]
    if rows is not None and len(body) != rows:
        return [f"{path.name}: {len(body)} rows, expected {rows}"]
    for line in body:
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError:
            return [f"{path.name}: unparseable row {line!r}"]
        if not all(math.isfinite(v) for v in vals):
            return [f"{path.name}: non-finite row {line!r}"]
    return []


def inspect_job(job: workloads.Job, out: Path, rc) -> dict:
    """Check one job's outputs. A FAIL verdict (exit 1) is a result; an
    exception, exit 2 or a missing or unparseable report.json is a failure."""
    rec = {"rc": rc, "failed": False, "problems": [], "report_sha256": None,
           "artifact_sha256": None, "ref_err": None}
    if rc not in (0, 1):
        rec["failed"] = True
        rec["problems"].append(f"exit code {rc}")
        return rec
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        rec["failed"] = True
        rec["problems"].append(f"report.json: {exc}")
        return rec
    rec["report_sha256"] = _sha(out / "report.json")
    if report.get("subcommand") != job.subcommand:
        rec["problems"].append(f"report.json names subcommand {report.get('subcommand')!r}")
    if report.get("passed") is not (rc == 0) or not report.get("checks"):
        rec["problems"].append(f"report.json passed={report.get('passed')} disagrees with exit code {rc}")
    artifact = out / workloads.PRIMARY_ARTIFACT[job.subcommand]
    rec["artifact_sha256"] = _sha(artifact)
    if rec["artifact_sha256"] is None:
        rec["problems"].append(f"missing {artifact.name}")
    elif artifact.suffix == ".csv":
        grid_rows = artifact.name in ("final.csv", "envelope.csv")
        rec["problems"] += _csv_problems(artifact, report["config"]["grid"]["n_nodes"] if grid_rows else None)
    else:
        try:
            json.loads(artifact.read_text())
        except json.JSONDecodeError as exc:
            rec["problems"].append(f"{artifact.name}: {exc}")
    if job.subcommand in workloads.REFERENCE_ERROR:
        name, key = workloads.REFERENCE_ERROR[job.subcommand]
        try:
            err = float(json.loads((out / name).read_text())[key])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            rec["problems"].append(f"{name}: no {key} ({exc})")
        else:
            rec["ref_err"] = err
            if not math.isfinite(err):
                rec["problems"].append(f"{name}: {key} = {err}")
    return rec


# Calibration kernel: fixed NumPy work that shares nothing with nisioenv.
_CAL_DATA = np.random.default_rng(0).standard_normal(2049)
_CAL_TAPS = np.exp(-np.linspace(-3.0, 3.0, 9) ** 2)


def calibrate() -> float:
    """Seconds for a fixed mix of short NumPy calls on a 2049-node array
    (a 9-tap convolution, an average of neighbours, a neighbour maximum, a
    sum) and a Python-level sum: call overhead dominates, as in the jobs.

    The machine is shared: while other tenants load it, the same call runs
    up to twice as slow, in bursts from under a second to minutes. Timed
    before every job, this kernel sees the same slowdowns, so job time
    divided by calibration time (`wall_cal`) stays put where seconds do not.
    It never changes with nisioenv, so a faster program lowers `wall_cal`.
    """
    t0 = time.perf_counter()
    for _ in range(300):
        b = np.convolve(_CAL_DATA, _CAL_TAPS, mode="same")
        c = 0.5 * (b[1:] + b[:-1])
        d = np.maximum(c[1:], c[:-1])
        float(d.sum())
        sum(d[:100].tolist())
    return time.perf_counter() - t0


def run_pass(jobs, out_root: Path, log, tracer=None) -> tuple[float, list[dict]]:
    """Run every job once, in order, each after a calibration sample.
    Returns the summed call time and one record per job."""
    records = []
    total = 0.0
    for idx, job in enumerate(jobs):
        out = out_root / job.name.replace("/", "__")
        if tracer is not None:
            tracer.job = idx
        error = None
        cal = calibrate()
        with contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            try:
                rc = cli.run(job.subcommand, str(ROOT / job.config), out_dir=str(out), scale=job.scale)
            except Exception as exc:  # a raising job is counted, the loop goes on
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        total += elapsed
        rec = inspect_job(job, out, rc)
        if error:
            rec["problems"].append(error)
        rec.update(name=job.name, subcommand=job.subcommand, s=elapsed, cal=cal)
        records.append(rec)
    return total, records


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loop": "closed, 1 client, 1 process, 1 thread",
    }


def summarize_jobs(workload: str, jobs, passes: list[list[dict]]) -> dict:
    """End-to-end metrics and output checks over the untraced passes."""
    records = [r for recs in passes for r in recs]
    by_sub: dict[str, list[float]] = {}
    for r in records:
        by_sub.setdefault(r["subcommand"], []).append(r["s"])
    problems = [f"{r['name']}: {p}" for r in records for p in r["problems"]]
    # the determinism contract: a job's report.json and artifact repeat across passes
    for idx, job in enumerate(jobs):
        seen = {(recs[idx]["report_sha256"], recs[idx]["artifact_sha256"]) for recs in passes}
        if len(seen) > 1:
            problems.append(f"{job.name}: outputs differ between passes")
    expected = json.loads(EXPECTED.read_text())["jobs"] if EXPECTED.is_file() else {}
    drift = {"digests_changed": 0, "verdicts_changed": 0, "unrecorded": 0, "changed_jobs": []}
    for job, r in zip(jobs, passes[0]):
        want = expected.get(job_key(workload, job))
        if want is None:
            drift["unrecorded"] += 1
            continue
        if want["exit"] != r["rc"]:
            drift["verdicts_changed"] += 1
            drift["changed_jobs"].append(f"{job.name}: exit {want['exit']} -> {r['rc']}")
        if (want["report_sha256"], want["artifact_sha256"]) != (r["report_sha256"], r["artifact_sha256"]):
            drift["digests_changed"] += 1
            drift["changed_jobs"].append(f"{job.name}: digest changed")
    ref_errs = [r["ref_err"] for r in records if r["ref_err"] is not None]
    failed = sum(1 for r in records if r["failed"])
    wall = statistics.mean(sum(r["s"] for r in recs) for recs in passes)
    cal = statistics.mean(r["cal"] for r in records)
    return {
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "problems": problems[:50],
        "passes": len(passes),
        "wall_s": wall,
        "cal_s": cal,
        "wall_cal": wall / cal,
        "per_subcommand": {sub: {"median_s": statistics.median(ts), "n": len(ts)} for sub, ts in by_sub.items()},
        "ref_err_max": max(ref_errs) if ref_errs else None,
        "verdicts": {job.name: r["rc"] for job, r in zip(jobs, passes[0])},
        "drift": drift,
    }


def closed_loop(jobs, out_root: Path, log, seconds: float) -> list[list[dict]]:
    """Passes over the job list; a pass starts only if it should end in time."""
    passes = []
    start = time.perf_counter()
    while True:
        t, recs = run_pass(jobs, out_root, log)
        passes.append(recs)
        if time.perf_counter() - start + t > seconds:
            return passes


def traced_passes(jobs, out_root: Path, log, work: Path) -> dict:
    tracer = tracing.Tracer(nisioenv)
    spans_path = work / "spans.csv"
    spans_path.write_text("pass,name,start,end,parent,job\n")
    summaries, counts, passes, problems = [], [], [], []
    tracer.install()
    try:
        for k in range(2):
            _, recs = run_pass(jobs, out_root, log, tracer)
            passes.append(recs)
            summaries.append(tracing.summarize(tracer.spans))
            counts.append(tracing.call_counts(tracer.spans))
            problems += tracing.check_nesting(tracer.spans)
            tracing.write_spans(tracer.spans, spans_path, k)
            tracer.spans.clear()
    finally:
        tracer.uninstall()
    if counts[0] != counts[1]:
        diff = sorted(n for n in set(counts[0]) | set(counts[1]) if counts[0].get(n) != counts[1].get(n))
        problems.append(f"traced call counts differ between the two traced passes: {diff[:10]}")
    traced_wall = statistics.mean(sum(r["s"] for r in recs) for recs in passes)
    traced_cal = statistics.mean(r["cal"] for recs in passes for r in recs)
    return {"metrics": summaries[0], "traced_wall_cal": traced_wall / traced_cal, "problems": problems}


def record(workload: str, seeds: list[int], work: Path, log) -> dict:
    out = {}
    for seed in seeds:
        jobs = workloads.build_jobs(workload, seed, ROOT, work / f"seed{seed}")
        todo = [j for j in jobs if job_key(workload, j) not in out]
        _, recs = run_pass(todo, work / "out", log)
        for job, r in zip(todo, recs):
            if r["failed"] or r["problems"]:
                raise RuntimeError(f"{workload} seed {seed} {job.name}: {r['problems']}")
            out[job_key(workload, job)] = {"exit": r["rc"], "report_sha256": r["report_sha256"],
                                           "artifact_sha256": r["artifact_sha256"]}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "record"), required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    with open(args.work / "cli.log", "w") as log:
        if args.mode == "record":
            result = record(args.workload, args.seeds, args.work, log)
            (args.work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
            return
        jobs = workloads.build_jobs(args.workload, args.seed, ROOT, args.work / "inputs", tiny=args.tiny)
        cli.load_config(ROOT / jobs[0].config)
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.mode == "setup":
            return

        out_root = args.work / "out"
        passes = closed_loop(jobs, out_root, log, args.seconds)
        result = summarize_jobs(args.workload, jobs, passes)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
        result["jobs"] = [job.__dict__ for job in jobs]
        if args.trace:
            traced = traced_passes(jobs, out_root, log, args.work)
            layer = traced["metrics"]
            # in calibration units first, so a burst of load in one of the runs cancels
            layer["trace.overhead_s"] = (traced["traced_wall_cal"] - result["wall_cal"]) * result["cal_s"]
            layer.update(micro.run_micro(nisioenv, ROOT, reps=1 if args.tiny else 5))
            result["per_layer"] = layer
            result["problems"] += traced["problems"]
        (args.work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
