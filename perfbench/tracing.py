"""Spans around the public functions of the six nisioenv modules.

The tracer wraps every public module-level function of ``funcspace``,
``kernels``, ``envelope``, ``calculus``, ``reference`` and ``cli`` at every
name that binds it (``envelope.step_J``, ``reference.step_J``,
``calculus.apply_partition``, the package namespace, ...), so calls between
modules are seen wherever they are made. Each call records a span
``[name, start, end, parent, job]`` in memory; nothing is written until the
caller asks. Nothing under ``src/`` is changed: the wrappers are removed by
``uninstall``.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = ("funcspace", "kernels", "envelope", "calculus", "reference", "cli")

# Functions whose call count and self time are reported one by one.
REPORTED = (
    "cli.run", "cli.load_config",
    "calculus.integral_identity_check", "calculus.derivative_identity_check",
    "calculus.directional_derivative", "calculus.generator_fd",
    "envelope.nisio_dyadic", "envelope.apply_partition", "envelope.step_J",
    "kernels.apply_member", "kernels.sup_generator", "kernels.upper_bound_C", "kernels.heat_convolve",
    "reference.hjb_upwind", "reference.ode_reference", "reference.counterexample_scan", "reference.compare",
    "funcspace.lp_norm", "funcspace.pointwise_max", "funcspace.write_csv",
)

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """Install wrappers, collect spans, restore the original bindings."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            spans[idx][START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        mods = [getattr(self.package, m) for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in (self.package, *mods):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()


def check_nesting(spans: list[list]) -> list[str]:
    """Problems with the span tree: each span lies inside its parent, every
    root is a `cli.run` call, and every span shares its root's job id."""
    problems = []
    root_of = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            problems.append(f"span {i} ({s[NAME]}) ends before it starts")
        p = s[PARENT]
        if p < 0:
            root_of[i] = i
            if s[NAME] != "cli.run":
                problems.append(f"span {i} ({s[NAME]}) has no cli.run ancestor")
            continue
        parent = spans[p]
        if p >= i or s[START] < parent[START] or s[END] > parent[END]:
            problems.append(f"span {i} ({s[NAME]}) is not inside its parent {p} ({parent[NAME]})")
        root_of[i] = root_of[p]
        if s[JOB] != spans[root_of[i]][JOB]:
            problems.append(f"span {i} ({s[NAME]}) has job {s[JOB]}, its cli.run has {spans[root_of[i]][JOB]}")
    return problems[:20]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `<module>.busy_s` is the time some function of the module is on the
    stack; `<module>.self_s` and `<fn>.self_s` subtract the time covered by
    child spans. `envelope.dyadic_useful_ratio` is the share of `step_J`
    calls under `nisio_dyadic` that belong to the level it returns (0 when
    `nisio_dyadic` is not called).
    """
    n = len(spans)
    child_time = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
            children[s[PARENT]].append(i)

    bit = {m: 1 << k for k, m in enumerate(MODULES)}
    above = [0] * n  # bitmask of modules among a span's ancestors
    calls = {name: 0 for name in REPORTED}
    fn_self = {name: 0.0 for name in REPORTED}
    mod_busy = {m: 0.0 for m in MODULES}
    mod_self = {m: 0.0 for m in MODULES}
    for i, s in enumerate(spans):
        mod = s[NAME].split(".", 1)[0]
        p = s[PARENT]
        if p >= 0:
            above[i] = above[p] | bit[spans[p][NAME].split(".", 1)[0]]
        dur = s[END] - s[START]
        self_t = dur - child_time[i]
        mod_self[mod] += self_t
        if not above[i] & bit[mod]:
            mod_busy[mod] += dur
        if s[NAME] in calls:
            calls[s[NAME]] += 1
            fn_self[s[NAME]] += self_t

    useful = attempted = 0
    for i, s in enumerate(spans):
        if s[NAME] != "envelope.nisio_dyadic":
            continue
        levels = [c for c in children[i] if spans[c][NAME] == "envelope.apply_partition"]
        steps = [sum(1 for g in children[c] if spans[g][NAME] == "envelope.step_J") for c in levels]
        if steps:
            useful += steps[-1]
            attempted += sum(steps)

    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.busy_s"] = mod_busy[m]
        out[f"{m}.self_s"] = mod_self[m]
    for name in REPORTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = fn_self[name]
    out["envelope.dyadic_useful_ratio"] = useful / attempted if attempted else 0.0
    return out


def call_counts(spans: list[list]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    return counts


def write_spans(spans: list[list], path, pass_no: int) -> None:
    with open(path, "a") as fh:
        for s in spans:
            fh.write(f"{pass_no},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[JOB]}\n")
