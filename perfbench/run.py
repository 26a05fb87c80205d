"""Pipeline benchmark for orevine.

    python3 perfbench/run.py --workload {scan,fit,predict,loo} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The run
sets its workload up several times (reporting the median as `setup_s`),
repeats the timed CLI phase until its passes add up to S seconds (the
median is `phase_s`; both times are normalised to a reference machine
speed, see speed.py), checks every output, and prints one JSON object as
its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (untraced).  With
--trace 1 the run sets up once under tracing, makes one untraced and one
traced pass (loo: untraced at parallelism nproc, then untraced and traced
at parallelism 1), and reports the per-layer metrics of
`perfbench/metrics.py`, including the workload figures and the tracing
overhead.  Work files live under ./.perfbench_work and are removed at exit.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS/OpenMP pools before numpy loads: the installed OpenBLAS would
# otherwise size its pool to the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def import_package():
    """Import orevine from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "orevine" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'orevine'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import orevine
    if Path(orevine.__file__).resolve().parent != (src / "orevine").resolve():
        raise SystemExit(f"error: orevine imported from {orevine.__file__}")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():   # a plain checkout carries no history
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "cpus": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak RSS of its largest waited-for
    child, in MiB.

    This is not the peak of the whole process tree: the kernel reports only
    the largest child's peak, so on `loo` one of the nproc pool workers is
    counted, and the pages it shares copy-on-write with the parent are
    counted twice.  On the other workloads no child runs (or only
    `git rev-parse`, where the checkout has a .git).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Outcome:
    """Failure accounting and check messages across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.figures: dict = {}

    def add(self, result, check) -> None:
        self.attempted += result.attempted
        self.failed += min(result.attempted, result.failed + check.failed)
        self.errors += result.errors + check.errors
        self.figures = check.figures


def run_untraced(wl, work: Path, seconds: float, outcome: Outcome) -> dict:
    """Set up SETUP_REPEATS times, then repeat the timed phase until its
    passes add up to `seconds` of wall time; times are reported in seconds
    at the reference machine speed (see speed.py), as medians."""
    from speed import SpeedSampler

    walls = {"setup_s": [], "phase_s": []}
    times = {"setup_s": [], "phase_s": []}
    for k in range(SETUP_REPEATS):
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            state = wl.setup(fresh_dir(work / f"setup{k}"))
            wall = time.perf_counter() - start
        walls["setup_s"].append(wall)
        times["setup_s"].append(sampler.normalised(wall))
    while sum(walls["phase_s"]) < seconds or not walls["phase_s"]:
        out = fresh_dir(work / "out")
        with SpeedSampler() as sampler:
            result = wl.run_pass(state, out)
        walls["phase_s"].append(result.wall_s)
        times["phase_s"].append(sampler.normalised(result.wall_s))
        outcome.add(result, wl.check(state, out, result))   # untimed
    for name in times:
        print(f"{name} samples: {[round(t, 4) for t in times[name]]}, wall "
              f"{[round(t, 4) for t in walls[name]]}")
    return {"setup_s": statistics.median(times["setup_s"]),
            "phase_s": statistics.median(times["phase_s"]),
            "peak_rss_mb": peak_rss_mb()}


def layer_figures(setup_stats: dict, phase_stats: dict) -> dict:
    """calls and self_s per traced function, over set-up plus traced phase."""
    from metrics import LAYERS
    out = {}
    for name, _, _ in LAYERS:
        recs = [st[name] for st in (setup_stats, phase_stats) if name in st]
        out[f"{name}.calls"] = sum(r.calls for r in recs)
        out[f"{name}.self_s"] = sum(r.self_s for r in recs)
    return out


def run_traced(wl, work: Path, nproc: int, outcome: Outcome) -> dict:
    from metrics import FIGURES
    from tracer import EM, EM_IN_FOLD, FOLD, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(fresh_dir(work / "setup"))
    finally:
        tracer.uninstall()
    setup_stats = tracer.stats
    tracer.reset()

    def untraced_pass(tag, parallelism=None):
        out = fresh_dir(work / tag)
        result = wl.run_pass(state, out, parallelism=parallelism)
        outcome.add(result, wl.check(state, out, result))
        return result

    untraced = untraced_pass("untraced")
    figures = {name: 0.0 for name, *_ in FIGURES}
    figures.update(outcome.figures)
    # Spans opened in forked LOO workers never reach this process, so loo
    # traces a serial pass and compares it with an untraced serial pass.
    serial = 1 if wl.name == "loo" else None
    baseline = untraced_pass("serial", 1) if serial else untraced

    out = fresh_dir(work / "traced")
    tracer.install()
    try:
        traced = wl.run_pass(state, out, parallelism=serial)
    finally:
        tracer.uninstall()
    outcome.add(traced, wl.check(state, out, traced))
    stats = tracer.stats

    figures.update(layer_figures(setup_stats, stats))
    figures["tracing_overhead_s"] = traced.wall_s - baseline.wall_s

    em_runs = stats.get(EM_IN_FOLD) or stats.get(EM)
    figures[f"{EM}.max_ms"] = 1e3 * max(em_runs.durations) if em_runs else 0.0

    predict = stats.get("model.predict_vfvm")
    rows = predict.calls if predict else 0
    density = stats.get("vine.vine_log_density")
    median = stats.get("model.conditional_median")
    figures["vine.vine_log_density.calls_per_row"] = (
        density.calls / rows if rows and density else 0.0)
    cuts = (statistics.quantiles(predict.durations, n=100, method="inclusive")
            if rows > 1 else [0.0] * 99)
    figures["model.predict_vfvm.p50_ms"] = 1e3 * cuts[49]
    figures["model.predict_vfvm.p95_ms"] = 1e3 * cuts[94]
    figures["model.composite_branch_share"] = (
        (median.calls if median else 0) / rows if rows else 0.0)

    folds = stats.get(FOLD)
    efficiency = 0.0
    if folds and wl.name == "loo":
        non_fold = traced.wall_s - folds.total_s
        efficiency = folds.total_s / (nproc * (untraced.wall_s - non_fold))
    figures["evaluation.parallel_efficiency"] = efficiency
    print(f"traced pass {traced.wall_s:.4f} s, untraced baseline "
          f"{baseline.wall_s:.4f} s")
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from metrics import END_TO_END, FIGURES, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    nproc = len(os.sched_getaffinity(0))
    print("env: " + json.dumps(environment(args, nproc), sort_keys=True))

    wl = WORKLOADS[args.workload](args.seed, nproc)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outcome = Outcome()
    try:
        if args.trace:
            figures = run_traced(wl, work, nproc, outcome)
            table = [(n, u) for n, u, *_ in per_layer()]
        else:
            figures = run_untraced(wl, work, args.seconds, outcome)
            table = [(n, u) for n, u, *_ in END_TO_END]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    figures["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    if not args.trace:  # the workload figures, reported as metrics when traced
        shown = {**outcome.figures, "error_rate": figures["error_rate"]}
        for name, unit, *_ in FIGURES:
            if name in shown:
                print(f"figure {name} = {shown[name]!r} {unit}")
    for message in outcome.errors:
        print(f"check failed: {message}")
    metrics = {}
    for name, unit in table:
        value = figures[name]
        print(f"{name} = {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    correct = outcome.failed == 0 and not outcome.errors
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
