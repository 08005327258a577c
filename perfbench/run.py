"""Benchmark for skewprod: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME|all --seconds S [--seed N] [--trace 0|1]

Run from the root of a source checkout; skewprod is imported from
src/.  The run times whole operations of one workload (see workloads.py
and README.md), starting one after another until --seconds have passed,
checks each output against its gate and prints a table, then, as its
last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 it
alternates untraced and traced operations and reports the per-layer
metrics of tracing.py; the spans go to .perfbench_out/.  The exit code
is 1 when a gate fails and 2 when skewprod cannot be found.  With
--workload all it runs every workload in turn, each in a process of its
own, and prints each one's table and result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

import tracing
import workloads
from workloads import clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "germ_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# Printed in the table but left out of the result line.  The timed
# campaign always runs 220 germs, so germs_per_s is 220 / wall_s there
# and 1 / wall_s on the oracle workloads.  germ_ms_p95 has 11 samples
# beyond it on fuzz_campaign, but an oracle run has one germ per
# operation and 1-14 operations a run, so there it is near the slowest.
TABLE_ONLY = {"germs_per_s": "1/s", "germ_ms_p95": "ms", "germ_samples": "count"}


def environment() -> dict:
    """What must match before two results may be compared."""
    import skewprod

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "kernel_backend": skewprod.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def measure_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to its first operation
    being ready: start-up, `import skewprod` and building the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seconds", "0"]
    start = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
        line = child.stdout.readline()
        ready = clock()
        child.stdout.read()
    if child.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"setup probe failed (exit {child.returncode})")
    return ready - start


def percentile(values: list, pct: int) -> float:
    """Interpolated between samples, never beyond the largest one."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def raised(exc: Exception) -> list:
    traceback.print_exc()
    return [f"raised {exc!r}"]


def one_operation(workload, run, inputs, germ_seconds: list):
    """Time run(inputs) and check its output; returns (seconds, germs,
    problems), so the result is freed before the next operation."""
    start = clock()
    try:
        result, text = run(inputs, germ_seconds)
    except Exception as exc:  # a failed operation; the run goes on
        return clock() - start, 0, raised(exc)
    seconds = clock() - start
    return seconds, workload.germs(result), workload.check(result, text)


def seeded_gates(workload, seed: int) -> list:
    try:
        return workload.seeded_gates(seed)
    except Exception as exc:  # a failed operation; the run goes on
        return [raised(exc)]


def run_untraced(workload, inputs, seed: int, seconds: float):
    setup = [measure_setup(workload.name) for _ in range(SETUP_REPEATS)]
    walls, rates, germ_seconds, problems = [], [], [], []
    started = clock()
    while not walls or clock() - started < seconds:
        wall, germs, gate = one_operation(
            workload, workload.run, inputs, germ_seconds)
        walls.append(wall)
        rates.append(germs / wall)
        problems.append(gate)
    # Operations that raised may leave no germ latency at all.
    germ_seconds = germ_seconds or walls
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "germs_per_s": statistics.median(rates),
        "germ_ms_p50": statistics.median(germ_seconds) * 1e3,
        "germ_ms_p95": percentile(germ_seconds, 95) * 1e3,
        "germ_samples": len(germ_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    problems += seeded_gates(workload, seed)
    return metrics, {**UNITS, **TABLE_ONLY}, problems


def run_traced(workload, inputs, seed: int, seconds: float, env: dict):
    tracer = tracing.Tracer(tracing.targets())

    def traced_run(inputs, germ_seconds):
        with tracer:
            return tracer.operation(workload.run, inputs, germ_seconds)

    walls, problems = [], []
    started = clock()
    while not walls or clock() - started < seconds:
        wall, _, gate = one_operation(workload, workload.run, inputs, [])
        walls.append(wall)
        problems.append(gate)
        _, _, gate = one_operation(workload, traced_run, inputs, [])
        problems.append(gate)
    problems[-1] += tracer.repeat_problems()
    problems += seeded_gates(workload, seed)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}.jsonl"),
                 {"workload": workload.name, "seed": seed, **env})
    metrics = tracing.layer_metrics(tracer, walls)
    return metrics, {name: tracing.unit(name) for name in metrics}, problems


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own so that its
    peak_rss_mb is its own; exits with the worst exit code."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "skewprod")):
        print(f"skewprod sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    inputs = workload.build()
    if args.setup_probe:
        sys.stdout.write("ready\n")
        return 0

    env = environment()
    print(f"# {workload.name} seed={seed} " + json.dumps(env))
    if args.trace:
        metrics, units, problems = run_traced(
            workload, inputs, seed, args.seconds, env)
    else:
        metrics, units, problems = run_untraced(
            workload, inputs, seed, args.seconds)
    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        for msg in p:
            print(f"# FAIL operation {i}: {msg}")
    attempted = len(problems)
    for name, value in metrics.items():
        print(f"{name:24} {value:>16.6g} {units[name]}")
    print(f"{'fail_rate':24} {failed / attempted:>16.6g} 1")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name not in TABLE_ONLY},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
