#!/usr/bin/env python3
"""Benchmark runner for tubebound: one workload, one process, closed loop.

    python3 bench/run.py --workload endpoint-mc --seed 1 --seconds 25 --trace 0

Run from a source checkout; the library is imported from `src/`, nothing
needs installing. The run

1. times `setup_s`: SETUP_REPEATS fresh interpreters, each importing
   tubebound and generating the workload's inputs; the median is reported;
2. repeats the workload's fixed call list while another pass fits in
   `--seconds` (at least once), checking every result against a closed
   form and timing every call;
3. prints each metric as `name value unit`, saves the result with an
   environment record under `.bench_out/results/`, and prints as its last
   line `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones, with no wrappers
installed. A shared cloud host changes speed by a third or more, over
seconds and over minutes, as other tenants load it. So the fixed
computation of `reference.py` is timed REFERENCE_ROUNDS times before the
first pass and after every pass, and each pass's time is divided by the
median of the rounds on either side of it: `wall_s` is REFERENCE_S times
the median over passes of (seconds in library calls / reference round),
and `time_to_1pct_s` and `setup_s` are scaled the same way. The unscaled
times are kept in the result file.

With `--trace 1` each iteration makes one untraced and one
traced pass, and the metrics are the per-layer ones of `spans.py`, taken
from the traced pass of median wall time, plus `trace.wall_s`,
`trace.overhead_s`, `failed_frac` and `estimate.overflow_drops`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REFERENCE_ROUNDS = 15  # reference rounds between passes, about 5 ms each
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# the keys of workloads.WORKLOADS, which imports numpy and so must wait for pin_threads
WORKLOAD_NAMES = ("verify-quick", "endpoint-mc", "path-mc", "bound-eval")


def pin_threads() -> int:
    """Single-threaded BLAS/OpenMP unless set; never above nproc. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(min(max(want, 1), nproc))
    return nproc


def import_library():
    """Import tubebound from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tubebound" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {src / 'tubebound'}; run from a tubebound source checkout")
    sys.path.insert(0, str(src))
    import tubebound

    if Path(tubebound.__file__).resolve().parent != (src / "tubebound").resolve():
        sys.exit(f"bench: imported tubebound from {tubebound.__file__}, not from {src}")
    return tubebound


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        samples.append(perf_counter() - t0)
        _, err = proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up child failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return samples


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = pin_threads()
    tubebound = import_library()
    from workloads import WORKLOADS, Pass, scratch_dir, time_to_1pct

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.make_inputs(args.seed)
        print("ready", flush=True)
        return 0

    load_before = os.getloadavg()
    setup = measure_setup(args.workload, args.seed)

    import numpy
    import scipy
    from reference import REFERENCE_S, reference_seconds
    from spans import Tracer, layer_metrics, write_spans
    from tubebound import verify

    inputs = workload.make_inputs(args.seed)
    scratch = scratch_dir(ROOT)
    tracer = Tracer() if args.trace else None
    criteria = [name for name, _ in verify.CRITERIA]

    walls, traced_walls, layer_rows, overflow = [], [], [], []
    untraced: list[Pass] = []  # passes that made the first pass's calls
    checks = failed = 0
    failures: list[str] = []
    t_start = perf_counter()
    iterations: list[float] = []
    # rounds[0] before the first pass, rounds[i + 1] after pass i
    rounds = [[reference_seconds() for _ in range(REFERENCE_ROUNDS)]]
    try:
        while True:
            t_iter = perf_counter()
            p = Pass(scratch, len(walls))
            t0 = perf_counter()
            workload.run(inputs, p)
            walls.append(perf_counter() - t0)
            if untraced and len(p.times) != len(untraced[0].times):
                p.check(False, "a pass made other calls than the first")
            else:
                untraced.append(p)
            overflow.append(p.overflow)
            rounds.append([reference_seconds() for _ in range(REFERENCE_ROUNDS)])
            passes = [p]
            if tracer:
                tracer.reset()
                tracer.install()
                try:
                    tp = Pass(scratch, p.index, tracer)
                    t0 = perf_counter()
                    workload.run(inputs, tp)
                    traced_walls.append(perf_counter() - t0)
                finally:
                    tracer.uninstall()
                layer_rows.append(layer_metrics(tracer.spans, traced_walls[-1], criteria))
                passes.append(tp)
            for q in passes:
                checks, failed = checks + q.checks, failed + q.failed
                failures += q.failures
            iterations.append(perf_counter() - t_iter)
            # start another iteration only if one of median length still fits
            if perf_counter() - t_start + statistics.median(iterations) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    load_after = os.getloadavg()

    def time_metrics(speeds: list[float], setup_speed: float) -> dict[str, float]:
        wall = statistics.median(sum(q.times) / v for q, v in zip(untraced, speeds))
        return {
            "setup_s": statistics.median(setup) / setup_speed,
            "wall_s": wall,
            # with no Monte Carlo estimate the answer is exact after one pass
            "time_to_1pct_s": time_to_1pct(untraced, speeds) if untraced[0].estimates else wall,
        }

    speeds = [statistics.median(rounds[q.index] + rounds[q.index + 1]) / REFERENCE_S for q in untraced]
    unscaled = time_metrics([1.0] * len(untraced), 1.0)
    end_to_end = {name: (secs, "s") for name, secs in
                  time_metrics(speeds, statistics.median(rounds[0]) / REFERENCE_S).items()}
    end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if tracer:
        # the traced pass of median wall time, so its module self times add
        # up to the reported trace.wall_s exactly
        mid = traced_walls.index(statistics.median_low(traced_walls))
        metrics = dict(layer_rows[mid])
        metrics["trace.wall_s"] = (traced_walls[mid], "s")
        metrics["trace.overhead_s"] = (traced_walls[mid] - statistics.median(walls), "s")
        metrics["failed_frac"] = (failed / checks, "fraction")
        metrics["estimate.overflow_drops"] = (float(statistics.median(overflow)), "count")
    else:
        metrics = end_to_end

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "tubebound": tubebound.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(), "platform": platform.platform(),
        "loadavg_before": load_before, "loadavg_after": load_after,
    }
    record = {
        "env": env, "passes": len(walls), "setup_samples_s": setup,
        "pass_walls_s": walls, "traced_walls_s": traced_walls, "calls_per_pass": len(untraced[0].times),
        "reference_rounds_s": rounds, "pass_speeds": speeds, "unscaled_s": unscaled,
        "checks": checks, "failed": failed, "failures": failures[:50],
        "end_to_end": as_json(end_to_end), "metrics": as_json(metrics),
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        write_spans(tracer.spans, results / f"{stem}-spans.jsonl")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
          f"checks={checks} failed={failed} nproc={nproc} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} commit={env['git_commit'][:12]} "
          f"load={load_before[0]:.2f}->{load_after[0]:.2f}")
    for msg in failures[:10]:
        print(f"# FAILED {msg}")
    if tracer:
        print("# end-to-end, from the untraced passes (peak_rss_mb includes the spans)")
        for name, (value, unit) in end_to_end.items():
            print(f"# {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": checks, "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
