#!/usr/bin/env python3
"""Steadiness self-check: run workloads repeatedly, each run on its own seed,
and report each metric's median and quartiles against its bound.

    python3 bench/steady.py --runs 10                    # every workload
    python3 bench/steady.py --workloads path-mc --runs 5
    python3 bench/steady.py --runs 10 --against .bench_out/steady-first.json

A metric's spread is (q3 - q1) / median over the runs, with quartiles from
`statistics.quantiles(values, n=4)`. It should stay below a third of the
metric's bound in BENCHMARK.json; `setup_s` is exempt from that. With
`--against`, each median is also compared with the median of an earlier
summary: it may not be worse by more than the bound. Every run's result
must also be correct. The summary is written to `--out`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--against", default=None, help="earlier summary to compare medians with")
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "steady.json"))
    args = ap.parse_args(argv)

    metrics_spec = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    summary: dict = {}
    ok = True
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = [run_once(workload, s, args.seconds) for s in seeds]
        bad = [s for s, r in zip(seeds, results) if not r["correct"]]
        ok &= not bad
        rows = {}
        print(f"== {workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{args.seconds} s each; incorrect on seeds {bad or 'none'}")
        for name, m in metrics_spec.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "unit": m["unit"], "values": values}
            line = f"{name:48s} {med:12.6g} {m['unit']:8s} q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}"
            row["bound"] = m["bound"]
            steady = name == "setup_s" or spread <= m["bound"] / 3.0
            line += f" bound={m['bound']} {'steady' if steady else 'UNSTEADY'}"
            ok &= steady
            prev = before.get(workload, {}).get(name)
            if prev:
                change = (med - prev["median"]) / prev["median"]
                worse = change if m["better"] == "lower" else -change
                row["change"] = change
                line += f" vs earlier {change:+.3f} {'ok' if worse <= m['bound'] else 'WORSE'}"
                ok &= worse <= m["bound"]
            rows[name] = row
            print(line)
        summary[workload] = rows
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {args.out}; {'all steady and correct' if ok else 'NOT steady or not correct'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
