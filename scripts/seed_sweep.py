#!/usr/bin/env python3
"""False-alarm rate of `tubebound verify --quick`, measured over many seeds.

Runs verify.run_all(quick=True, seed) in process for --seeds seeds spaced
100 apart from verify's default seed (criteria offset the seed by at most
16, so no stream is shared between runs), then prints each criterion's
observed failure rate and the rate per run, each beside its nominal rate
1 - (1 - 2 Phi(-3))^k over the k Monte Carlo 3-sigma checks among the
records (an upper bound where a check adds a bias budget; domination
checks on a Monte Carlo mean are not counted). Exits 1 if any criterion fails
at MAX_RATE of the seeds or more: a sampler or estimator that changes must
keep the rate low by its n or its bias, never by a wider tolerance.

    python scripts/seed_sweep.py --seeds 50
"""
import argparse
import math
import sys
import time
from collections import Counter

from tubebound.verify import CRITERIA, DEFAULT_SEED, run_all

MAX_RATE = 0.1
ALARM = math.erfc(3.0 / math.sqrt(2.0))  # 2 Phi(-3), a two-sided 3-sigma check's false-alarm rate


def nominal(k: int) -> float:
    return 1.0 - (1.0 - ALARM) ** k


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=50)
    n = ap.parse_args(argv).seeds
    if n < 1:
        ap.error("--seeds must be positive")

    failures, runs_failed, start = Counter(), 0, time.perf_counter()
    for i in range(n):
        seed = DEFAULT_SEED + 100 * i
        results = run_all(quick=True, seed=seed)
        failed = [r for r in results if not r.passed]
        runs_failed += bool(failed)
        for r in failed:
            failures[r.name] += 1
            print(f"seed {seed}: {r.line()}")

    # each criterion's number of Monte Carlo 3-sigma checks, the same at every seed
    mc_checks = {r.name: sum(c.op == "vs" and c.stderr is not None for c in r.checks) for r in results}
    print(f"\n{n} seeds from {DEFAULT_SEED} (step 100) in {time.perf_counter() - start:.1f} s")
    print(f"{'criterion':34s} {'failed':>7s} {'observed':>9s} {'nominal':>8s}")
    for name, _ in CRITERIA:
        print(f"{name:34s} {failures[name]:7d} {failures[name] / n:9.2%} {nominal(mc_checks[name]):8.2%}")
    print(f"{'per run':34s} {runs_failed:7d} {runs_failed / n:9.2%} {nominal(sum(mc_checks.values())):8.2%}")
    print("nominal: 1 - (1 - 2 Phi(-3))^k over the k Monte Carlo 3-sigma checks, an upper bound where a check adds")
    print("a bias budget; domination checks (a Monte Carlo mean below a bound) are not counted")
    over = [name for name, _ in CRITERIA if failures[name] / n >= MAX_RATE]
    if over:
        print(f"criteria failing at {MAX_RATE:.0%} of seeds or more: {', '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
