#!/usr/bin/env python3
"""Local-time experiments (Brownian-bridge estimator): circle cut locus at t = 20 and
the sphere shell in the plane at t = 1, each against its closed form.

Extra flags are passed through to `tubebound localtime`.
"""
import sys

from tubebound.cli import main

if __name__ == "__main__":
    sys.exit(main(["localtime", "--out", "results/localtime", *sys.argv[1:]]))
