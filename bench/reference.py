"""A fixed reference computation that measures how fast the host runs now.

On a shared cloud VM the speed of the same code changes by a third or
more, over seconds and over minutes, as other tenants load the machine.
The run times this reference between passes and divides each pass's time
by the median reference round around it, times REFERENCE_S, so a time
reads as it would at the host's speed when REFERENCE_S was taken.

The reference uses numpy and the standard library only, never tubebound,
so no change to the library moves it. Its four parts follow the kinds of
work the workloads do: a Python loop of scalar float math over a numpy
array (as the H^3 walk and the special functions), many small-array
numpy calls (as one path each), seeding fresh generators (as every path
does), and larger-array draws and reductions (as the endpoint samplers).
One round takes about 5 ms.
"""
from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# about the reference's median round on a 2-vCPU Intel Xeon cloud VM
# (Python 3.11.7, numpy 2.4.6); only a unit, the ratio is what counts
REFERENCE_S = 0.005


def _scalar(x: np.ndarray) -> float:
    r = 0.5
    for k in range(len(x)):
        w = abs(x[k]) + 1e-3
        r = math.acosh(max(math.cosh(r) * math.cosh(w) + math.sinh(r) * math.sinh(w) * 0.1, 1.0)) * 0.5
    return r


def _small(rng: np.random.Generator) -> float:
    top = 0.0
    for _ in range(60):
        top += float(np.max(np.abs(np.cumsum(rng.standard_normal(1000)))))
    return top


def _streams() -> float:
    total = 0.0
    for i in range(40):
        g = np.random.default_rng(np.random.SeedSequence(12345, spawn_key=(i,)))
        total += float(g.standard_normal(16).sum())
    return total


def _large(rng: np.random.Generator) -> float:
    x = rng.standard_normal(50_000)
    return float(np.sum(x * x)) + float(np.sort(x[:12_000])[6_000])


def reference_seconds() -> float:
    """Seconds for one fixed round of the four parts."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(2_400)
    t0 = perf_counter()
    _scalar(x)
    _small(rng)
    _streams()
    _large(rng)
    return perf_counter() - t0
