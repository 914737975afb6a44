"""Monte Carlo functionals: moments, exponential moments, tail probabilities
and local times, the path ones conditioned on the bridge between grid points.

Draw-based estimators split n over `partitions` streams, partition i
drawn from simulate.stream(seed, i) (SFC64, seeded by SeedSequence((seed,
i))), draw each stream in blocks of _DRAW_BLOCK and reduce partial sums in
fixed order, so results are bit-reproducible for a given (seed, partitions)
and bounded in memory whatever n; they run on one thread. Path-based ones
run sample_paths' blocks of paths, block b from stream(seed, b), on a
thread pool, so neither n nor the worker count changes path k.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .modelspaces import CirclePoint, Scenario
from .simulate import PathSample, block_rows, grid_steps, sample_distances, sample_paths, stream

_EXP_GUARD = 700.0
# at most 4, so at most 4 blocks of simulate._PATH_BLOCK path values are in flight
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_DRAW_BLOCK = 1 << 15  # endpoint draws per block: under 2 MB of arrays per call whatever n
PathFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with standard error and its reproducibility tuple."""

    mean: float
    stderr: float
    n: int
    seed: int
    partitions: int = 1
    overflow: int = 0


def _partition_sizes(n: int, partitions: int) -> list[int]:
    if partitions < 1 or partitions > n:
        raise DomainError(f"need 1 <= partitions <= n, got {partitions} for n={n}")
    base, extra = divmod(n, partitions)
    return [base + (1 if i < extra else 0) for i in range(partitions)]


def _draw_blocks(s: Scenario, t: float, n: int, seed: int, partitions: int) -> Iterable[np.ndarray]:
    # n exact endpoint draws, partition i from stream(seed, i), _DRAW_BLOCK at a time
    for i, size in enumerate(_partition_sizes(n, partitions)):
        rng = stream(seed, i)
        for done in range(0, size, _DRAW_BLOCK):
            yield sample_distances(s, t, rng, min(_DRAW_BLOCK, size - done))


def mc_mean(
    s: Scenario, t: float, n: int, seed: int, fn: Callable[[np.ndarray], np.ndarray], partitions: int = 1
) -> MCEstimate:
    """Mean of fn(r_N(X_t)) over n exact endpoint draws, with its standard error.

    Values of fn that are not finite (an overflow) are dropped and counted
    in the `overflow` field as a heavy-tail warning; a sum of squares that
    overflows makes the stderr inf. Squares are summed about the first
    block's mean, so a mean far above the spread does not cancel the variance.
    A sum of kept values past the float range is carried in units of 2**64,
    so the mean stays finite.
    """
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")
    total = total_sq = shift = 0.0
    kept, unit = 0, 1.0  # the kept values sum to total / unit
    for draws in _draw_blocks(s, t, n, seed, partitions):
        with np.errstate(over="ignore"):  # an overflow is counted below, and inf stderr is the honest answer
            vals = fn(draws)
            vals = vals[np.isfinite(vals)]
            shift = float(np.mean(vals)) if kept == 0 and vals.size else shift
            total_sq += float(np.sum((vals - shift) ** 2))
            if unit == 1.0:
                part = float(np.sum(vals))
                if not math.isfinite(total + part):
                    unit, total = 2.0**-64, total * 2.0**-64
            if unit != 1.0:
                part = float(np.sum(vals * unit))
        kept += vals.size
        total += part
    if kept == 0:
        raise DomainError(f"all {n} values were not finite; no estimate possible")
    mean = total / kept / unit
    gap, var = mean - shift, math.inf
    if math.isfinite(total_sq) and math.isfinite(mean):
        var = max(total_sq - kept * gap * gap, 0.0) / max(kept - 1, 1)
    return MCEstimate(mean, math.sqrt(var / kept), n, seed, partitions, n - kept)


def mc_moment(s: Scenario, p: int, t: float, n: int, seed: int, partitions: int = 1) -> MCEstimate:
    """Mean of r_N(X_t)^(2p) over n exact endpoint draws."""
    if p < 1:
        raise DomainError(f"p must be a positive integer, got {p}")
    return mc_mean(s, t, n, seed, lambda r: r ** (2 * p), partitions)


def mc_exp_moment(
    s: Scenario, theta: float, t: float, square: bool, n: int, seed: int, partitions: int = 1
) -> MCEstimate:
    """Mean of exp(theta r) or exp(theta r^2 / 2) over n exact endpoint draws.

    Draws whose exponent exceeds 700 would overflow; they are dropped and
    counted in the `overflow` field as a heavy-tail warning.
    """
    if theta < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta}")

    def fn(r: np.ndarray) -> np.ndarray:
        expo = theta * r * r / 2.0 if square else theta * r
        return np.exp(np.where(expo <= _EXP_GUARD, expo, np.inf))

    return mc_mean(s, t, n, seed, fn, partitions)


def path_functional(s: Scenario, dt: float, T: float, n: int, seed: int, fn: PathFn) -> np.ndarray:
    """fn over paths 0..n-1 of `seed` (see sample_paths), in blocks of rows.

    fn maps a (rows, steps + 1) block of paths to an array whose first axis
    has one entry per row; the entries are returned in path order. The blocks
    are sample_paths' own (block_rows paths, one stream each), run on _WORKERS
    threads (numpy releases the GIL), so memory stays bounded whatever n and
    the result has the same bits for any n and worker count.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 paths, got {n}")
    rows = block_rows(grid_steps(dt, T))
    block = lambda i: fn(sample_paths(s, dt, T, seed, i, min(rows, n - i)))
    from concurrent.futures import ThreadPoolExecutor  # here, so that `import tubebound` stays lean

    with ThreadPoolExecutor(_WORKERS) as pool:
        return np.concatenate(list(pool.map(block, range(0, n, rows))))


def mc_path_mean(s: Scenario, dt: float, T: float, n: int, seed: int, fn: PathFn) -> MCEstimate:
    """Mean of one value per path over path_functional, with its standard error (n >= 2)."""
    if n < 2:
        raise DomainError(f"need n >= 2 paths for a standard error, got {n}")
    vals = path_functional(s, dt, T, n, seed, fn)
    return MCEstimate(float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)), n, seed)


def bridge_local_time(dist: np.ndarray, dt: float) -> np.ndarray:
    """Local time at 0 of each row of a (rows, steps + 1) block of distances to
    a target, given the grid: the sum over steps x -> y of the folded bridge's
    sqrt(2 pi dt) erfcx((x + y) / sqrt(2 dt)) e / (1 + e), e = exp(-2 x y / dt).
    Exact for reflected Brownian motion; a drift varying near the target biases it."""
    from scipy.special import erfcx  # here, so that `import tubebound` loads no scipy

    c, w = math.sqrt(2.0 * math.pi * dt), math.sqrt(2.0 * dt)
    return _bridge_sum(dist, dt, lambda x, y, e: c * erfcx((x + y) / w) * e / (1.0 + e))


def _bridge_crossing(values: np.ndarray, r: float, dt: float) -> np.ndarray:
    """Each row's probability that its bridge reaches r, 1 - prod (1 - e) over steps
    x -> y, e = exp(-2 (r - x)(r - y) / dt) (Gobet 2000); a grid hit has e = 1."""
    with np.errstate(divide="ignore"):
        return -np.expm1(_bridge_sum(np.maximum(r - values, 0.0), dt, lambda x, y, e: np.log1p(-e)))


def _bridge_sum(gap: np.ndarray, dt: float, term) -> np.ndarray:
    # per row of a block of gaps >= 0, the sum of term(x, y, exp(-2 x y / dt))
    # over the steps x -> y with 2 x y / dt < 40: a term dropped is below e^-40
    idx = np.flatnonzero(gap[:, :-1] * gap[:, 1:] < 20.0 * dt)
    rows = idx // (gap.shape[1] - 1)
    x, y = gap.ravel()[idx + rows], gap.ravel()[idx + rows + 1]
    return np.bincount(rows, weights=term(x, y, np.exp(-2.0 * x * y / dt)), minlength=len(gap))


def occupation_local_time_extrapolated(path: PathSample, target: str, eps: float) -> float:
    """Richardson combination 2 L(eps/2) - L(eps) of L(eps) = (1/2 eps) * time
    within eps of the target, "submanifold" (the path values) or, on the
    circle, "cut_locus" (pi - r), on one path. Kept only, bit for bit, for
    the benchmark's verify-quick circle slice; ROADMAP item 1 removes it."""
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    circle = isinstance(path.scenario, CirclePoint)
    if target not in ("submanifold", "cut_locus") or (target == "cut_locus" and not circle):
        raise DomainError(f"target must be submanifold, or cut_locus on the circle; got {target!r}")
    d = np.asarray(path.values)
    d = math.pi - d if target == "cut_locus" else d
    half = path.dt * np.add.reduce(d[:-1] < eps / 2.0, dtype=np.int32) / eps
    full = path.dt * np.add.reduce(d[:-1] < eps, dtype=np.int32) / (2.0 * eps)
    return float(2.0 * half - full)


def tail_prob(
    s: Scenario,
    r: float,
    t: float,
    sup_mode: bool,
    n: int,
    dt: float | None,
    seed: int,
    partitions: int = 1,
) -> MCEstimate:
    """Probability of r_N(X_t) >= r, or of sup_{s<=t} r_N >= r.

    Point mode counts exact endpoint draws, with the Wilson half-width as
    standard error within 0.05 of 0 or 1 (no zero-stderr artifacts at rare
    or near-certain events).
    Sup mode averages over paths at step dt each one's bridge-crossing
    probability given its grid (no grid-monitoring bias), with partitions 1 only.
    """
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    if sup_mode:
        if dt is None:
            raise DomainError("sup mode needs a path step dt")
        if partitions != 1:
            raise DomainError(f"sup mode runs one stream per block of paths: need partitions 1, got {partitions}")
        return mc_path_mean(s, dt, t, n, seed, lambda v: _bridge_crossing(v, r, dt))
    phat = sum(int(np.count_nonzero(draws >= r)) for draws in _draw_blocks(s, t, n, seed, partitions)) / n
    return MCEstimate(
        mean=phat, stderr=_binomial_stderr(phat, n), n=n, seed=seed, partitions=partitions
    )


def _binomial_stderr(phat: float, n: int) -> float:
    if min(phat, 1.0 - phat) < 0.05:
        # Wilson half-width at one sigma
        z2 = 1.0
        half = math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
        return half / (1.0 + z2 / n)
    return math.sqrt(phat * (1.0 - phat) / n)


def estimates_to_csv(rows: Iterable[tuple[str, MCEstimate]]) -> str:
    """CSV text with header quantity,mean,stderr,n,seed,partitions."""
    lines = ["quantity,mean,stderr,n,seed,partitions"]
    for name, est in rows:
        lines.append(
            f"{name},{est.mean!r},{est.stderr!r},{est.n},{est.seed},{est.partitions}"
        )
    return "\n".join(lines) + "\n"
