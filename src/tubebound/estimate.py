"""Monte Carlo functionals: moments, exponential moments, tail probabilities
and local times, the path ones conditioned on the bridge between grid points.

Draw-based estimators split n over `partitions` partitions and each
partition into blocks of at most _DRAW_BLOCK draws, block j of partition i
drawn from simulate.stream(seed, i, j). Path-based ones take sample_paths'
blocks of paths, block b from stream(seed, b), so neither n nor the worker
count changes path k. Both kinds of block run on one pool of _WORKERS
threads, kept for the process (_map), and one reduction takes both
(_reduce): each block returns partial sums where it is drawn, its squares
summed about its own mean, and they are merged in block order. So results
are bit-reproducible for a given (seed, partitions) whatever the worker
count, and bounded in memory whatever n.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .modelspaces import CirclePoint, Scenario
from .simulate import PathSample, block_rows, grid_steps, sample_distances, sample_paths, stream

# at most 4, so at most 4 blocks of simulate._PATH_BLOCK path values are in flight
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
_DRAW_BLOCK = 1 << 15  # endpoint draws per block: under 2 MB of arrays per call whatever n
PathFn = Callable[[np.ndarray], np.ndarray]
_pool, _pool_lock = None, threading.Lock()  # made on first use and kept
_in_worker = threading.local()  # .set in the pool's own threads
if hasattr(os, "register_at_fork"):  # a forked child has the pool object but none of its threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None, _pool_lock=threading.Lock()))


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


def _map(fn: Callable, items) -> list:
    """[fn(x) for x in items] on the kept pool of _WORKERS threads (numpy
    releases the GIL). A map called from a pool thread, as by an fn that
    calls an estimator, runs inline, so it never waits on the pool it holds."""
    global _pool
    if _WORKERS == 1 or len(items) < 2 or getattr(_in_worker, "set", False):
        return [fn(x) for x in items]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # here, so that `import tubebound` stays lean

            _pool = ThreadPoolExecutor(_WORKERS, initializer=setattr, initargs=(_in_worker, "set", True))
    return list(_pool.map(fn, items))


def _draw_blocks(n: int, partitions: int) -> list[tuple[int, int, int]]:
    # (i, j, size) of each block of n endpoint draws: partition i's draws
    # j * _DRAW_BLOCK onward, drawn from stream(seed, i, j) by _draws
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")
    sizes = _partition_sizes(n, partitions)
    return [(i, k // _DRAW_BLOCK, min(_DRAW_BLOCK, size - k)) for i, size in enumerate(sizes)
            for k in range(0, size, _DRAW_BLOCK)]


def _draws(s: Scenario, t: float, seed: int, block: tuple[int, int, int]) -> np.ndarray:
    return sample_distances(s, t, stream(seed, block[0], block[1]), block[2])


def mc_mean(
    s: Scenario, t: float, n: int, seed: int, fn: Callable[[np.ndarray], np.ndarray], partitions: int = 1
) -> MCEstimate:
    """Mean of fn(r_N(X_t)) over n exact endpoint draws, with its standard error (see _reduce)."""
    return _reduce(lambda b: fn(_draws(s, t, seed, b)), _draw_blocks(n, partitions), n, seed, partitions)


def _reduce(values: Callable, blocks, n: int, seed: int, partitions: int = 1) -> MCEstimate:
    """Mean of the n values that values(block) returns over `blocks`, with its
    standard error; each block runs on _map's pool.

    Values that are not finite (an overflow) are dropped and counted in the
    `overflow` field as a heavy-tail warning; a sum of squares that
    overflows makes the stderr inf. Each block sums its squares about its own
    mean, so a mean far above the spread does not cancel the variance, and
    the blocks are merged by Chan, Golub & LeVeque's pairwise rule (1983),
    which adds k (block mean - mean)^2 per block. A sum of kept values past
    the float range is carried in units of 2**64, so the mean stays finite.
    """

    def sums(block) -> tuple[int, float, float, float]:
        # kept count, sum, sum in units of 2**64 and sum of squares about their
        # own mean, of one block's finite values
        with np.errstate(over="ignore"):  # here: errstate is per thread. An overflow is counted, inf stderr is honest
            vals = values(block)
            vals = vals[np.isfinite(vals)]
            part = float(np.sum(vals))
            scaled = part * 2.0**-64 if math.isfinite(part) else float(np.sum(vals * 2.0**-64))
            dev = vals - _mean(vals.size, part, scaled) if vals.size else vals
            return vals.size, part, scaled, float(np.sum(np.square(dev, out=dev)))

    parts = _map(sums, blocks)
    kept, total, scaled, m2 = 0, 0.0, 0.0, 0.0
    for k, part, part_scaled, sq in parts:
        kept, total, scaled, m2 = kept + k, total + part, scaled + part_scaled, m2 + sq
    if kept == 0:
        raise DomainError(f"all {n} values were not finite; no estimate possible")
    mean = _mean(kept, total, scaled)
    for k, part, part_scaled, _ in parts:
        g = _mean(k, part, part_scaled) - mean if k else 0.0
        m2 += k * g * g  # not g ** 2, which raises OverflowError where g * g is inf
    return MCEstimate(mean, math.sqrt(m2 / max(kept - 1, 1) / kept), n, seed, partitions, n - kept)


def _mean(k: int, part: float, scaled: float) -> float:
    # mean of k values summing to part, or to scaled units of 2**64 where part overflowed
    return part / k if math.isfinite(part) else scaled / k / 2.0**-64


def mc_moment(s: Scenario, p: int, t: float, n: int, seed: int, partitions: int = 1) -> MCEstimate:
    """Mean of r_N(X_t)^(2p) over n exact endpoint draws."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise DomainError(f"p must be a positive integer, got {p}")
    return mc_mean(s, t, n, seed, lambda r: r ** (2 * p), partitions)


def mc_exp_moment(
    s: Scenario, theta: float, t: float, square: bool, n: int, seed: int, partitions: int = 1
) -> MCEstimate:
    """Mean of exp(theta r) or exp(theta r^2 / 2) over n exact endpoint draws.

    Draws whose exponential overflows (an exponent past about 709.78) are
    dropped by mc_mean and counted in the `overflow` field as a heavy-tail
    warning, so `overflow` counts exactly the values that are not finite.
    """
    if not 0.0 <= theta < math.inf:
        raise DomainError(f"theta must be finite and non-negative, got {theta}")
    return mc_mean(s, t, n, seed, lambda r: np.exp(theta * r * r / 2.0 if square else theta * r), partitions)


def mc_path_mean(s: Scenario, dt: float, T: float, n: int, seed: int, fn: PathFn) -> MCEstimate:
    """Mean of fn over paths 0..n-1 of `seed` (n >= 2), with its standard error.

    fn maps a (rows, steps + 1) block of paths, sample_paths' own (block_rows
    paths, one stream each), to one value per row. _reduce reduces each block
    where it is drawn, so memory stays bounded whatever n, and the estimate
    has the same bits for any worker count.
    """
    if n < 2:
        raise DomainError(f"need n >= 2 paths for a standard error, got {n}")
    rows = block_rows(grid_steps(dt, T))
    return _reduce(lambda i: fn(sample_paths(s, dt, T, seed, i, min(rows, n - i))), range(0, n, rows), n, seed)


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

    Point mode counts n >= 100 exact endpoint draws, with the Wilson
    half-width as standard error within 0.05 of 0 or 1 (no zero-stderr
    artifacts at rare or near-certain events).
    Sup mode averages over paths at step dt each one's bridge-crossing
    probability given its grid (no grid-monitoring bias), with partitions 1 only.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if sup_mode:
        if dt is None:
            raise DomainError("sup mode needs a path step dt")
        if partitions != 1:
            raise DomainError(f"sup mode runs one stream per block of paths: need partitions 1, got {partitions}")
        return mc_path_mean(s, dt, t, n, seed, lambda v: _bridge_crossing(v, r, dt))
    phat = sum(_map(lambda b: int(np.count_nonzero(_draws(s, t, seed, b) >= r)), _draw_blocks(n, partitions))) / n
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
