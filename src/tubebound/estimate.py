"""Monte Carlo functionals: moments, exponential moments, tail probabilities
and local times, the path ones conditioned on the bridge between grid points.

Every estimate splits its n values into blocks and draws block b from
simulate.stream(seed, b), in one walk (_blocks): blocks of at most
_DRAW_BLOCK endpoint draws, or of R = block_rows(steps) paths drawn by
sample_paths, so neither n nor the worker count changes value k. The
samplers take generators; only _blocks (and simulate.sample_path, the
benchmark's shim) maps a seed to streams. The blocks run on one pool of
_WORKERS threads, kept for the process (_map), and one reduction takes both
kinds (_reduce): each block returns partial sums where it is drawn (_sums),
its squares summed about its own mean, and they are merged in block order.
So results are bit-reproducible for a given (n, seed) whatever the worker
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
    overflow: int = 0


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


def _blocks(n: int, seed: int, size: int, block: Callable[[np.random.Generator, int], object]) -> list:
    """[block(stream(seed, b), count) for each block b of n values], count =
    min(size, n - b size), on _map's pool: the one map from (n, seed) to
    streams, so value k is value k mod size of block k // size whatever n."""

    def run(b: int):
        with np.errstate(over="ignore"):  # here: errstate is per thread. An overflow is counted, inf stderr is honest
            return block(stream(seed, b), min(size, n - b * size))

    return _map(run, range(-(-n // size)))


def _endpoints(s: Scenario, t: float, n: int, seed: int, fn: Callable[[np.ndarray], object]) -> list:
    # fn of each block of _DRAW_BLOCK of the n >= 100 exact endpoint draws (see _blocks)
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")
    return _blocks(n, seed, _DRAW_BLOCK, lambda rng, k: fn(sample_distances(s, t, rng, k)))


def mc_mean(s: Scenario, t: float, n: int, seed: int, fn: Callable[[np.ndarray], np.ndarray]) -> MCEstimate:
    """Mean of fn(r_N(X_t)) over n exact endpoint draws, with its standard error (see _reduce)."""
    return _reduce(_endpoints(s, t, n, seed, lambda r: _sums(fn(r))), n, seed)


def _sums(vals: np.ndarray) -> tuple[int, float, float, float]:
    # kept count, sum, sum in units of 2**64 and sum of squares about their own
    # mean, of one block's finite values, where the block is drawn
    vals = vals[np.isfinite(vals)]
    part = float(np.sum(vals))
    scaled = part * 2.0**-64 if math.isfinite(part) else float(np.sum(vals * 2.0**-64))
    dev = vals - _mean(vals.size, part, scaled) if vals.size else vals
    return vals.size, part, scaled, float(np.sum(np.square(dev, out=dev)))


def _reduce(parts: list, n: int, seed: int) -> MCEstimate:
    """Mean of n values from the _sums of their blocks, with its standard error.

    Values that are not finite (an overflow) are dropped and counted in the
    `overflow` field as a heavy-tail warning; a sum of squares that
    overflows makes the stderr inf. Each block sums its squares about its own
    mean, so a mean far above the spread does not cancel the variance, and
    the blocks are merged in order by Chan, Golub & LeVeque's pairwise rule
    (1983), which adds k (block mean - mean)^2 per block. A sum of kept
    values past the float range is carried in units of 2**64, so the mean
    stays finite.
    """
    kept, total, scaled, m2 = 0, 0.0, 0.0, 0.0
    for k, part, part_scaled, sq in parts:
        kept, total, scaled, m2 = kept + k, total + part, scaled + part_scaled, m2 + sq
    if kept == 0:
        raise DomainError(f"all {n} values were not finite; no estimate possible")
    mean = _mean(kept, total, scaled)
    for k, part, part_scaled, _ in parts:
        g = _mean(k, part, part_scaled) - mean if k else 0.0
        m2 += k * g * g  # not g ** 2, which raises OverflowError where g * g is inf
    return MCEstimate(mean, math.sqrt(m2 / max(kept - 1, 1) / kept), n, seed, n - kept)


def _mean(k: int, part: float, scaled: float) -> float:
    # mean of k values summing to part, or to scaled units of 2**64 where part overflowed
    return part / k if math.isfinite(part) else scaled / k / 2.0**-64


def mc_moment(s: Scenario, p: int, t: float, n: int, seed: int, _unused: object = None) -> MCEstimate:
    """Mean of r_N(X_t)^(2p) over n exact endpoint draws. The last parameter is never
    read: the benchmark fills it, and ROADMAP item 1 removes it with sample_path."""
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise DomainError(f"p must be a positive integer, got {p}")
    return mc_mean(s, t, n, seed, lambda r: r ** (2 * p))


def mc_exp_moment(
    s: Scenario, theta: float, t: float, square: bool, n: int, seed: int, _unused: object = None
) -> MCEstimate:
    """Mean of exp(theta r) or exp(theta r^2 / 2) over n exact endpoint draws.

    Draws whose exponential overflows (an exponent past about 709.78) are
    dropped by mc_mean and counted in the `overflow` field as a heavy-tail
    warning, so `overflow` counts exactly the values that are not finite.
    The last parameter is never read, as in mc_moment.
    """
    if not 0.0 <= theta < math.inf:
        raise DomainError(f"theta must be finite and non-negative, got {theta}")
    return mc_mean(s, t, n, seed, lambda r: np.exp(theta * r * r / 2.0 if square else theta * r))


def mc_path_mean(s: Scenario, dt: float, T: float, n: int, seed: int, fn: PathFn) -> MCEstimate:
    """Mean of fn over paths 0..n-1 of `seed` (n >= 2), with its standard error.

    fn maps a (rows, steps + 1) block of sample_paths to one value per row:
    path k is row k mod R of block k // R of _blocks, R = block_rows(steps).
    """
    if n < 2:
        raise DomainError(f"need n >= 2 paths for a standard error, got {n}")
    rows = block_rows(grid_steps(dt, T))
    return _reduce(_blocks(n, seed, rows, lambda rng, k: _sums(fn(sample_paths(s, dt, T, rng, k)))), n, seed)


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
    _unused: object = None,
) -> MCEstimate:
    """Probability of r_N(X_t) >= r, or of sup_{s<=t} r_N >= r.

    Point mode counts n >= 100 exact endpoint draws, with the Wilson
    half-width as standard error within 0.05 of 0 or 1 (no zero-stderr
    artifacts at rare or near-certain events).
    Sup mode averages over paths at step dt each one's bridge-crossing
    probability given its grid (no grid-monitoring bias).
    The last parameter is never read, as in mc_moment.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if sup_mode:
        if dt is None:
            raise DomainError("sup mode needs a path step dt")
        return mc_path_mean(s, dt, t, n, seed, lambda v: _bridge_crossing(v, r, dt))
    phat = sum(_endpoints(s, t, n, seed, lambda d: int(np.count_nonzero(d >= r)))) / n
    return MCEstimate(mean=phat, stderr=_binomial_stderr(phat, n), n=n, seed=seed)


def _binomial_stderr(phat: float, n: int) -> float:
    if min(phat, 1.0 - phat) < 0.05:
        # Wilson half-width at one sigma
        z2 = 1.0
        half = math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
        return half / (1.0 + z2 / n)
    return math.sqrt(phat * (1.0 - phat) / n)


def estimates_to_csv(rows: Iterable[tuple[str, MCEstimate]]) -> str:
    """CSV text with header quantity,mean,stderr,n,seed."""
    lines = ["quantity,mean,stderr,n,seed"]
    for name, est in rows:
        lines.append(f"{name},{est.mean!r},{est.stderr!r},{est.n},{est.seed}")
    return "\n".join(lines) + "\n"
