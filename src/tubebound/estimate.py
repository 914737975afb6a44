"""Monte Carlo functionals: moments, exponential moments, tail frequencies
and occupation-time local-time estimators.

Draw-based estimators split n over `partitions` independent streams and
reduce partial sums in fixed order, so results are bit-reproducible for a
given (seed, partitions) and parallelizable across partitions. Path-based
ones give path k stream k, so batching paths does not change them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .modelspaces import CirclePoint, Scenario
from .simulate import PathSample, grid_steps, sample_distances, sample_paths, stream

_EXP_GUARD = 700.0
_PATH_BLOCK = 1 << 16  # path values per block, rows x (steps + 1)
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


def _mc_reduce(
    s: Scenario,
    t: float,
    n: int,
    seed: int,
    partitions: int,
    transform: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float, int]:
    """Mean/stderr of transform(r) over n exact draws; returns overflow count."""
    total = 0.0
    total_sq = 0.0
    kept = 0
    dropped = 0
    for i, size in enumerate(_partition_sizes(n, partitions)):
        draws = sample_distances(s, t, stream(seed, i), size)
        vals = transform(draws)
        finite = np.isfinite(vals)
        dropped += int(vals.size - np.count_nonzero(finite))
        vals = vals[finite]
        kept += vals.size
        total += float(np.sum(vals))
        with np.errstate(over="ignore"):  # inf stderr is the honest heavy-tail answer
            total_sq += float(np.sum(vals * vals))
    if kept == 0:
        raise DomainError(f"all {n} draws overflowed the exp guard; no estimate possible")
    mean = total / kept
    var = max(total_sq - kept * mean * mean, 0.0) / max(kept - 1, 1)
    return mean, math.sqrt(var / kept), dropped


def mc_moment(
    s: Scenario, p: int, t: float, n: int, seed: int, partitions: int = 1
) -> MCEstimate:
    """Mean of r_N(X_t)^(2p) over n exact endpoint draws."""
    if p < 1:
        raise DomainError(f"p must be a positive integer, got {p}")
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")
    mean, stderr, _ = _mc_reduce(s, t, n, seed, partitions, lambda r: r ** (2 * p))
    return MCEstimate(mean=mean, stderr=stderr, n=n, seed=seed, partitions=partitions)


def mc_exp_moment(
    s: Scenario,
    theta: float,
    t: float,
    square: bool,
    n: int,
    seed: int,
    partitions: int = 1,
) -> MCEstimate:
    """Mean of exp(theta r) or exp(theta r^2 / 2) over n exact endpoint draws.

    Draws whose exponent exceeds 700 would overflow; they are dropped and
    counted in the `overflow` field as a heavy-tail warning.
    """
    if theta < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta}")
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")

    def transform(r: np.ndarray) -> np.ndarray:
        expo = theta * r * r / 2.0 if square else theta * r
        return np.where(expo <= _EXP_GUARD, np.exp(np.minimum(expo, _EXP_GUARD)), np.inf)

    mean, stderr, dropped = _mc_reduce(s, t, n, seed, partitions, transform)
    return MCEstimate(
        mean=mean, stderr=stderr, n=n, seed=seed, partitions=partitions, overflow=dropped
    )


def path_functional(s: Scenario, dt: float, T: float, n: int, seed: int, fn: PathFn) -> np.ndarray:
    """fn over paths 0..n-1 of `seed` (see sample_paths), in blocks of rows.

    fn maps a (rows, steps + 1) block of paths to an array whose first axis
    has one entry per row; the entries are returned in path order. A block
    holds at most _PATH_BLOCK values, so memory stays bounded whatever n.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 paths, got {n}")
    rows = max(1, _PATH_BLOCK // (grid_steps(dt, T) + 1))
    return np.concatenate(
        [fn(sample_paths(s, dt, T, seed, i, min(rows, n - i))) for i in range(0, n, rows)]
    )


def mc_path_mean(s: Scenario, dt: float, T: float, n: int, seed: int, fn: PathFn) -> MCEstimate:
    """Mean of one value per path over path_functional, with its standard error."""
    vals = path_functional(s, dt, T, n, seed, fn)
    return MCEstimate(float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)), n, seed)


def occupation(values: np.ndarray, s: Scenario, target: str, dt: float, eps: float) -> np.ndarray:
    """(1/2 eps) * time within eps of the target set, for each path along
    the last axis of `values` (grid step dt). target is "submanifold"
    (distance = path values) or "cut_locus" (circle only; distance to the
    antipode is pi - r). eps above 2 sqrt(dt) keeps the band resolved.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    band = _target_distance(values, s, target)[..., :-1] < eps
    # int32 sums: half the cost of count_nonzero(axis=-1), which sums int64
    return dt * np.add.reduce(band, axis=-1, dtype=np.int32) / (2.0 * eps)


def occupation_extrapolated(
    values: np.ndarray, s: Scenario, target: str, dt: float, eps: float
) -> np.ndarray:
    """Richardson combination 2 L(eps/2) - L(eps), removing the O(eps) bias."""
    d = _target_distance(values, s, target)  # once for both bands; a distance is its own target
    return 2.0 * occupation(d, s, "submanifold", dt, eps / 2.0) - occupation(d, s, "submanifold", dt, eps)


def occupation_local_time_extrapolated(path: PathSample, target: str, eps: float) -> float:
    """occupation_extrapolated() of one path."""
    return float(occupation_extrapolated(path.values, path.scenario, target, path.dt, eps))


def _target_distance(values: np.ndarray, s: Scenario, target: str) -> np.ndarray:
    if target == "submanifold":
        return np.asarray(values)
    if target == "cut_locus":
        if not isinstance(s, CirclePoint):
            raise DomainError("cut_locus occupation is defined only for the circle scenario")
        return math.pi - np.asarray(values)
    raise DomainError(f"target must be submanifold or cut_locus, got {target!r}")


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
    """Empirical frequency of r_N(X_t) >= r, or of sup_{s<=t} r_N >= r.

    Point mode uses exact endpoint draws; sup mode walks paths at step dt.
    The standard error is the Wilson half-width when the frequency is
    below 0.05, avoiding zero-stderr artifacts at rare events.
    """
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    if sup_mode:
        if dt is None:
            raise DomainError("sup mode needs a path step dt")
        sup = path_functional(s, dt, t, n, seed, lambda v: np.max(v, axis=-1))
        phat = int(np.count_nonzero(sup >= r)) / n
    else:
        hits = 0
        for i, size in enumerate(_partition_sizes(n, partitions)):
            draws = sample_distances(s, t, stream(seed, i), size)
            hits += int(np.count_nonzero(draws >= r))
        phat = hits / n
    return MCEstimate(
        mean=phat, stderr=_binomial_stderr(phat, n), n=n, seed=seed, partitions=partitions
    )


def _binomial_stderr(phat: float, n: int) -> float:
    if phat < 0.05:
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
