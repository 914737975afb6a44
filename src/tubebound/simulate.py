"""Samplers for the distance process r_N(X_t) on the model scenarios.

Every scenario is a function of Brownian positions in a Euclidean space,
so endpoint laws are exact and paths are exact at grid times. On H^3 the
positions get a drift and a random start (Rogers & Pitman 1981, "Markov
functions", Ann. Probab. 9): the norm of r0 U + B_t + a t e in R^3 is the
distance to N of Brownian motion on H^3 of curvature -a^2 started at
distance r0, when U is von Mises-Fisher on S^2 about e with concentration
a r0. Endpoints need only the norm of a Gaussian position, which by
rotation invariance takes one normal and one chi-square (sample_distances;
one normal on the circle); paths keep the positions themselves.

Every sampler draws from stream(seed, b[, j]), an SFC64 generator seeded by
SeedSequence((seed, b[, j])); independence of the streams rests on
SeedSequence's hashing of the key, not on a counter. Paths come in blocks of
block_rows(steps) consecutive paths, block b drawn in one call from
stream(seed, b), so path k is reproducible whatever the number of paths,
the workers or the range that consume it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    Scenario,
    SphereInEuclidean,
)

_PATH_BLOCK = 1 << 16  # path values, rows x (steps + 1), of a block of sample_paths


def stream(seed: int, index: int = 0, block: int = 0) -> np.random.Generator:
    """Independent generator (index, block) derived from a master seed: SFC64
    seeded by SeedSequence((seed, index, block)), whose hashing keeps the
    streams of distinct keys apart (numpy's "Parallel random number
    generation"). Block 0 is keyed (seed, index) itself, so stream(s, k) is
    stream(s, k, 0) bit for bit. The seed must be an int >= 0, the index
    and the block ints in [0, 2**63)."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    for name, k in (("index", index), ("block", block)):
        if not (isinstance(k, (int, np.integer)) and 0 <= k < 2**63):
            raise DomainError(f"stream {name} must be an integer in [0, 2**63), got {k!r}")
    key = (seed, index, block) if block else (seed, index)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class PathSample:
    """Distance process on a uniform grid: values[k] = r_N(X_{k dt})."""

    dt: float
    values: np.ndarray
    scenario: Scenario
    seed: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")


def sample_distances(s: Scenario, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized exact draws of r_N(X_t). |c e + sqrt(t) G| in R^d, by rotation
    invariance sqrt((c + sqrt(t) Z)^2 + t chi2_{d-1}): flat d = m - n, c = r0;
    sphere d = m, c = 0, then |. - radius|; H^3 d = 3, c = |a t e + r0 U|;
    circle r0 + sqrt(t) Z wrapped. Draw order: the normals Z, (H^3 off the
    pole) the uniforms of U_0, then the chi-square (Z'^2 at d = 2,
    2 standard_gamma((d - 1) / 2) beyond)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if size < 1:
        raise DomainError(f"size must be positive, got {size}")
    r = math.sqrt(t) * rng.standard_normal(size)
    if isinstance(s, CirclePoint):
        r += s.r0
        return _circle_distance(r)
    if isinstance(s, EuclideanAffine):
        d, c = s.m - s.n, s.r0
    elif isinstance(s, SphereInEuclidean):
        d, c = s.m, 0.0
    elif isinstance(s, HyperbolicH3Point):
        a = math.sqrt(-s.kappa)
        d, c = 3, a * t
        if s.r0 > 0.0:
            w = _vmf_cosine(a * s.r0, rng.random(size))
            c = np.sqrt(np.maximum(c * c + 2.0 * c * s.r0 * w + s.r0 * s.r0, 0.0))
    else:
        raise TypeError(f"unknown scenario {s!r}")
    r += c
    np.square(r, out=r)
    if d == 2:  # a gamma of shape 1/2 costs three times two normals
        r += t * np.square(rng.standard_normal(size))
    elif d > 2:
        r += t * (2.0 * rng.standard_gamma(0.5 * (d - 1), size))
    np.sqrt(r, out=r)
    return np.abs(r - s.radius, out=r) if isinstance(s, SphereInEuclidean) else r


def _vmf_cosine(k: float, u: np.ndarray) -> np.ndarray:
    # U_0 of a von Mises-Fisher U on S^2 of concentration k, from uniforms u by
    # inverting its law, density proportional to e^{k w} on [-1, 1]
    return 1.0 + np.log1p(u * math.expm1(-2.0 * k)) / k


def _circle_distance(angle: np.ndarray) -> np.ndarray:
    """|angle| wrapped to [0, pi], computed in place."""
    angle += math.pi
    np.fmod(angle, 2.0 * math.pi, out=angle)  # then + 2 pi below 0: np.mod's bits, at half its cost
    np.add(angle, 2.0 * math.pi, out=angle, where=angle < 0.0)
    angle -= math.pi
    return np.abs(angle, out=angle)


def grid_steps(dt: float, T: float) -> int:
    """Number of steps of the grid k*dt, k = 0..round(T/dt)."""
    if dt <= 0.0 or dt > T:
        raise DomainError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    return int(round(T / dt))


def sample_path(s: Scenario, dt: float, T: float, seed: int, index: int = 0) -> PathSample:
    """Row `index` of sample_paths as a PathSample; kept only for the benchmark, which times it."""
    return PathSample(dt=dt, values=sample_paths(s, dt, T, seed, index, 1)[0], scenario=s, seed=seed)


def sample_paths(s: Scenario, dt: float, T: float, seed: int, start: int, count: int) -> np.ndarray:
    """Paths start..start+count-1 of r_N(X) on the grid k*dt, one per row,
    exact at grid times on every scenario.

    Path k is row k mod R of block k // R, R = block_rows(steps), and block b
    draws from stream(seed, b) alone: (H^3 off the pole) its R starts, then
    its Gaussian increments. So path k has the same bits whatever start and
    count ask for it.
    """
    steps = grid_steps(dt, T)
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if not 0 <= start <= 2**63 - count:
        raise DomainError(f"path indices must lie in [0, 2**63), got {start}..{start + count - 1}")
    rows = (seed, range(start, start + count))
    if isinstance(s, HyperbolicH3Point):
        return _h3_walk(s.kappa, s.r0, dt, steps, rows)
    if isinstance(s, EuclideanAffine):
        pos = _gaussian_paths(rows, steps, s.m - s.n, dt)
        pos[..., 0] += s.r0
        return _radius(pos)
    if isinstance(s, SphereInEuclidean):
        return np.abs(_radius(_gaussian_paths(rows, steps, s.m, dt)) - s.radius)
    if isinstance(s, CirclePoint):
        angle = _gaussian_paths(rows, steps, 1, dt)[..., 0]
        angle += s.r0
        return _circle_distance(angle)
    raise TypeError(f"unknown scenario {s!r}")


def block_rows(steps: int) -> int:
    """Paths per block of sample_paths on a grid of `steps` steps: _PATH_BLOCK
    path values, or one path when a path alone is longer."""
    return max(1, _PATH_BLOCK // (steps + 1))


def _h3_walk(kappa: float, r0: float, dt: float, steps: int, rows: tuple[int, range]) -> np.ndarray:
    """sample_paths on H^3 from r0, rows = (seed, path indices); the benchmark times this name."""
    a = math.sqrt(-kappa)
    starts = np.empty((len(rows[1]), 1, 2))
    pos = _gaussian_paths(rows, steps, 3, dt, starts[:, 0] if r0 > 0.0 else None)
    pos[..., 0] += a * (dt * np.arange(steps + 1))  # Rogers-Pitman, e = e_0 (module docstring)
    if r0 > 0.0:  # U = (w, rho cos phi, rho sin phi), the azimuth phi uniform
        w = _vmf_cosine(a * r0, starts[..., 0])
        rho = r0 * np.sqrt(np.maximum((1.0 - w) * (1.0 + w), 0.0))
        phi = 2.0 * math.pi * starts[..., 1]
        pos[..., 0] += r0 * w
        pos[..., 1] += rho * np.cos(phi)
        pos[..., 2] += rho * np.sin(phi)
    return _radius(pos)


def _gaussian_paths(rows: tuple[int, range], steps: int, d: int, dt: float, starts=None) -> np.ndarray:
    # Brownian positions from 0, shape (paths, steps + 1, d), for the paths in
    # rows = (seed, range). Block b draws from stream(seed, b) all R start pairs
    # (into starts, if given), then standard_normal((R, steps + 1, d)) with step
    # 0 zeroed; that fills in C order, so the rows up to the last one needed are
    # a prefix of it, drawn in place; rows before the first one needed are dropped.
    seed, paths = rows
    R, first, stop = block_rows(steps), paths.start, paths.stop
    pos = np.empty((len(paths), steps + 1, d))
    for b in range(first // R, (stop - 1) // R + 1):
        lo, hi = max(first - b * R, 0), min(stop - b * R, R)
        at = b * R + lo - first
        rng = stream(seed, b)
        if starts is not None:
            starts[at : at + hi - lo] = rng.random((R, 2))[lo:hi]
        if lo:
            pos[at : at + hi - lo] = rng.standard_normal((hi, steps + 1, d))[lo:]
        else:
            rng.standard_normal(out=pos[at : at + hi])
    pos[:, 0] = 0.0
    pos *= math.sqrt(dt)
    return np.cumsum(pos, axis=1, out=pos)


def _radius(pos: np.ndarray) -> np.ndarray:
    # norm over the last axis, squaring pos in place: np.linalg.norm's bits
    # for up to 7 coordinates, without its temporaries
    np.square(pos, out=pos)
    sq = pos[..., 0].copy()
    for i in range(1, pos.shape[-1]):
        sq += pos[..., i]
    return np.sqrt(sq, out=sq)

