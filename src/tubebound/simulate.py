"""Samplers for the distance process r_N(X_t) on the model scenarios.

Every scenario is a function of Brownian positions in a Euclidean space,
read from one record, modelspaces._position (d, x0, a, rho, cut), so
endpoint laws are exact and paths are exact at grid times; no sampler names
a scenario class. On H^3 (a > 0) the positions get a drift and a random
start (Rogers & Pitman 1981, "Markov functions", Ann. Probab. 9): the norm
of r0 U + B_t + a t e in R^3 is the distance to N of Brownian motion on H^3
of curvature -a^2 started at distance r0, when U is von Mises-Fisher on S^2
about e with concentration a r0. Endpoints need only the norm of a Gaussian
position, which by rotation invariance takes one normal and one chi-square
(sample_distances; one normal on the circle); paths keep the positions.

Every sampler draws from the generator it is given; estimate draws block b
of every estimate, endpoint or path, from stream(seed, b), an SFC64
generator seeded by SeedSequence((seed, b)), whose hashing of the key, not a
counter, keeps the streams apart. Paths come in blocks of
R = block_rows(steps) paths: sample_paths draws the first count rows of one
block, and those rows are a prefix of the whole block, so a path has the
same bits whatever the number of paths or the workers that consume it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .modelspaces import Scenario, _position

_PATH_BLOCK = 1 << 16  # path values, rows x (steps + 1), of a block of sample_paths


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator `index` derived from a master seed: SFC64 seeded
    by SeedSequence((seed, index)), whose hashing keeps the streams of
    distinct keys apart (numpy's "Parallel random number generation"). The
    seed must be an int >= 0, the index an int in [0, 2**63)."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if not (isinstance(index, (int, np.integer)) and 0 <= index < 2**63):
        raise DomainError(f"stream index must be an integer in [0, 2**63), got {index!r}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, index))))


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
    """Vectorized exact draws of r_N(X_t) from the position (d, x0, a, rho, cut)
    of modelspaces._position: x0 + sqrt(t) Z wrapped where cut < inf, else
    |c e + sqrt(t) G| in R^d = sqrt((c + sqrt(t) Z)^2 + t chi2_{d-1}), c = x0 + a t
    (|a t e + x0 U| on H^3 off the pole), then |. - rho| on a shell. Draw order:
    the normals Z, (H^3 off the pole) the uniforms of U_0, then the chi-square
    (Z'^2 at d = 2, 2 standard_gamma((d - 1) / 2) beyond)."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"need 0 < t < inf, got t={t}")
    if size < 1:
        raise DomainError(f"size must be positive, got {size}")
    d, x0, a, rho, cut = _position(s)
    r = math.sqrt(t) * rng.standard_normal(size)
    if cut < math.inf:
        r += x0
        return _circle_distance(r)
    c = x0 + a * t
    if a > 0.0 and x0 > 0.0:
        at, w = a * t, _vmf_cosine(a * x0, rng.random(size))
        c = np.sqrt(np.maximum(at * at + 2.0 * at * x0 * w + x0 * x0, 0.0))
    r += c
    np.square(r, out=r)
    if d == 2:  # a gamma of shape 1/2 costs three times two normals
        r += t * np.square(rng.standard_normal(size))
    elif d > 2:
        r += t * (2.0 * rng.standard_gamma(0.5 * (d - 1), size))
    np.sqrt(r, out=r)
    return np.abs(r - rho, out=r) if rho < math.inf else r


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
    if not 0.0 < dt <= T < math.inf:
        raise DomainError(f"need 0 < dt <= T < inf, got dt={dt}, T={T}")
    return int(round(T / dt))


def sample_path(s: Scenario, dt: float, T: float, seed: int, index: int = 0) -> PathSample:
    """Path `index` of `seed` as estimate.mc_path_mean numbers it, row index mod R
    of block index // R drawn from stream(seed, index // R), as a PathSample;
    kept only for the benchmark, which times it."""
    b, k = divmod(index, block_rows(grid_steps(dt, T)))
    return PathSample(dt=dt, values=sample_paths(s, dt, T, stream(seed, b), k + 1)[k], scenario=s, seed=seed)


def sample_paths(s: Scenario, dt: float, T: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """The first `count` rows of one block of R = block_rows(steps) paths of
    r_N(X) on the grid k*dt, drawn from rng, exact at grid times on every
    scenario; count must lie in [1, R].

    A block draws (H^3 off the pole) all R starts, then its Gaussian
    increments row by row, so its first rows have the same bits whatever
    count asks for them.
    """
    steps = grid_steps(dt, T)
    R = block_rows(steps)
    if not 1 <= count <= R:
        raise DomainError(f"count must lie in [1, {R}], one block of paths, got {count}")
    d, x0, a, rho, cut = _position(s)
    if a > 0.0:
        return _h3_walk(s.kappa, x0, dt, steps, (rng, count))
    pos = _gaussian_paths(rng, count, steps, d, dt)
    if x0:
        pos[..., 0] += x0
    if cut < math.inf:
        return _circle_distance(pos[..., 0])
    r = _radius(pos)
    if rho < math.inf:  # in place: a temporary taken while pos is live gets fresh pages
        r -= rho
        np.abs(r, out=r)
    return r


def block_rows(steps: int) -> int:
    """Paths per block of sample_paths on a grid of `steps` steps: _PATH_BLOCK
    path values, or one path when a path alone is longer."""
    return max(1, _PATH_BLOCK // (steps + 1))


def _h3_walk(kappa: float, r0: float, dt: float, steps: int, rows: tuple[np.random.Generator, int]) -> np.ndarray:
    """sample_paths on H^3 from r0, rows = (rng, count); the benchmark times this name."""
    a = math.sqrt(-kappa)
    rng, count = rows
    starts = rng.random((block_rows(steps), 2))[:count, None] if r0 > 0.0 else None  # all R, before the increments
    pos = _gaussian_paths(rng, count, steps, 3, dt)
    pos[..., 0] += a * (dt * np.arange(steps + 1))  # Rogers-Pitman, e = e_0 (module docstring)
    if r0 > 0.0:  # U = (w, rho cos phi, rho sin phi), the azimuth phi uniform
        w = _vmf_cosine(a * r0, starts[..., 0])
        rho = r0 * np.sqrt(np.maximum((1.0 - w) * (1.0 + w), 0.0))
        phi = 2.0 * math.pi * starts[..., 1]
        pos[..., 0] += r0 * w
        pos[..., 1] += rho * np.cos(phi)
        pos[..., 2] += rho * np.sin(phi)
    return _radius(pos)


def _gaussian_paths(rng: np.random.Generator, count: int, steps: int, d: int, dt: float) -> np.ndarray:
    # Brownian positions from 0, shape (count, steps + 1, d): one
    # standard_normal call, which fills in C order, so its rows are a prefix
    # of a longer call's; step 0 zeroed, the increments scaled and summed
    pos = rng.standard_normal((count, steps + 1, d))
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

