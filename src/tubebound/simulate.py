"""Samplers for the distance process r_N(X_t) on the model scenarios.

Endpoint laws are exact everywhere (the hyperbolic one by rejection);
pathwise sampling is exact except on H^3, where a geodesic random walk of
weak order one is provided for cross-checks only.

Random streams are counter-based: stream(seed, k) is the Philox generator
jumped k blocks, so path k is reproducible independently of how many
workers, or rows of a block, consume the path range.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable

import numpy as np

from .errors import DomainError, SamplerError
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    Scenario,
    SphereInEuclidean,
)

_REJECTION_CAP = 10**6

DUMP_MAGIC = b"TBND"
DUMP_VERSION = 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number `index` derived from a master seed: Philox
    with its counter at index * 2**128, where `.jumped(index)` would take it."""
    if not 0 <= index < 2**63:
        raise DomainError(f"stream index must lie in [0, 2**63), got {index}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, index, 0]))


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
    """Vectorized exact draws of r_N(X_t)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if size < 1:
        raise DomainError(f"size must be positive, got {size}")
    if isinstance(s, HyperbolicH3Point):
        if s.r0 != 0.0:
            raise SamplerError("hyperbolic endpoint sampling starts at the pole (r0 = 0)")
        return _h3_endpoint_batch(s.kappa, t, size, rng)
    return _gaussian_distance(s, lambda d: math.sqrt(t) * rng.standard_normal((size, d)))


def _gaussian_distance(s: Scenario, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """r_N on the flat, sphere or circle scenario of the Brownian positions
    draw(d) (d coordinates on the last axis, started at 0), computed in place."""
    if isinstance(s, EuclideanAffine):
        pos = draw(s.m - s.n)
        pos[..., 0] += s.r0
        return _radius(pos)
    if isinstance(s, SphereInEuclidean):
        return np.abs(_radius(draw(s.m)) - s.radius)
    if isinstance(s, CirclePoint):
        angle = draw(1)[..., 0]
        angle += s.r0
        return _circle_distance(angle)
    raise TypeError(f"unknown scenario {s!r}")


def _circle_distance(angle: np.ndarray) -> np.ndarray:
    """|angle| wrapped to [0, pi], computed in place."""
    angle += math.pi
    np.mod(angle, 2.0 * math.pi, out=angle)
    angle -= math.pi
    return np.abs(angle, out=angle)


def _h3_endpoint_batch(kappa: float, t: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection sampler for the radial law r sinh(a r) exp(-r^2/2t) dr.

    Splitting sinh leaves the target proportional to
    r (1 - e^{-2 a r}) exp(-(r - a t)^2 / 2t) on r > 0. The linear factor is
    enveloped by r <= e^{delta r} / (e delta), which tilts the Gaussian mean
    to a t + delta t; a draw r from the positive part of
    N(a t + delta t, t) is then accepted with probability
    e delta r e^{-delta r} (1 - e^{-2 a r}) <= 1.
    delta = 1/(a t + sqrt t) keeps the acceptance rate near 0.5 for
    moderate times.
    """
    a = math.sqrt(-kappa)
    mu = a * t
    delta = 1.0 / (mu + math.sqrt(t))
    mean = mu + delta * t
    sd = math.sqrt(t)
    out = np.empty(size)
    filled = 0
    proposals = 0
    cap = max(_REJECTION_CAP, 60 * size)
    while filled < size:
        k = max(2 * (size - filled), 64)
        proposals += k
        if proposals > cap:
            raise SamplerError(
                f"hyperbolic rejection sampler exceeded {cap} proposals at t={t}"
            )
        r = mean + sd * rng.standard_normal(k)
        u = rng.random(k)
        pos = r > 0.0
        r = r[pos]
        u = u[pos]
        accept = u < math.e * delta * r * np.exp(-delta * r) * (-np.expm1(-2.0 * a * r))
        acc = r[accept]
        take = min(size - filled, acc.size)
        out[filled : filled + take] = acc[:take]
        filled += take
    return out


def grid_steps(dt: float, T: float) -> int:
    """Number of steps of the grid k*dt, k = 0..round(T/dt)."""
    if dt <= 0.0 or dt > T:
        raise DomainError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    return int(round(T / dt))


def sample_path(s: Scenario, dt: float, T: float, seed: int, index: int = 0) -> PathSample:
    """Discretized trajectory of r_N(X) on the grid k*dt: row `index` of sample_paths."""
    return PathSample(dt=dt, values=sample_paths(s, dt, T, seed, index, 1)[0], scenario=s, seed=seed)


def sample_paths(s: Scenario, dt: float, T: float, seed: int, start: int, count: int) -> np.ndarray:
    """Paths start..start+count-1 of r_N(X) on the grid k*dt, one per row.

    Row j draws only from stream(seed, start + j), whatever else shares the
    block. Gaussian increments make the flat, sphere and circle paths exact
    at grid times; on H^3 a geodesic random walk (weak order one) is used.
    """
    steps = grid_steps(dt, T)
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    rngs = [stream(seed, start + j) for j in range(count)]
    if isinstance(s, HyperbolicH3Point):
        return _h3_walk(s.kappa, s.r0, dt, steps, rngs)
    return _gaussian_distance(s, lambda d: _gaussian_paths(rngs, steps, d, dt))


def _gaussian_paths(rngs: list[np.random.Generator], steps: int, d: int, dt: float) -> np.ndarray:
    # Brownian positions from 0, shape (paths, steps + 1, d); each row is
    # drawn in place, in the order standard_normal((steps, d)) would use
    pos = np.empty((len(rngs), steps + 1, d))
    pos[:, 0] = 0.0
    for row, rng in zip(pos, rngs):
        rng.standard_normal(out=row[1:])
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


def _h3_walk(kappa: float, r0: float, dt: float, steps: int, rngs: list) -> np.ndarray:
    """Geodesic random walk on H^3 from distance r0, one row per generator.

    A tangent Gaussian step of length ell at cosine c to the radial direction
    gives cosh(a r') = cosh(a r) cosh(a ell) + sinh(a r) sinh(a ell) c; only
    cosh(a ell) and sinh(a ell) c are kept. Loop over steps, numpy over paths.
    """
    a = math.sqrt(-kappa)
    ch, shc = np.empty((2, steps, len(rngs)))  # step-major: contiguous per step
    for j, g in enumerate(rngs):
        v = math.sqrt(dt) * g.standard_normal((steps, 3))
        radial = v[:, 0].copy()
        ell = _radius(v)
        ch[:, j] = np.cosh(a * ell)
        shc[:, j] = np.sinh(a * ell) * (radial / ell)
    values = np.full((len(rngs), steps + 1), r0)
    for k in range(steps):
        u = a * values[:, k]
        arg = np.cosh(u) * ch[k] + np.sinh(u) * shc[k]
        values[:, k + 1] = np.arccosh(np.maximum(arg, 1.0)) / a
    # a step of length ell > 700/a ends beyond 700/a, and nan fails the test too
    if not a * np.max(values) <= 700.0:
        raise SamplerError("geodesic walk left the numerically safe region")
    return values


def write_path_dump(path: PathSample, fh: BinaryIO) -> None:
    """Binary dump: magic TBND, version u32, count u64, dt f64, then f64 values."""
    fh.write(DUMP_MAGIC)
    fh.write(struct.pack("<IQd", DUMP_VERSION, len(path.values), path.dt))
    fh.write(np.asarray(path.values, dtype="<f8").tobytes())


def read_path_dump(fh: BinaryIO) -> tuple[float, np.ndarray]:
    """Read a dump written by write_path_dump; returns (dt, values)."""
    magic = fh.read(4)
    if magic != DUMP_MAGIC:
        raise DomainError(f"bad magic {magic!r}, expected {DUMP_MAGIC!r}")
    version, count, dt = struct.unpack("<IQd", fh.read(20))
    if version != DUMP_VERSION:
        raise DomainError(f"unsupported dump version {version}")
    values = np.frombuffer(fh.read(8 * count), dtype="<f8")
    if values.size != count:
        raise DomainError(f"truncated dump: expected {count} values, got {values.size}")
    return dt, values
