"""Samplers for the distance process r_N(X_t) on the model scenarios.

Every scenario is a function of Brownian positions in a Euclidean space,
so endpoint laws are exact and paths are exact at grid times. On H^3 the
positions get a drift and a random start (Rogers & Pitman 1981, "Markov
functions", Ann. Probab. 9): the norm of r0 U + B_t + a t e in R^3 is the
distance to N of Brownian motion on H^3 of curvature -a^2 started at
distance r0, when U is von Mises-Fisher on S^2 about e with concentration
a r0.

Random streams are counter-based: stream(seed, k) is the Philox generator
jumped k blocks, so path k is reproducible independently of how many
workers, or rows of a block, consume the path range.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .errors import DomainError
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    Scenario,
    SphereInEuclidean,
)

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
    return _gaussian_distance(
        s, lambda d: math.sqrt(t) * rng.standard_normal((size, d)), t, lambda: rng.random((size, 2))
    )


def _gaussian_distance(s: Scenario, draw: Callable[[int], np.ndarray], time=None, uniforms=None) -> np.ndarray:
    """r_N on scenario s of the Brownian positions draw(d) (d coordinates on
    the last axis, started at 0), computed in place. Only H^3 reads the
    times `time` of the positions and, off the pole, calls uniforms() after
    draw for two uniforms on the last axis, broadcastable against them.
    """
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
    if isinstance(s, HyperbolicH3Point):  # Rogers-Pitman, e = e_0 (module docstring)
        a = math.sqrt(-s.kappa)
        pos = draw(3)
        pos[..., 0] += a * time
        if s.r0 > 0.0:
            # U_0 = w by inverting its law, density proportional to e^{k w}
            # on [-1, 1]; the azimuth phi is uniform
            k, u = a * s.r0, uniforms()
            w = 1.0 + np.log1p(u[..., 0] * math.expm1(-2.0 * k)) / k
            rho = s.r0 * np.sqrt(np.maximum((1.0 - w) * (1.0 + w), 0.0))
            phi = 2.0 * math.pi * u[..., 1]
            pos[..., 0] += s.r0 * w
            pos[..., 1] += rho * np.cos(phi)
            pos[..., 2] += rho * np.sin(phi)
        return _radius(pos)
    raise TypeError(f"unknown scenario {s!r}")


def _circle_distance(angle: np.ndarray) -> np.ndarray:
    """|angle| wrapped to [0, pi], computed in place."""
    angle += math.pi
    np.mod(angle, 2.0 * math.pi, out=angle)
    angle -= math.pi
    return np.abs(angle, out=angle)


def grid_steps(dt: float, T: float) -> int:
    """Number of steps of the grid k*dt, k = 0..round(T/dt)."""
    if dt <= 0.0 or dt > T:
        raise DomainError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    return int(round(T / dt))


def sample_path(s: Scenario, dt: float, T: float, seed: int, index: int = 0) -> PathSample:
    """Discretized trajectory of r_N(X) on the grid k*dt: row `index` of sample_paths."""
    return PathSample(dt=dt, values=sample_paths(s, dt, T, seed, index, 1)[0], scenario=s, seed=seed)


def sample_paths(s: Scenario, dt: float, T: float, seed: int, start: int, count: int) -> np.ndarray:
    """Paths start..start+count-1 of r_N(X) on the grid k*dt, one per row,
    exact at grid times on every scenario.

    Row j draws only from stream(seed, start + j), whatever else shares the
    block: its Gaussian increments, then (H^3 off the pole) its start.
    """
    steps = grid_steps(dt, T)
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if not 0 <= start <= 2**63 - count:
        raise DomainError(f"stream indices must lie in [0, 2**63), got {start}..{start + count - 1}")
    rows = (seed, range(start, start + count))
    if isinstance(s, HyperbolicH3Point):
        return _h3_walk(s.kappa, s.r0, dt, steps, rows)
    return _gaussian_distance(s, lambda d: _gaussian_paths(rows, steps, d, dt))


def _h3_walk(kappa: float, r0: float, dt: float, steps: int, rows: tuple[int, Sequence[int]]) -> np.ndarray:
    """sample_paths on H^3 from r0, rows = (seed, stream indices); the benchmark times this name."""
    starts = np.empty((len(rows[1]), 1, 2))
    return _gaussian_distance(
        HyperbolicH3Point(kappa=kappa, r0=r0),
        lambda d: _gaussian_paths(rows, steps, d, dt, starts[:, 0] if r0 > 0.0 else None),
        dt * np.arange(steps + 1),
        lambda: starts,
    )


def _gaussian_paths(rows: tuple[int, Sequence[int]], steps: int, d: int, dt: float, starts=None) -> np.ndarray:
    # Brownian positions from 0, shape (paths, steps + 1, d); row j is drawn in
    # place from stream(seed, ks[j]), as standard_normal((steps, d)) would, then
    # its start uniforms into starts[j]. Re-keying one Philox (counter [0, 0, k,
    # 0], empty buffer) gives stream()'s bits without its fresh SeedSequence.
    seed, ks = rows
    bits = np.random.Philox(key=np.uint64(seed))
    fresh, rng = bits.state, np.random.Generator(bits)
    pos = np.empty((len(ks), steps + 1, d))
    pos[:, 0] = 0.0
    for j, k in enumerate(ks):
        fresh["state"]["counter"][2] = k
        bits.state = fresh
        rng.standard_normal(out=pos[j, 1:])
        if starts is not None:
            rng.random(out=starts[j])
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
